"""Projected densities of surface-distributed points and their divergences.

A point distributed on the constant-energy surface, projected to its first
k coordinates, has density ``g_k(y) * w_{n-k}(nt - R_k(y)) / w_n(nt)``;
the likelihood ratio against the Gibbs product density depends on y only
through ``R_k(y)``.  All divergences and distances are therefore computed
through one-dimensional integrals against ``w_k`` or against ``r_k``, the
conditional density of the partial energy given the total -- an identity,
not an approximation, which keeps k-dimensional quadrature out of the
picture entirely.

The total variation convention is the full L1 distance ``\\int |p - q|``
with range [0, 2].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .gibbs1d import GibbsModel, GridParams
from .grids import DensityGrid, make_grid
from .hamiltonians import CLOSED_FORMS, SYMMETRIC, HamiltonianSpec, _memo, f_values, finv_values
from .sumdensity import _check_count, log_w, w_density, w_grids

__all__ = [
    "ProjectionContext",
    "BoundReport",
    "ConverseReport",
    "MixtureReport",
    "make_context",
    "rk_conditional_density",
    "project_uniform_k1",
    "kl_to_gibbs",
    "tv_to_gibbs",
    "bound_report",
    "converse_lower_bound",
    "mixture_bound_check",
]


@dataclass(frozen=True)
class ProjectionContext:
    """Solved model plus the sum densities an (n, k) cell needs.

    ``wk`` is the memoised ``w_k`` grid.  ``wnk`` is the ``w_{n-k}`` grid of
    an FFT family, owned by the context (it is memoised only when some
    other use put it there) and freed with it; it is None for closed-form
    families, whose ``log w_{n-k}`` is exact.  ``log w_n(nt)`` comes from
    :func:`sumdensity.log_w`.  ``nodes`` (the ``w_k`` abscissae) and
    ``node_log_ratio`` (the one pass of the log likelihood ratio over them)
    are built once and read-only, and ``rk`` (the normalised ``r_k`` grid)
    is built once from them; every tilt and divergence of the cell reads
    them.
    """

    model: GibbsModel
    n: int
    k: int
    t: float
    wk: DensityGrid
    wnk: DensityGrid | None
    log_wn_at_nt: float
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def log_wnk(self, s) -> np.ndarray:
        if self.wnk is None:
            return log_w(self.model, self.n - self.k, s)
        return self.wnk.log_at(s)

    @property
    def nodes(self) -> np.ndarray:
        """The ``w_k`` nodes s, ``wk.points()``; built on first use, through
        ``_memo``."""
        return _memo(self._cache, "nodes", lambda: _read_only(self.wk.points()))

    @property
    def node_log_ratio(self) -> tuple[np.ndarray, np.ndarray]:
        """``log w_{n-k}(nt - s) - log w_n(nt)`` at the ``w_k`` nodes s, with 0
        where it is not finite, and the mask of where it is; evaluated on
        first use, through ``_memo``."""
        return _memo(self._cache, "node_log_ratio", self._node_log_ratio)

    def _node_log_ratio(self) -> tuple[np.ndarray, np.ndarray]:
        lr = self.log_wnk(self.n * self.t - self.nodes)
        lr -= self.log_wn_at_nt
        finite = np.isfinite(lr)
        lr[~finite] = 0.0
        return _read_only(lr), _read_only(finite)

    @property
    def rk(self) -> DensityGrid:
        """``r_k(s) = w_k(s) w_{n-k}(nt - s) / w_n(nt)`` on the ``w_k`` nodes,
        normalised; built on first use, through ``_memo``.  An exact identity
        up to grid error: a normalization defect of 1e-4 or more is
        refused, so every divergence of the cell that reads it is too."""
        return _memo(self._cache, "rk", self._rk)

    def _rk(self) -> DensityGrid:
        masked, finite = self.node_log_ratio
        with np.errstate(over="ignore", invalid="ignore"):
            values = np.where(finite, self.wk.values * np.exp(masked), 0.0)
        edge = None
        if self.wk.edge is not None:
            lr0 = float(self.log_wnk(np.asarray([self.n * self.t]))[0]) - self.log_wn_at_nt
            values[0], edge = self.wk.edge.scaled(lr0).node0()
        rk = make_grid(self.wk.x0, self.wk.dx, values, edge=edge, meta={"kind": "rk", "n": self.n, "k": self.k})
        defect = abs(rk.mass - 1.0)
        if defect >= 1e-4:
            raise RuntimeError(f"r_k normalization defect {defect:.2e} >= 1e-4; grid inadequate")
        return rk.normalized()


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def make_context(model: GibbsModel, n: int, k: int, params: GridParams | None = None) -> ProjectionContext:
    _check_count("n", n)
    _check_count("k", k)
    if not k < n:
        raise ValueError("need 1 <= k < n")
    params = params or GridParams()
    if model.spec.closed_form:
        wk, wnk = w_density(model, k, params), None
    else:
        # w_k and w_n are shared with other cells; w_{n-k} is this cell's
        wk, _, wnk = w_grids(model, [k, n, n - k], params, shared=(k, n))
    log_wn_at_nt = float(log_w(model, n, np.asarray([n * model.mu]), params)[0])
    if not math.isfinite(log_wn_at_nt):
        raise ValueError("w_n vanishes at the surface level nt; context is degenerate")
    return ProjectionContext(
        model=model,
        n=n,
        k=k,
        t=model.mu,
        wk=wk,
        wnk=wnk,
        log_wn_at_nt=log_wn_at_nt,
    )


# ---------------------------------------------------------------------------
# conditional density of the partial energy


def rk_conditional_density(ctx: ProjectionContext) -> DensityGrid:
    """``r_k(s) = w_k(s) w_{n-k}(nt - s) / w_n(nt)`` on the w_k grid.

    An exact identity up to grid error; the normalization defect is
    recorded and must stay below 1e-4.  The context's memoised ``rk``.
    """
    return ctx.rk


def project_uniform_k1(ctx: ProjectionContext) -> DensityGrid:
    """Coordinate-space density of the first coordinate under the uniform
    surface density: ``g_1(y) * w_{n-1}(nt - f(y)) / w_n(nt)`` (k = 1)."""
    if ctx.k != 1:
        raise ValueError("explicit coordinate-space output is built for k = 1")
    model, spec = ctx.model, ctx.model.spec
    nt = ctx.n * ctx.t
    y_cap = float(finv_values(spec, np.asarray([min(nt, ctx.wk.x_end)]))[0])
    m = len(ctx.wk)
    if spec.support == SYMMETRIC:
        ys = np.linspace(-y_cap, y_cap, m)
    else:
        ys = np.linspace(0.0, y_cap, m)
    fy = f_values(spec, ys)
    log_g1 = -model.c * fy - math.log(model.z)
    log_ratio, finite = _log_ratio(ctx, fy)
    values = _exp_ratio(log_g1 + log_ratio, finite)
    if not np.any(values > 0):
        raise RuntimeError("support exhausted: the projected density vanishes on the whole grid")
    grid = make_grid(ys[0], ys[1] - ys[0], values, meta={"kind": "p_proj", "n": ctx.n, "k": 1, "t": ctx.t})
    if abs(grid.mass - 1.0) > 1e-4:
        raise RuntimeError(f"projected density mass {grid.mass!r} off by more than 1e-4")
    return grid.normalized()


# ---------------------------------------------------------------------------
# divergences against the Gibbs product density


def _check_alpha(alpha: float) -> None:
    if not math.isfinite(alpha):
        raise ValueError(f"tilt alpha must be finite; got {alpha!r}")


def _log_ratio(ctx: ProjectionContext, ss, alpha: float = 0.0, log_norm: float = 0.0):
    """Log likelihood ratio of the projection tilted by ``exp(alpha s)``
    against g_k, as a function of the partial energy s:
    ``alpha s + log w_{n-k}(nt - s) - log w_n(nt) - log_norm``, at points
    ``ss`` off the ``w_k`` nodes (the edge model's quadrature nodes).
    Where ``w_{n-k}`` vanishes the surface density has no mass; there the
    log term reads 0 and the returned mask is False.
    """
    ss = np.asarray(ss, dtype=float)
    lr = ctx.log_wnk(ctx.n * ctx.t - ss) - ctx.log_wn_at_nt
    finite = np.isfinite(lr)
    return alpha * ss + np.where(finite, lr, 0.0) - log_norm, finite


def _exp_ratio(lr: np.ndarray, finite: np.ndarray) -> np.ndarray:
    """The likelihood ratio from its log, 0 where the surface density has no mass."""
    with np.errstate(over="ignore"):
        out = np.exp(lr)
    out[~finite] = 0.0
    return out


def _ratio(ctx: ProjectionContext, ss, alpha: float = 0.0, log_norm: float = 0.0) -> np.ndarray:
    """The likelihood ratio at points ``ss`` off the nodes."""
    return _exp_ratio(*_log_ratio(ctx, ss, alpha, log_norm))


@dataclass(frozen=True)
class _Tilt:
    """One tilt ``exp(alpha s)`` of a cell: the tilted, normalised ``r_k``
    grid, its log-normalizer, the surface-level divergence of the tilt, and
    :func:`_log_ratio` at the ``w_k`` nodes, ``alpha s + masked - log_norm``.
    A bounds row builds one and its kl and tv read it."""

    alpha: float
    rk: DensityGrid
    log_norm: float
    d_surface: float
    log_ratio: np.ndarray


def _tilt(ctx: ProjectionContext, alpha: float) -> _Tilt:
    """The tilt of ``ctx`` by ``exp(alpha s)``, after the context's ``r_k``
    defect check; at alpha = 0, ``r_k`` itself and the masked node pass
    (``0 s + masked - 0`` differs from it at most in the sign of a zero)."""
    _check_alpha(alpha)
    rk = ctx.rk
    masked = ctx.node_log_ratio[0]
    if alpha == 0.0:
        return _Tilt(alpha, rk, 0.0, 0.0, masked)
    if alpha * rk.x_end > 690.0:
        raise OverflowError(f"tilt normalizer overflows on the grid (alpha = {alpha})")
    # r_k and its tilts share the w_k nodes
    alpha_s = alpha * ctx.nodes
    norm = rk.integrate(lambda s: np.exp(alpha * s), np.exp(alpha_s))
    if not (math.isfinite(norm) and norm > 0.0):
        raise OverflowError("tilt normalizer is not finite on the grid")
    log_norm = math.log(norm)
    log_ratio = alpha_s + masked
    log_ratio -= log_norm
    alpha_s -= log_norm
    values = rk.values * np.exp(alpha_s)
    edge = None
    if rk.edge is not None:
        values[0], edge = rk.edge.scaled(-log_norm, alpha).node0()
    tilted = make_grid(rk.x0, rk.dx, values, edge=edge, meta={"kind": "rk_tilted", "alpha": alpha}).normalized()
    # tilt weight depends on projected coordinates only, so the divergence
    # from the uniform surface density reduces to the energy marginal
    d_surface = alpha * tilted.integrate(lambda s: s, ctx.nodes) - log_norm
    return _Tilt(alpha, tilted, log_norm, d_surface, log_ratio)


def _kl(ctx: ProjectionContext, tilt: _Tilt) -> float:
    kl = tilt.rk.integrate(lambda ss: _log_ratio(ctx, ss, tilt.alpha, tilt.log_norm)[0], tilt.log_ratio)
    if kl < -1e-8:
        raise RuntimeError(f"divergence clipped beyond tolerance: {kl:.3e}")
    return max(kl, 0.0)


def _tv(ctx: ProjectionContext, tilt: _Tilt) -> float:
    at_nodes = _exp_ratio(tilt.log_ratio, ctx.node_log_ratio[1])
    at_nodes -= 1.0
    np.abs(at_nodes, out=at_nodes)
    tv = ctx.wk.integrate(lambda ss: np.abs(_ratio(ctx, ss, tilt.alpha, tilt.log_norm) - 1.0), at_nodes)
    if not -1e-9 <= tv <= 2.0 + 1e-9:
        raise RuntimeError(f"total variation {tv!r} outside [0, 2]")
    return float(min(max(tv, 0.0), 2.0))


def kl_to_gibbs(ctx: ProjectionContext, alpha: float = 0.0) -> float:
    """``D(p || g_k) = \\int r(s) log(ratio(s)) ds`` for the projection p
    tilted by ``exp(alpha s)`` (the uniform surface density at alpha = 0),
    with r the tilted ``r_k`` and ratio as in :func:`_log_ratio`.

    Contributions where the ratio vanishes carry zero r mass and are
    dropped; a negative result beyond -1e-8 signals inconsistent grids.
    """
    return _kl(ctx, _tilt(ctx, alpha))


def tv_to_gibbs(ctx: ProjectionContext, alpha: float = 0.0) -> float:
    """``d_TV(p, g_k) = \\int w_k(s) |ratio(s) - 1| ds`` in the L1 convention
    (range [0, 2]) for the projection tilted by ``exp(alpha s)``; regions
    where the surface density has no support contribute their full w_k
    mass.  The normalizer comes from :func:`_tilt`, whose ``r_k`` defect
    check this distance shares with kl."""
    return _tv(ctx, _tilt(ctx, alpha))


# ---------------------------------------------------------------------------
# bound assembly


@dataclass(frozen=True)
class BoundReport:
    """One (n, k, t, alpha) verification row.

    ``kl_bound`` is the surface divergence plus ``log(n/(n-k)) +
    2/(sqrt(n)/C - 1)`` with the empirical constant C; ``df_bound`` is the
    dimension-free total-variation bound ``2(k+j)/(n-k-j)`` of the
    closed-form families (offset j from ``CLOSED_FORMS``).  ``pass_tv``
    checks against ``df_bound`` when present and against the Pinsker
    transform of ``kl_bound`` otherwise.
    """

    n: int
    k: int
    t: float
    c: float
    alpha: float
    kl: float
    tv: float
    kl_bound: float
    tv_from_kl: float
    df_bound: float | None
    c_used: float
    d_surface: float
    pass_kl: bool
    pass_tv: bool

    def __post_init__(self):
        if self.kl < 0.0:
            raise ValueError("divergence must be nonnegative")
        if not 0.0 <= self.tv <= 2.0:
            raise ValueError("total variation must lie in [0, 2]")
        if self.tv > self.tv_from_kl + 1e-8:
            raise ValueError(f"Pinsker relation violated: tv={self.tv!r} > sqrt(2 kl)={self.tv_from_kl!r}")


def _df_bound(spec: HamiltonianSpec, n: int, k: int) -> float | None:
    j = CLOSED_FORMS.get((spec.homogeneous_degree, spec.support))
    if j is not None and n - k - j > 0:
        return 2.0 * (k + j) / (n - k - j)
    return None


def bound_report(ctx: ProjectionContext, C: float, alpha: float = 0.0) -> BoundReport:
    if not (math.isfinite(C) and C > 0):
        raise ValueError(f"local-CLT constant C must be finite and > 0; got {C!r}")
    if math.sqrt(ctx.n) / C <= 1.0:
        raise ValueError("bound inapplicable: need sqrt(n)/C > 1")
    # the row's one tilt, read by its kl and tv, goes with the row
    tilt = _tilt(ctx, alpha)
    kl, tv = _kl(ctx, tilt), _tv(ctx, tilt)
    kl_bound = tilt.d_surface + math.log(ctx.n / (ctx.n - ctx.k)) + 2.0 / (math.sqrt(ctx.n) / C - 1.0)
    tv_from_kl = math.sqrt(2.0 * kl)
    # the dimension-free distance bounds cover the uniform surface density
    # only, so tilted rows fall back to the Pinsker transform of kl_bound
    df = _df_bound(ctx.model.spec, ctx.n, ctx.k) if alpha == 0.0 else None
    pass_tv = tv <= df if df is not None else tv <= math.sqrt(2.0 * kl_bound)
    return BoundReport(
        n=ctx.n,
        k=ctx.k,
        t=ctx.t,
        c=ctx.model.c,
        alpha=alpha,
        kl=kl,
        tv=tv,
        kl_bound=kl_bound,
        tv_from_kl=tv_from_kl,
        df_bound=df,
        c_used=C,
        d_surface=tilt.d_surface,
        pass_kl=kl <= kl_bound,
        pass_tv=bool(pass_tv),
    )


# ---------------------------------------------------------------------------
# converse lower bound


@dataclass(frozen=True)
class ConverseReport:
    n: int
    k: int
    eps: float
    lower_bound: float


def converse_lower_bound(ctx: ProjectionContext, eps: float) -> ConverseReport:
    """Certified lower bound ``2 \\int_L w_k (ratio - 1)^+`` on the interval
    ``L = (kt - eps sqrt(n-k), kt + eps sqrt(n-k))``, with the ratio's
    normalizer (and ``r_k`` defect check) from :func:`_tilt`."""
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"interval half-width eps must be finite and > 0; got {eps!r}")
    tilt = _tilt(ctx, 0.0)
    center = ctx.k * ctx.t
    half = eps * math.sqrt(ctx.n - ctx.k)
    lo, hi = center - half, center + half

    def gain(ss, ratio):
        return np.where((ss >= lo) & (ss <= hi), np.clip(ratio - 1.0, 0.0, None), 0.0)

    def fn(ss):
        return gain(np.asarray(ss, dtype=float), _ratio(ctx, ss, 0.0, tilt.log_norm))

    lower = 2.0 * ctx.wk.integrate(fn, gain(ctx.nodes, _exp_ratio(tilt.log_ratio, ctx.node_log_ratio[1])))
    return ConverseReport(n=ctx.n, k=ctx.k, eps=eps, lower_bound=lower)


# ---------------------------------------------------------------------------
# finite mixtures


@dataclass(frozen=True)
class MixtureReport:
    n: int
    k: int
    tv_sum: float
    bound: float
    per_term: tuple[float, ...]
    passed: bool


def mixture_bound_check(entries, n: int, k: int, params: GridParams | None = None) -> MixtureReport:
    """Triangle-inequality mixture distance ``sum_i w_i d_TV(p_i, g_i)``
    against ``sqrt(2k/(n-k))``; entries are (model, t, weight) triples with
    each model energy-matched to its t."""
    weights = np.asarray([w for (_, _, w) in entries], dtype=float)
    # written so that a nan or infinite weight fails too
    if not (np.all(weights >= 0) and abs(weights.sum() - 1.0) <= 1e-12):
        raise ValueError(f"weights must be finite, nonnegative and sum to 1; got {weights.tolist()!r}")
    terms = []
    for model, t, _ in entries:
        if abs(model.mu - t) > 1e-8 * max(t, 1.0):
            raise ValueError(f"model not energy-matched to t={t!r}")
        ctx = make_context(model, n, k, params)
        terms.append(tv_to_gibbs(ctx))
    tv_sum = float(np.dot(weights, terms))
    bound = math.sqrt(2.0 * k / (n - k))
    return MixtureReport(n=n, k=k, tv_sum=tv_sum, bound=bound, per_term=tuple(terms), passed=tv_sum <= bound)
