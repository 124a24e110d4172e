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
from functools import cached_property

import numpy as np

from .gibbs1d import GibbsModel, GridParams, clt_prerequisites
from .grids import DensityGrid, make_grid
from .hamiltonians import CLOSED_FORMS, SYMMETRIC, HamiltonianSpec, f_values, finv_values
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
    :func:`sumdensity.log_w`.  ``node_log_ratio`` is the one pass of the log
    likelihood ratio over the ``w_k`` nodes, which the ``r_k`` grid, its
    tilts and every divergence of the cell share.
    ``clt_ok`` records whether ``n - k`` reaches the scanned integrability
    order (the exact small cases deliberately run below it).
    """

    model: GibbsModel
    n: int
    k: int
    t: float
    params: GridParams
    wk: DensityGrid
    wnk: DensityGrid | None
    log_wn_at_nt: float
    r_used: int
    clt_ok: bool
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def log_wnk(self, s) -> np.ndarray:
        if self.wnk is None:
            return log_w(self.model, self.n - self.k, s, self.params)
        return self.wnk.log_at(s)

    @cached_property
    def node_log_ratio(self) -> tuple[np.ndarray, np.ndarray]:
        """``log w_{n-k}(nt - s) - log w_n(nt)`` at the ``w_k`` nodes s, and
        where it is finite; evaluated on first use."""
        lr = self.log_wnk(self.n * self.t - self.wk.points()) - self.log_wn_at_nt
        return lr, np.isfinite(lr)


def make_context(
    model: GibbsModel,
    n: int,
    k: int,
    params: GridParams | None = None,
    require_clt: bool = False,
) -> ProjectionContext:
    _check_count("n", n)
    _check_count("k", k)
    if not k < n:
        raise ValueError("need 1 <= k < n")
    params = params or GridParams()
    r_used = clt_prerequisites(model).r_used
    clt_ok = (n - k) >= r_used
    if require_clt and not clt_ok:
        raise ValueError(f"n-k = {n - k} below the scanned integrability order r = {r_used}")
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
        params=params,
        wk=wk,
        wnk=wnk,
        log_wn_at_nt=log_wn_at_nt,
        r_used=r_used,
        clt_ok=clt_ok,
    )


# ---------------------------------------------------------------------------
# conditional density of the partial energy


def rk_conditional_density(ctx: ProjectionContext) -> DensityGrid:
    """``r_k(s) = w_k(s) w_{n-k}(nt - s) / w_n(nt)`` on the w_k grid.

    An exact identity up to grid error; the normalization defect is
    recorded and must stay below 1e-4.
    """
    if "rk" in ctx._cache:
        return ctx._cache["rk"]
    nt = ctx.n * ctx.t
    log_ratio, finite = ctx.node_log_ratio
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.where(finite, ctx.wk.values * np.exp(log_ratio), 0.0)
    edge = None
    if ctx.wk.edge is not None:
        edge = ctx.wk.edge.scaled(float(ctx.log_wnk(np.asarray([nt]))[0]) - ctx.log_wn_at_nt)
        values[0] = 0.0
    grid = make_grid(ctx.wk.x0, ctx.wk.dx, values, edge=edge, meta={"kind": "rk", "n": ctx.n, "k": ctx.k})
    defect = abs(grid.mass - 1.0)
    if defect >= 1e-4:
        raise RuntimeError(f"r_k normalization defect {defect:.2e} >= 1e-4; grid inadequate")
    out = grid.normalized()
    ctx._cache["rk"] = out
    return out


def project_uniform_k1(ctx: ProjectionContext) -> DensityGrid:
    """Coordinate-space density of the first coordinate under the uniform
    surface density: ``g_1(y) * w_{n-1}(nt - f(y)) / w_n(nt)`` (k = 1)."""
    if ctx.k != 1:
        raise ValueError("explicit coordinate-space output is built for k = 1")
    model, spec = ctx.model, ctx.model.spec
    nt = ctx.n * ctx.t
    y_cap = float(finv_values(spec, np.asarray([min(nt, ctx.wk.x_end)]))[0])
    m = ctx.params.sum_size
    if spec.support == SYMMETRIC:
        ys = np.linspace(-y_cap, y_cap, m)
    else:
        ys = np.linspace(0.0, y_cap, m)
    fy = f_values(spec, ys)
    log_g1 = -model.c * fy - math.log(model.z)
    log_ratio = ctx.log_wnk(nt - fy) - ctx.log_wn_at_nt
    with np.errstate(invalid="ignore"):
        values = np.where(np.isfinite(log_ratio), np.exp(log_g1 + log_ratio), 0.0)
    if not np.any(values > 0):
        raise RuntimeError("support exhausted: the projected density vanishes on the whole grid")
    grid = make_grid(ys[0], ys[1] - ys[0], values, meta={"kind": "p_proj", "n": ctx.n, "k": 1, "t": ctx.t})
    if abs(grid.mass - 1.0) > 1e-4:
        raise RuntimeError(f"projected density mass {grid.mass!r} off by more than 1e-4")
    return grid.normalized()


# ---------------------------------------------------------------------------
# divergences against the Gibbs product density


def _log_ratio(ctx: ProjectionContext, ss, alpha: float = 0.0, log_norm: float = 0.0):
    """Log likelihood ratio of the projection tilted by ``exp(alpha s)``
    against g_k, as a function of the partial energy s:
    ``alpha s + log w_{n-k}(nt - s) - log w_n(nt) - log_norm``.

    ``ss=None`` means the ``w_k`` nodes and reads ``ctx.node_log_ratio``;
    other points (the edge model's quadrature nodes) are evaluated here.
    Where ``w_{n-k}`` vanishes the surface density has no mass; there the
    log term reads 0 and the returned mask is False.
    """
    if ss is None:
        ss = ctx.wk.points()
        lr, finite = ctx.node_log_ratio
    else:
        ss = np.asarray(ss, dtype=float)
        lr = ctx.log_wnk(ctx.n * ctx.t - ss) - ctx.log_wn_at_nt
        finite = np.isfinite(lr)
    return alpha * ss + np.where(finite, lr, 0.0) - log_norm, finite


def _integrate_ratio(grid: DensityGrid, fn) -> float:
    """``grid.integrate(fn)`` for an integrand of the log ratio on a grid
    that shares the ``w_k`` nodes: ``fn(None)`` gives its node values from
    the cached pass."""
    return grid.integrate(fn, fn(None))


def _ratio(ctx: ProjectionContext, ss, alpha: float = 0.0, log_norm: float = 0.0) -> np.ndarray:
    """The likelihood ratio itself, 0 where the surface density has no mass."""
    lr, finite = _log_ratio(ctx, ss, alpha, log_norm)
    with np.errstate(over="ignore"):
        return np.where(finite, np.exp(lr), 0.0)


def _tilted_rk(ctx: ProjectionContext, alpha: float) -> tuple[DensityGrid, float, float]:
    """Energy density under the tilt exp(alpha * s), its log-normalizer, and
    the surface-level divergence of the tilt; ``r_k`` itself at alpha = 0.
    Built once per context and alpha."""
    key = ("rk", alpha)
    if key in ctx._cache:
        return ctx._cache[key]
    rk = rk_conditional_density(ctx)
    if alpha == 0.0:
        ctx._cache[key] = out = (rk, 0.0, 0.0)
        return out
    if alpha * rk.x_end > 690.0:
        raise OverflowError(f"tilt normalizer overflows on the grid (alpha = {alpha})")
    norm = rk.integrate(lambda s: np.exp(alpha * s))
    if not (math.isfinite(norm) and norm > 0.0):
        raise OverflowError("tilt normalizer is not finite on the grid")
    log_norm = math.log(norm)
    values = rk.values * np.exp(alpha * rk.points() - log_norm)
    edge = None
    if rk.edge is not None:
        edge = rk.edge.scaled(-log_norm, alpha)
        values[0] = 0.0
    tilted = make_grid(rk.x0, rk.dx, values, edge=edge, meta={"kind": "rk_tilted", "alpha": alpha}).normalized()
    # tilt weight depends on projected coordinates only, so the divergence
    # from the uniform surface density reduces to the energy marginal
    d_surface = alpha * tilted.integrate(lambda s: s) - log_norm
    ctx._cache[key] = out = (tilted, log_norm, d_surface)
    return out


def kl_to_gibbs(ctx: ProjectionContext, alpha: float = 0.0) -> float:
    """``D(p || g_k) = \\int r(s) log(ratio(s)) ds`` for the projection p
    tilted by ``exp(alpha s)`` (the uniform surface density at alpha = 0),
    with r the tilted ``r_k`` and ratio as in :func:`_log_ratio`.

    Contributions where the ratio vanishes carry zero r mass and are
    dropped; a negative result beyond -1e-8 signals inconsistent grids.
    """
    tilted, log_norm, _ = _tilted_rk(ctx, alpha)
    kl = _integrate_ratio(tilted, lambda ss: _log_ratio(ctx, ss, alpha, log_norm)[0])
    if kl < -1e-8:
        raise RuntimeError(f"divergence clipped beyond tolerance: {kl:.3e}")
    return max(kl, 0.0)


def tv_to_gibbs(ctx: ProjectionContext, alpha: float = 0.0) -> float:
    """``d_TV(p, g_k) = \\int w_k(s) |ratio(s) - 1| ds`` in the L1 convention
    (range [0, 2]) for the projection tilted by ``exp(alpha s)``; regions
    where the surface density has no support contribute their full w_k
    mass.  The untilted distance needs no ``r_k`` grid."""
    log_norm = 0.0 if alpha == 0.0 else _tilted_rk(ctx, alpha)[1]
    tv = _integrate_ratio(ctx.wk, lambda ss: np.abs(_ratio(ctx, ss, alpha, log_norm) - 1.0))
    if not -1e-9 <= tv <= 2.0 + 1e-9:
        raise RuntimeError(f"total variation {tv!r} outside [0, 2]")
    return float(min(max(tv, 0.0), 2.0))


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
    if not math.isfinite(alpha):
        raise ValueError(f"tilt alpha must be finite; got {alpha!r}")
    d_surface = _tilted_rk(ctx, alpha)[2]
    kl, tv = kl_to_gibbs(ctx, alpha), tv_to_gibbs(ctx, alpha)
    kl_bound = d_surface + math.log(ctx.n / (ctx.n - ctx.k)) + 2.0 / (math.sqrt(ctx.n) / C - 1.0)
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
        d_surface=d_surface,
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
    ``L = (kt - eps sqrt(n-k), kt + eps sqrt(n-k))``."""
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"interval half-width eps must be finite and > 0; got {eps!r}")
    center = ctx.k * ctx.t
    half = eps * math.sqrt(ctx.n - ctx.k)
    lo, hi = center - half, center + half

    def fn(ss):
        gain = np.clip(_ratio(ctx, ss) - 1.0, 0.0, None)
        ss = ctx.wk.points() if ss is None else np.asarray(ss, dtype=float)
        return np.where((ss >= lo) & (ss <= hi), gain, 0.0)

    lower = 2.0 * _integrate_ratio(ctx.wk, fn)
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
