"""Projected densities of surface-distributed points and their divergences.

A point distributed on the constant-energy surface, projected to its first
k coordinates, has density ``g_k(y) * w_{n-k}(nt - R_k(y)) / w_n(nt)``;
the likelihood ratio against the Gibbs product density depends on y only
through ``R_k(y)``.  All divergences and distances are therefore computed
through one-dimensional integrals against ``w_k`` or against ``r_k``, the
conditional density of the partial energy given the total -- an identity,
not an approximation, which keeps k-dimensional quadrature out of the
picture entirely.  Every such integral is one ``DensityGrid.integrate``
sweep over the ``w_k`` nodes: ``r_k`` and its tilts are grids on those
nodes, built from the context's read-only arrays with no ``make_grid``
pass.

The total variation convention is the full L1 distance ``\\int |p - q|``
with range [0, 2].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gibbs1d import GibbsModel, GridParams
from .grids import DensityGrid, EdgeModel, _integrate, make_grid
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
    """Everything an (n, k) cell's divergences read, built once by
    :func:`make_context` and read-only.

    ``wk`` is the memoised ``w_k`` grid.  ``wnk`` is the ``w_{n-k}`` grid of
    an FFT family, owned by the context (memoised only when some other use
    put it there); it is None for closed-form families, whose ``log
    w_{n-k}`` is exact.  ``nodes`` are the ``w_k`` abscissae s,
    ``node_log_ratio`` is ``log w_{n-k}(nt - s) - log w_n(nt)`` there, 0
    where it is not finite, with the mask of where it is, and
    ``_node_ratio`` its exponential, 0 off the mask.  ``rk`` is the grid of
    ``r_k(s) = w_k(s) w_{n-k}(nt - s) / w_n(nt)``: ``w_k`` times the
    ratio, the edge model of ``w_k`` scaled by the ratio at s = 0, and its
    raw mass M, whose defect :func:`_checked_rk` checks where it is read.
    """

    model: GibbsModel
    n: int
    k: int
    t: float
    wk: DensityGrid
    wnk: DensityGrid | None
    log_wn_at_nt: float
    nodes: np.ndarray
    node_log_ratio: tuple[np.ndarray, np.ndarray]
    _node_ratio: np.ndarray
    rk: DensityGrid

    def log_wnk(self, s) -> np.ndarray:
        return _log_wnk(self.model, self.n - self.k, self.wnk, s)


def _log_wnk(model: GibbsModel, m: int, wnk: DensityGrid | None, s) -> np.ndarray:
    """``log w_m(s)``: from the cell's own grid ``wnk``, or exact when the
    family has a closed form (``wnk`` None)."""
    return log_w(model, m, s) if wnk is None else wnk.log_at(s)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _node_grid(wk: DensityGrid, values: np.ndarray, edge: EdgeModel | None, meta: dict | None = None) -> DensityGrid:
    """A read-only density on the nodes of ``wk`` with its mass, no ``make_grid`` pass."""
    mass = _integrate(wk.dx, wk.x0, values, edge, None)
    return DensityGrid(wk.x0, wk.dx, _read_only(values), mass, edge=edge, meta=meta)


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
    nt = n * model.mu
    log_wn_at_nt = float(log_w(model, n, np.asarray([nt]), params)[0])
    if not math.isfinite(log_wn_at_nt):
        raise ValueError("w_n vanishes at the surface level nt; context is degenerate")
    # the one node pass of the cell
    nodes = _read_only(wk.points())
    lr = _log_wnk(model, n - k, wnk, nt - nodes)
    lr -= log_wn_at_nt
    finite = np.isfinite(lr)
    lr[~finite] = 0.0
    ratio = _read_only(_exp_ratio(lr, finite))
    with np.errstate(invalid="ignore"):
        values = wk.values * ratio
    edge = None
    if wk.edge is not None:
        lr0 = float(_log_wnk(model, n - k, wnk, np.asarray([nt]))[0]) - log_wn_at_nt
        values[0], edge = wk.edge.scaled(lr0).node0()
    node_log_ratio = (_read_only(lr), _read_only(finite))
    rk = _node_grid(wk, values, edge, {"kind": "rk", "n": n, "k": k, "l1_clip": 0.0})
    return ProjectionContext(model, n, k, model.mu, wk, wnk, log_wn_at_nt, nodes, node_log_ratio, ratio, rk)


# ---------------------------------------------------------------------------
# conditional density of the partial energy


def _checked_rk(ctx: ProjectionContext) -> DensityGrid:
    """``ctx.rk``, refused when its normalization defect ``|M - 1|`` is 1e-4
    or more: ``r_k`` is an exact identity up to grid error, so a larger
    defect means the grid is inadequate."""
    defect = abs(ctx.rk.mass - 1.0)
    # written so that a nan or infinite mass fails too
    if not defect < 1e-4:
        raise RuntimeError(f"r_k normalization defect {defect:.2e} >= 1e-4; grid inadequate")
    return ctx.rk


def rk_conditional_density(ctx: ProjectionContext) -> DensityGrid:
    """``r_k(s) = w_k(s) w_{n-k}(nt - s) / w_n(nt)`` on the w_k grid,
    normalised: a copy of ``ctx.rk`` after its defect check, which records
    the defect in ``meta["norm_defect"]``."""
    return _checked_rk(ctx).normalized()


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


def _ratio(ctx: ProjectionContext, ss, alpha: float = 0.0, norm: float = 1.0) -> np.ndarray:
    """The likelihood ratio of the projection tilted by ``exp(alpha s)`` at
    points ``ss`` off the nodes, in the operation order of the tilt's node
    ratio: ``ratio(s) e^{alpha s} / norm``."""
    out = _exp_ratio(*_log_ratio(ctx, ss))
    if alpha != 0.0:
        out *= np.exp(alpha * np.asarray(ss, dtype=float))
        out /= norm
    return out


@dataclass(frozen=True)
class _Tilt:
    """One tilt ``exp(alpha s)`` of a cell: the tilted ``r_k`` grid on the
    ``w_k`` nodes (``r_k`` times the tilt, its edge model's rate shifted by
    alpha, its mass Z), the normalizer ``norm = Z / M`` and its log, the
    surface-level divergence of the tilt, and at the nodes
    :func:`_log_ratio`, ``alpha s + masked - log_norm``, and :func:`_ratio`,
    ``ratio e^{alpha s} / norm``.  A bounds row builds one and its kl and
    tv read it."""

    alpha: float
    rk: DensityGrid
    norm: float
    log_norm: float
    d_surface: float
    log_ratio: np.ndarray
    ratio: np.ndarray


def _tilt(ctx: ProjectionContext, alpha: float) -> _Tilt:
    """The tilt of ``ctx`` by ``exp(alpha s)``, after the context's ``r_k``
    defect check: one exponential at the nodes, and the normalizer and
    ``d_surface`` as integrals of ``r_k`` weighted by it.  At alpha = 0,
    ``r_k`` itself and the context's node arrays (``0 s + masked - 0``
    differs from the masked pass at most in the sign of a zero)."""
    _check_alpha(alpha)
    rk = _checked_rk(ctx)
    masked = ctx.node_log_ratio[0]
    if alpha == 0.0:
        return _Tilt(alpha, rk, 1.0, 0.0, 0.0, masked, ctx._node_ratio)
    if alpha * ctx.wk.x_end > 690.0:
        raise OverflowError(f"tilt normalizer overflows on the grid (alpha = {alpha})")
    log_ratio = alpha * ctx.nodes
    weight = np.exp(log_ratio)
    edge = None if rk.edge is None else rk.edge.scaled(0.0, alpha)
    tilted = _node_grid(ctx.wk, rk.values * weight, edge)
    norm = tilted.mass / rk.mass
    if not (math.isfinite(norm) and norm > 0.0):
        raise OverflowError("tilt normalizer is not finite on the grid")
    log_norm = math.log(norm)
    log_ratio += masked
    log_ratio -= log_norm
    weight *= ctx._node_ratio
    weight /= norm
    # tilt weight depends on projected coordinates only, so the divergence
    # from the uniform surface density reduces to the energy marginal
    d_surface = alpha * (tilted.integrate(lambda s: s, ctx.nodes) / tilted.mass) - log_norm
    return _Tilt(alpha, tilted, norm, log_norm, d_surface, _read_only(log_ratio), _read_only(weight))


def _kl(ctx: ProjectionContext, tilt: _Tilt) -> float:
    lr = tilt.rk.integrate(lambda ss: _log_ratio(ctx, ss, tilt.alpha, tilt.log_norm)[0], tilt.log_ratio)
    kl = lr / tilt.rk.mass
    if kl < -1e-8:
        raise RuntimeError(f"divergence clipped beyond tolerance: {kl:.3e}")
    return max(kl, 0.0)


def _tv(ctx: ProjectionContext, tilt: _Tilt) -> float:
    at_nodes = tilt.ratio - 1.0
    np.abs(at_nodes, out=at_nodes)
    tv = ctx.wk.integrate(lambda ss: np.abs(_ratio(ctx, ss, tilt.alpha, tilt.norm) - 1.0), at_nodes)
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
    ``L = (kt - eps sqrt(n-k), kt + eps sqrt(n-k))``, with the node ratio
    (and the ``r_k`` defect check) of the untilted :func:`_tilt`."""
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"interval half-width eps must be finite and > 0; got {eps!r}")
    ratio = _tilt(ctx, 0.0).ratio
    center = ctx.k * ctx.t
    half = eps * math.sqrt(ctx.n - ctx.k)
    lo, hi = center - half, center + half

    def gain(ss, ratio):
        return np.where((ss >= lo) & (ss <= hi), np.clip(ratio - 1.0, 0.0, None), 0.0)

    def fn(ss):
        return gain(np.asarray(ss, dtype=float), _ratio(ctx, ss))

    lower = 2.0 * ctx.wk.integrate(fn, gain(ctx.nodes, ratio))
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
