"""One-dimensional Gibbs models for an energy function f.

For inverse temperature ``c > 0`` the single-site density is
``exp(-c f(x)) / Z_c`` on the finiteness set of f.  This module computes
the normalizer, the moments of the energy ``Y = f(X)``, the inverse
temperature matching a prescribed mean energy, the density of Y (with its
power-law edge handled analytically), its characteristic function, and the
entropy/energy functionals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grids import _GL_NODES, _GL_WEIGHTS, DensityGrid, EdgeModel, make_grid
from .hamiltonians import (
    SYMMETRIC,
    HamiltonianSpec,
    _memo,
    _newton,
    f_values,
    finv_values,
    fprime_values,
)

__all__ = [
    "GibbsModel",
    "GridParams",
    "CltPrereqs",
    "partition_function",
    "moments",
    "model_at",
    "solve_energy",
    "log_y_density",
    "y_density",
    "characteristic_function",
    "clt_prerequisites",
    "entropy_energy",
]

# a quadrature panel is accepted when its 24-point Gauss-Legendre value and
# the sum of its halves' agree to this fraction of the integral; the rule
# gives up after this many passes or with this many panels still open
_QUAD_RTOL = 1e-14
_QUAD_PASSES = 60
_QUAD_MAX_PANELS = 4096
# relative Newton correction of c at which the energy matching stops
# (brentq's default rtol)
_MATCH_CTOL = 8.9e-16
_Y_GRID_SIZE = 2**18
# relative miss of the mean energy that solve_energy treats as failure
_MATCH_RTOL = 1e-10


@dataclass(frozen=True)
class GridParams:
    """Sizing of the sum-density grids: ``sum_size`` nodes reaching at
    least ``sd_extent`` standard deviations of R_n past its mean."""

    sum_size: int = 2**17
    sd_extent: float = 12.0

    def __post_init__(self):
        if not isinstance(self.sum_size, (int, np.integer)) or self.sum_size < 2:
            raise ValueError(f"sum_size must be an integer >= 2; got {self.sum_size!r}")
        if not (math.isfinite(self.sd_extent) and self.sd_extent > 0):
            raise ValueError(f"sd_extent must be finite and > 0; got {self.sd_extent!r}")


@dataclass(frozen=True)
class GibbsModel:
    """Solved single-site model: normalizer and energy moments at fixed c,
    and the quadrature cutoff ``x_max`` they were integrated to.  Values
    derived from it are built once, through ``hamiltonians._memo`` on
    ``_cache``."""

    spec: HamiltonianSpec
    c: float
    z: float
    mu: float
    sigma2: float
    m3: float
    x_max: float
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if not (self.z > 0 and self.sigma2 > 0 and math.isfinite(self.m3)):
            raise ValueError("degenerate model: need Z > 0, Var Y > 0, finite third moment")


def _truncation(spec: HamiltonianSpec, c: float) -> float:
    """Cutoff with ``exp(-c f(x)/2) / ((c/2) f'(x))`` below 1e-16 beyond it:
    x = 1 doubled until the bound holds or, when it holds at 1, halved
    while it still holds at x/2, so that a weight narrower than 1 keeps the
    rule's nodes on it.  It halves at most 80 times and gives up past 2^79.

    The half rate keeps the same cutoff valid for the energy-weighted
    integrands used by the moments.
    """

    def tail(x: float) -> float:
        fx = float(f_values(spec, np.array([x]))[0])
        fp = float(fprime_values(spec, np.array([x]))[0])
        return math.exp(-0.5 * c * fx) / (0.5 * c * fp) if 0.5 * c * fx < 700 else 0.0

    x = 1.0
    if tail(x) < 1e-16:
        for _ in range(80):
            if not tail(0.5 * x) < 1e-16:
                break
            x *= 0.5
        return x
    for _ in range(79):
        x *= 2.0
        if tail(x) < 1e-16:
            return x
    raise RuntimeError(f"tail bound at c={c!r} did not drop below 1e-16 by x = 2^79")


def _halfline_integrals(spec: HamiltonianSpec, c: float, weights, x_max: float, breaks=()) -> np.ndarray:
    """``\\int_0^{x_max} w(f(x)) exp(-c f(x)) dx`` for each row w of
    ``weights(f)``, by adaptive 24-point Gauss-Legendre on panels first cut
    at ``breaks``.

    Each pass evaluates f once, on the nodes of every open panel and of its
    two halves.  A panel is accepted when, in every row, its value and the
    sum of its halves' agree to ``_QUAD_RTOL`` times the running integral
    (the accepted panels plus the halves of the open ones); the halves' sum
    is kept.  Every rejected panel is bisected for the next pass.
    """
    edges = np.unique([0.0, *(b for b in breaks if 0.0 < b < x_max), x_max])
    lo, hi = edges[:-1], edges[1:]
    total = 0.0
    for _ in range(_QUAD_PASSES):
        if lo.size > _QUAD_MAX_PANELS:
            break
        mid = 0.5 * (lo + hi)
        left = np.concatenate((lo, lo, mid))
        half = 0.5 * (np.concatenate((hi, mid, hi)) - left)
        x = (left + half)[:, None] + half[:, None] * _GL_NODES
        fx = spec.fn(x.ravel()).reshape(x.shape)
        e = np.exp(-c * fx)
        # rows x (whole, left half, right half) panel values
        est = np.stack([w * e for w in weights(fx)]) @ _GL_WEIGHTS * half
        whole, first, second = np.split(est, 3, axis=1)
        fine = first + second
        running = total + np.sum(fine, axis=1)
        ok = np.all(np.abs(whole - fine) <= _QUAD_RTOL * np.abs(running)[:, None], axis=0)
        total = total + np.sum(fine[:, ok], axis=1)
        lo, hi = np.concatenate((lo[~ok], mid[~ok])), np.concatenate((mid[~ok], hi[~ok]))
        if not lo.size:
            return total
    raise RuntimeError(
        f"adaptive quadrature did not converge: {lo.size} panels open after {_QUAD_PASSES} passes or "
        f"{_QUAD_MAX_PANELS} panels"
    )


def _quadpack_first_moment(spec: HamiltonianSpec, c: float, x_max: float) -> float:
    """``\\int_0^{x_max} f exp(-c f) dx`` by QUADPACK's ``dqagse``
    (:mod:`thinshell._quadpack`, bit-equal to scipy's ``quad``), with a
    scalar integrand, epsabs 1e-12, epsrel 1e-10 and 200 subintervals.  A
    nonzero QUADPACK return code raises RuntimeError.

    Only the closed-form families use it, for their mean energy.  The
    reference CSVs of their bounds sweeps (``bench/reference``) were written
    with this mean, and the kl of a large-n cell follows the mean's last bit:
    for ``linear_half`` at t = 1, kl at (n, k) = (1600, 1) moves by 1.2e-6
    relative when the mean moves by one ulp (the Gamma log-density there
    sums terms of size 1e4), past those references' 1e-6 gate.  The rule's
    mean (or the exact ``1/(d c)``) replaces it once the references are
    recorded again."""
    # imported here, so that runs of the other families and the bare CLI
    # import do not compile the port (2.3 ms without cached bytecode)
    from ._quadpack import dqagse

    def integrand(x):
        fx = spec.fn(np.asarray([x]))[0]
        return fx * math.exp(-c * fx) if c * fx < 700 else 0.0

    value, abserr, ier = dqagse(integrand, 0.0, x_max, 1e-12, 1e-10, 200)
    if ier != 0:
        raise RuntimeError(f"QUADPACK returned ier={ier} for the mean energy: {value!r} +- {abserr!r}")
    return value


def _check_resolved(c: float, x_max: float, z: float, mu: float) -> None:
    """Refuse a weight ``exp(-c f)`` whose mass or mean the quadrature on
    ``[0, x_max]`` cannot resolve (it sits between the nodes, or beyond)."""
    if not (0.0 < z < math.inf and 0.0 < mu < math.inf):
        raise ValueError(f"the Gibbs weight at c={c!r} is not resolved on [0, {x_max!r}]: Z={z!r}, mean={mu!r}")


def partition_function(spec: HamiltonianSpec, c: float) -> float:
    """``Z_c = \\int exp(-c f) dx`` over the finiteness set, as
    :func:`model_at` computes it and with its refusals: the first pass of
    :func:`_model_values` alone, with no kink and no central moments."""
    return _model_values(spec, c, central=False)[1]


def _model_values(
    spec: HamiltonianSpec, c: float, central: bool = True
) -> tuple[float, float, float, float, float]:
    """Cutoff, Z, and the mean, variance and absolute third central moment
    of ``Y = f(X)`` at c (the last two nan unless ``central``).  Closed-form
    families of degree d have ``Z = s Gamma(1 + 1/d) c^(-1/d)``, with s = 2
    on symmetric support."""
    if not (math.isfinite(c) and c > 0):
        raise ValueError(f"inverse temperature must be finite and positive; got {c!r}")
    factor = 2.0 if spec.support == SYMMETRIC else 1.0
    x_max = _truncation(spec, c)
    if spec.closed_form:
        d = spec.homogeneous_degree
        z = factor * math.gamma(1.0 + 1.0 / d) / c ** (1.0 / d)
        mu = factor * _quadpack_first_moment(spec, c, x_max) / z
    else:
        mass, first = _halfline_integrals(spec, c, lambda f: (np.ones_like(f), f), x_max)
        z = factor * float(mass)
        mu = factor * float(first) / z if z > 0 else math.nan
    _check_resolved(c, x_max, z, mu)
    if not central:
        return x_max, z, mu, math.nan, math.nan
    # the |f - mu| kink sits at f^{-1}(mu)
    kink = float(finv_values(spec, np.asarray([mu]))[0])
    second, third = _halfline_integrals(
        spec, c, lambda f: ((f - mu) ** 2, np.abs(f - mu) ** 3), x_max, breaks=(kink,)
    )
    return x_max, z, mu, factor * float(second) / z, factor * float(third) / z


def moments(spec: HamiltonianSpec, c: float) -> tuple[float, float, float]:
    """Mean, variance and absolute third central moment of ``Y = f(X)``."""
    return _model_values(spec, c)[2:]


def model_at(spec: HamiltonianSpec, c: float) -> GibbsModel:
    x_max, z, mu, sigma2, m3 = _model_values(spec, c)
    return GibbsModel(spec=spec, c=c, z=z, mu=mu, sigma2=sigma2, m3=m3, x_max=x_max)


def _match_energy(spec: HamiltonianSpec, t: float) -> float:
    """c with mean energy t: :func:`hamiltonians._newton` from c = 1/t on
    ``g(c) = c (t - mu(c))``, whose sign is that of ``c - c_t`` (``mu``
    decreases strictly) and whose slope is ``t - mu + c Var Y``, since
    ``dmu/dc = -Var Y``; one quadrature pass gives Z, mu and Var.  A pure
    power law of degree d has ``c_t = 1/(d t)``, so the start is within a
    factor d of the root and ``mu`` is comparable to t there: ``t - mu``
    keeps its bits at every scale of t."""

    def residual(cs, _live):
        c = float(cs[0])
        x_max = _truncation(spec, c)
        mass, first, second = _halfline_integrals(spec, c, lambda f: (np.ones_like(f), f, f * f), x_max)
        mu = float(first / mass) if mass > 0 else math.nan
        _check_resolved(c, x_max, float(mass), mu)
        var = float(second / mass) - mu * mu
        return np.array([c * (t - mu)]), np.array([t - mu + c * var])

    return float(_newton(residual, [1.0 / t], math.inf, _MATCH_CTOL, "energy matching")[0])


def solve_energy(spec: HamiltonianSpec, t: float) -> GibbsModel:
    """Unique c with mean energy t.  A homogeneous f of degree d has
    ``E f(X) = 1/(d c)``, so ``c = 1/(d t)``; other families go through
    :func:`_match_energy`.  A t whose model cannot be built (its weight
    unresolved by the quadrature, or its tail unbounded), or whose model
    misses t by more than ``_MATCH_RTOL``, is refused with a ValueError
    that names t."""
    if not math.isfinite(t):
        raise ValueError(f"target energy must be finite; got {t!r}")
    if t <= 0:
        raise ValueError("target energy must be positive")
    d = spec.homogeneous_degree
    try:
        c = 1.0 / (d * t) if d is not None else _match_energy(spec, t)
        model = model_at(spec, c)
        if abs(model.mu - t) > _MATCH_RTOL * t:
            raise RuntimeError(f"energy matching missed the target: mu={model.mu!r} vs t={t!r}")
    except (ValueError, RuntimeError) as exc:
        raise ValueError(f"no Gibbs model has mean energy t={t!r}: {exc}") from exc
    return model


# ---------------------------------------------------------------------------
# density of Y = f(X)


def log_y_density(model: GibbsModel, y) -> np.ndarray:
    """Log-density of Y on y > 0: ``-c y - log Z - log f'(f^{-1}(y))``
    (doubled for symmetric support: two preimages)."""
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0.0):
        raise ValueError("log_y_density handles y > 0 only")
    spec = model.spec
    x = finv_values(spec, y)
    out = -model.c * y - math.log(model.z) - np.log(fprime_values(spec, x))
    if spec.support == SYMMETRIC:
        out = out + math.log(2.0)
    return out


def _edge_model(model: GibbsModel) -> EdgeModel:
    """The model's edge model (:func:`_fit_edge_model`), fitted once."""
    return _memo(model._cache, "edge_model", lambda: _fit_edge_model(model))


def _fit_edge_model(model: GibbsModel) -> EdgeModel:
    """Two-term origin model for the energy density: the leading power law
    ``log g(y) ~ log_k + beta log y - c y``, fitted from the density itself
    at two tiny ordinates, plus the next-order power fitted from the
    residual.  A homogeneous f has g exactly ``K y^beta exp(-cy)``, so its
    model is the lead term alone."""
    ya, yb = 1e-9, 5e-10
    la = float(log_y_density(model, np.asarray([ya]))[0]) + model.c * ya
    lb = float(log_y_density(model, np.asarray([yb]))[0]) + model.c * yb
    beta = (la - lb) / (math.log(ya) - math.log(yb))
    if abs(beta) < 1e-12:
        beta = 0.0
    log_k = la - beta * math.log(ya)
    lead = EdgeModel(beta, log_k, model.c)
    if model.spec.homogeneous_degree is not None:
        return lead
    ya, yb = np.asarray([1e-5]), np.asarray([5e-6])
    ra = float(np.exp(log_y_density(model, ya))[0] - lead.density(ya)[0])
    rb = float(np.exp(log_y_density(model, yb))[0] - lead.density(yb)[0])
    out = lead
    # residual indistinguishable from noise -> single-term model
    if min(abs(ra), abs(rb)) > 1e-10 * lead.density(ya)[0] and ra * rb > 0:
        beta2 = math.log(abs(ra) / abs(rb)) / math.log(ya[0] / yb[0])
        if beta > beta2 - 1.5 and beta2 > beta:
            coef2 = ra / float(ya[0] ** beta2 * math.exp(-model.c * ya[0]))
            out = EdgeModel(beta, log_k, model.c, beta2=beta2, coef2=coef2)
    return out


def _y_max(model: GibbsModel) -> float:
    y = model.mu + 12.0 * math.sqrt(model.sigma2)
    for _ in range(200):
        tail = math.exp(float(log_y_density(model, np.asarray([y]))[0])) / model.c
        if tail < 1e-13:
            return y
        y *= 1.3
    raise RuntimeError("could not find a grid cutoff with negligible tail mass")


def y_density(model: GibbsModel) -> DensityGrid:
    """Density grid of Y on [0, y_max] with unit mass (raw mass within 1e-6
    of 1 is enforced before normalizing)."""
    return _cached_remainder(model)[0]


def _y_step(model: GibbsModel) -> float:
    """Node spacing of the y-grid of :func:`y_density`, found once and
    without building the grid; it spans ``_y_step * (_Y_GRID_SIZE - 1)``."""
    return _memo(model._cache, "dy", lambda: _y_max(model) / (_Y_GRID_SIZE - 1))


def _y_grid(model: GibbsModel) -> tuple[DensityGrid, np.ndarray]:
    """The y-grid of :func:`y_density` and the density minus the edge model
    on its positive nodes; node 0 and the kept model from ``EdgeModel.node0``
    (0 for an energy density that vanishes at 0)."""
    n = _Y_GRID_SIZE
    dy = _y_step(model)
    ys = dy * np.arange(1, n)
    values = np.empty(n)
    values[1:] = np.exp(log_y_density(model, ys))
    values[0], edge = _edge_model(model).node0()
    grid = make_grid(0.0, dy, values, edge=edge, meta={"kind": "y_density", "c": model.c})
    if abs(grid.mass - 1.0) > 1e-6:
        raise RuntimeError(f"y-density mass off by {grid.mass - 1.0:.3e} (> 1e-6)")
    out = grid.normalized()
    # the raw density on the positive nodes: values[1:] is never rescaled
    return out, values[1:] - _edge_model(model).density(out.points()[1:])


# ---------------------------------------------------------------------------
# characteristic function


def _log_c_minus_iu(c: float, u: np.ndarray) -> np.ndarray:
    """Principal ``log(c - iu)`` from real arithmetic: modulus and angle."""
    return 0.5 * np.log(c * c + u * u) - 1j * np.arctan2(u, c)


def _conjugate_base(c: float, m: int, dx: float) -> tuple[np.ndarray, np.ndarray]:
    """The nonnegative angular frequencies conjugate to an m-point,
    dx-spaced grid on [0, (m-1) dx], and ``log(c - iu)`` there."""
    us = 2.0 * math.pi * np.fft.rfftfreq(m, d=dx)
    return us, _log_c_minus_iu(c, us)


def _conjugate_phi(model: GibbsModel, m: int, dx: float, rem: np.ndarray | None):
    """The frequencies and ``log(c - iu)`` of :func:`_conjugate_base`, and
    phi there.

    ``rem`` holds the density minus the edge model on nodes 1..m-1, or is
    None for a homogeneous f (:func:`_y_remainder`).  Its trapezoid
    transform (half weight on the right endpoint; the left one is 0) comes
    from one rFFT, which covers the whole resolvable band.
    """
    us, base = _conjugate_base(model.c, m, dx)
    phi = _edge_model(model).transform(base)
    if rem is not None:
        spectrum = np.fft.rfft(np.concatenate(([0.0], rem)))
        np.conjugate(spectrum, out=spectrum)
        spectrum *= dx
        phi += spectrum
        phi -= 0.5 * dx * rem[-1] * np.exp(1j * us * (dx * (m - 1)))
    return us, base, phi


def _grid_remainder(model: GibbsModel, ys: np.ndarray) -> np.ndarray:
    """Density minus the edge model on positive grid nodes (zero for specs
    whose density is exactly the model)."""
    return np.exp(log_y_density(model, ys)) - _edge_model(model).density(ys)


def _cached_remainder(model: GibbsModel) -> tuple[DensityGrid, np.ndarray]:
    """The y-grid and the remainder on its positive nodes (:func:`_y_grid`),
    built once per model for every transform of it."""
    return _memo(model._cache, "ygrid", lambda: _y_grid(model))


def _y_remainder(model: GibbsModel) -> np.ndarray | None:
    """The remainder on the y-grid's positive nodes, or None, with no y-grid
    built, for a homogeneous f (``w_fft`` decides on the same rule): its
    energy density is exactly its single-term edge model ``K y^beta exp(-cy)``."""
    if model.spec.homogeneous_degree is not None:
        return None
    return _cached_remainder(model)[1]


def characteristic_function(model: GibbsModel, u):
    """``E exp(iuY)`` evaluated as the analytic edge-model transform plus a
    trapezoid transform of the grid remainder.  Frequencies beyond the
    grid's usable band raise rather than silently truncating."""
    scalar = np.isscalar(u)
    u_arr = np.atleast_1d(np.asarray(u, dtype=float))
    dy, rem = _y_step(model), _y_remainder(model)
    u_lim = 0.95 * math.pi / dy
    if np.any(np.abs(u_arr) > u_lim):
        raise ValueError(f"|u| beyond the resolvable band ({u_lim:.3g}) for this grid")
    out = _edge_model(model).transform(_log_c_minus_iu(model.c, u_arr))
    if rem is not None:
        ys = dy * np.arange(1, _Y_GRID_SIZE)
        # trapezoid: interior nodes full weight, endpoints half (the left
        # endpoint of the remainder is 0 by construction); the real and
        # imaginary parts are two real sums
        weighted = rem * dy
        weighted[-1] *= 0.5
        for start in range(0, len(u_arr), 16):
            phase = u_arr[start : start + 16, None] * ys
            sine = np.sin(phase)
            out[start : start + 16] += np.cos(phase, out=phase) @ weighted + 1j * (sine @ weighted)
    return complex(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# local-CLT prerequisites


@dataclass(frozen=True)
class CltPrereqs:
    """Smallest integrability order for |phi|^r, its integral, and the
    off-origin sup of |phi|."""

    r_used: int
    i_value: float
    nu: float
    nu_threshold: float
    u_max: float
    phi_tail: float
    tail_exponent: float


def clt_prerequisites(model: GibbsModel) -> CltPrereqs:
    """The model's :class:`CltPrereqs` (:func:`_scan_prerequisites`),
    scanned once."""
    return _memo(model._cache, "prereqs", lambda: _scan_prerequisites(model))


def _scan_prerequisites(model: GibbsModel) -> CltPrereqs:
    """Scan phi on the y-grid's conjugate nonnegative frequencies, the whole
    resolvable band, for the integrability order and the sup of |phi|."""
    us, _, phi = _conjugate_phi(model, _Y_GRID_SIZE, _y_step(model), _y_remainder(model))
    us, phi_abs = us[: -len(us) // 20], np.abs(phi[: -len(us) // 20])

    # decay exponent of |phi| over the last decade
    dec = us >= us[-1] / 10.0
    gamma = -np.polyfit(np.log(us[dec]), np.log(np.maximum(phi_abs[dec], 1e-300)), 1)[0]

    # the smallest r with gamma * r > 1.05: a tail u^(-gamma r) that is
    # integrable, and not too close to call
    if not gamma > 0.0:
        raise RuntimeError(f"|phi| does not decay (fitted exponent {float(gamma)!r}); hypotheses fail")
    r_used = math.floor(1.05 / gamma) + 1
    window = np.trapezoid(phi_abs**r_used, us)
    tail = phi_abs[-1] ** r_used * us[-1] / (gamma * r_used - 1.0)
    i_value = 2.0 * (window + tail)

    threshold = model.sigma2 / model.m3
    above = us > threshold
    # the FFT comb plus the exact left endpoint of the scan region
    nu = max(float(np.max(phi_abs[above])), abs(characteristic_function(model, threshold)))
    return CltPrereqs(
        r_used=r_used,
        i_value=float(i_value),
        nu=nu,
        nu_threshold=float(threshold),
        u_max=float(us[-1]),
        phi_tail=float(phi_abs[-1]),
        tail_exponent=float(gamma),
    )


# ---------------------------------------------------------------------------
# entropy / energy functionals


def entropy_energy(model: GibbsModel, q: DensityGrid | None = None) -> tuple[float, float]:
    """Entropy and mean energy.  For the Gibbs density itself (q=None) the
    analytic identity ``h = c mu + log Z`` applies; a grid density over the
    finiteness set is integrated by :meth:`DensityGrid.integrate`, with
    ``q log q`` read as 0 where q vanishes."""
    if q is None:
        return model.c * model.mu + math.log(model.z), model.mu
    if abs(q.mass - 1.0) > 1e-4:
        raise ValueError(f"density mass {q.mass!r} deviates from 1 beyond 1e-4")

    def log_q(x):
        lq = q.log_at(x)
        return np.where(np.isfinite(lq), lq, 0.0)

    h = -q.integrate(log_q, np.where(q.values > 0, q.log_values, 0.0))
    energy = q.integrate(lambda x: f_values(model.spec, x))
    return h, energy
