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
from scipy.integrate import quad
from scipy.optimize import brentq

from .grids import DensityGrid, EdgeModel, make_grid
from .hamiltonians import SYMMETRIC, HamiltonianSpec, f_values, finv_values, fprime_values

__all__ = [
    "GibbsModel",
    "GridParams",
    "QuadratureInfo",
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

_QUAD_ABS = 1e-12
_QUAD_REL = 1e-10
_Y_GRID_SIZE = 2**18
# relative miss of the mean energy that solve_energy treats as failure
_MATCH_RTOL = 1e-10
# integrability orders r tried for |phi|^r, smallest first
_R_MAX = 6


@dataclass(frozen=True)
class QuadratureInfo:
    abs_tol: float
    rel_tol: float
    x_max: float
    tail_bound: float


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
    """Solved single-site model: normalizer and energy moments at fixed c."""

    spec: HamiltonianSpec
    c: float
    z: float
    mu: float
    sigma2: float
    m3: float
    quad: QuadratureInfo
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if not (self.z > 0 and self.sigma2 > 0 and math.isfinite(self.m3)):
            raise ValueError("degenerate model: need Z > 0, Var Y > 0, finite third moment")


def _truncation(spec: HamiltonianSpec, c: float) -> tuple[float, float]:
    """Cutoff with ``exp(-c f(x)/2) / ((c/2) f'(x))`` below 1e-16 beyond it.

    The half rate keeps the same cutoff valid for the energy-weighted
    integrands used by the moments.
    """
    x = 1.0
    for _ in range(80):
        fx = float(f_values(spec, np.array([x]))[0])
        fp = float(fprime_values(spec, np.array([x]))[0])
        bound = math.exp(-0.5 * c * fx) / (0.5 * c * fp) if 0.5 * c * fx < 700 else 0.0
        if bound < 1e-16:
            return x, bound
        x *= 2.0
    raise RuntimeError("tail bound did not drop below 1e-16; f may grow too slowly")


def _halfline_integral(spec: HamiltonianSpec, c: float, weight, x_max: float, points=None) -> float:
    def integrand(x):
        fx = spec.fn(np.asarray([x]))[0]
        w = 1.0 if weight is None else weight(fx)
        return w * math.exp(-c * fx) if c * fx < 700 else 0.0

    val, _ = quad(integrand, 0.0, x_max, epsabs=_QUAD_ABS, epsrel=_QUAD_REL, limit=200, points=points)
    return val


def partition_function(spec: HamiltonianSpec, c: float) -> float:
    """``Z_c = \\int exp(-c f) dx`` over the finiteness set; closed-form
    families of degree d have ``Z = s Gamma(1 + 1/d) c^(-1/d)``, with s = 2
    on symmetric support."""
    if c <= 0:
        raise ValueError("inverse temperature must be positive")
    factor = 2.0 if spec.support == SYMMETRIC else 1.0
    if spec.closed_form:
        d = spec.homogeneous_degree
        return factor * math.gamma(1.0 + 1.0 / d) / c ** (1.0 / d)
    x_max, _ = _truncation(spec, c)
    return factor * _halfline_integral(spec, c, None, x_max)


def moments(spec: HamiltonianSpec, c: float) -> tuple[float, float, float]:
    """Mean, variance and absolute third central moment of ``Y = f(X)``."""
    if c <= 0:
        raise ValueError("inverse temperature must be positive")
    factor = 2.0 if spec.support == SYMMETRIC else 1.0
    x_max, _ = _truncation(spec, c)
    z = partition_function(spec, c)
    mu = factor * _halfline_integral(spec, c, lambda f: f, x_max) / z
    # the |f - mu| kink sits at f^{-1}(mu)
    kink = [float(finv_values(spec, np.asarray([mu]))[0])]
    sigma2 = factor * _halfline_integral(spec, c, lambda f: (f - mu) ** 2, x_max, points=kink) / z
    m3 = factor * _halfline_integral(spec, c, lambda f: abs(f - mu) ** 3, x_max, points=kink) / z
    return mu, sigma2, m3


def model_at(spec: HamiltonianSpec, c: float) -> GibbsModel:
    x_max, tail = _truncation(spec, c)
    z = partition_function(spec, c)
    mu, sigma2, m3 = moments(spec, c)
    return GibbsModel(
        spec=spec,
        c=c,
        z=z,
        mu=mu,
        sigma2=sigma2,
        m3=m3,
        quad=QuadratureInfo(_QUAD_ABS, _QUAD_REL, x_max, tail),
    )


def _mean_energy(spec: HamiltonianSpec, c: float) -> float:
    factor = 2.0 if spec.support == SYMMETRIC else 1.0
    x_max, _ = _truncation(spec, c)
    z = factor * _halfline_integral(spec, c, None, x_max)
    return factor * _halfline_integral(spec, c, lambda f: f, x_max) / z


def solve_energy(spec: HamiltonianSpec, t: float) -> GibbsModel:
    """Unique c with mean energy t, via bracket doubling on the strictly
    decreasing map ``c -> E f(X)`` and Brent refinement."""
    if not math.isfinite(t):
        raise ValueError(f"target energy must be finite; got {t!r}")
    if t <= 0:
        raise ValueError("target energy must be positive")
    lo = hi = 1.0
    mu = _mean_energy(spec, 1.0)
    if mu > t:
        for _ in range(100):
            lo = hi
            hi *= 2.0
            if _mean_energy(spec, hi) <= t:
                break
        else:
            raise RuntimeError("bracket expansion failed: energy t not attainable")
    elif mu < t:
        for _ in range(100):
            hi = lo
            lo *= 0.5
            if _mean_energy(spec, lo) >= t:
                break
        else:
            raise RuntimeError("bracket expansion failed: energy t not attainable")
    if lo != hi:
        c = brentq(lambda cc: _mean_energy(spec, cc) - t, lo, hi, xtol=1e-300, rtol=8.9e-16)
    else:
        c = 1.0
    model = model_at(spec, c)
    if abs(model.mu - t) > _MATCH_RTOL * t:
        raise RuntimeError(f"energy matching missed the target: mu={model.mu!r} vs t={t!r}")
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
    """Two-term origin model for the energy density: the leading power law
    ``log g(y) ~ log_k + beta log y - c y``, fitted from the density itself
    at two tiny ordinates, plus the next-order power fitted from the
    residual.  The leading fit is exact whenever g is exactly a power law
    times an exponential (all built-ins except the perturbed quartic)."""
    if "edge_model" in model._cache:
        return model._cache["edge_model"]
    ya, yb = 1e-9, 5e-10
    la = float(log_y_density(model, np.asarray([ya]))[0]) + model.c * ya
    lb = float(log_y_density(model, np.asarray([yb]))[0]) + model.c * yb
    beta = (la - lb) / (math.log(ya) - math.log(yb))
    if abs(beta) < 1e-12:
        beta = 0.0
    log_k = la - beta * math.log(ya)
    lead = EdgeModel(beta, log_k, model.c)
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
    model._cache["edge_model"] = out
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
    if "ygrid" in model._cache:
        return model._cache["ygrid"]
    y_max = _y_max(model)
    n = _Y_GRID_SIZE
    dy = y_max / (n - 1)
    ys = dy * np.arange(1, n)
    values = np.empty(n)
    values[1:] = np.exp(log_y_density(model, ys))
    # the raw density on the positive nodes, kept for _cached_remainder
    model._cache["y_raw"] = values[1:]
    edge = _edge_model(model)
    if edge.beta < -1e-6:
        values[0] = 0.0
    else:
        values[0] = math.exp(edge.log_k)
        edge = None
    grid = make_grid(0.0, dy, values, edge=edge, meta={"kind": "y_density", "c": model.c})
    if abs(grid.mass - 1.0) > 1e-6:
        raise RuntimeError(f"y-density mass off by {grid.mass - 1.0:.3e} (> 1e-6)")
    out = grid.normalized()
    model._cache["ygrid"] = out
    return out


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
    None when the caller found it negligible.  Its trapezoid transform (half
    weight on the right endpoint; the left one is 0) comes from one rFFT,
    which covers the whole resolvable band.
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


def _cached_remainder(model: GibbsModel) -> tuple[DensityGrid, np.ndarray, bool]:
    """The y-grid, the remainder on its positive nodes, and whether that
    remainder is noise; decided once per model for every transform of it."""
    if "rem" not in model._cache:
        grid = y_density(model)
        rem = model._cache["y_raw"] - _edge_model(model).density(grid.points()[1:])
        negligible = bool(np.max(np.abs(rem)) < 1e-12 * np.max(grid.values))
        model._cache["rem"] = (grid, rem, negligible)
    return model._cache["rem"]


def characteristic_function(model: GibbsModel, u):
    """``E exp(iuY)`` evaluated as the analytic edge-model transform plus a
    trapezoid transform of the grid remainder.  Frequencies beyond the
    grid's usable band raise rather than silently truncating."""
    scalar = np.isscalar(u)
    u_arr = np.atleast_1d(np.asarray(u, dtype=float))
    grid, rem, negligible = _cached_remainder(model)
    u_lim = 0.95 * math.pi / grid.dx
    if np.any(np.abs(u_arr) > u_lim):
        raise ValueError(f"|u| beyond the resolvable band ({u_lim:.3g}) for this grid")
    out = _edge_model(model).transform(_log_c_minus_iu(model.c, u_arr))
    if not negligible:
        ys = grid.points()[1:]
        # trapezoid: interior nodes full weight, endpoints half (the left
        # endpoint of the remainder is 0 by construction)
        weights = np.full(ys.shape, grid.dx)
        weights[-1] *= 0.5
        for start in range(0, len(u_arr), 256):
            chunk = u_arr[start : start + 256, None]
            out[start : start + 256] += np.sum(
                rem[None, :] * weights[None, :] * np.exp(1j * chunk * ys[None, :]), axis=1
            )
    return complex(out[0]) if scalar else out


def _phi_fft(model: GibbsModel) -> tuple[np.ndarray, np.ndarray]:
    """phi sampled on the y-grid's conjugate nonnegative frequencies, the
    whole resolvable band the integrability scan needs."""
    if "phi_fft" in model._cache:
        return model._cache["phi_fft"]
    grid, rem, negligible = _cached_remainder(model)
    us, _, phi = _conjugate_phi(model, len(grid.values), grid.dx, None if negligible else rem)
    out = (us, phi)
    model._cache["phi_fft"] = out
    return out


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
    if "prereqs" in model._cache:
        return model._cache["prereqs"]
    us, phi = _phi_fft(model)
    us, phi_abs = us[: -len(us) // 20], np.abs(phi[: -len(us) // 20])

    # decay exponent of |phi| over the last decade
    dec = us >= us[-1] / 10.0
    gamma = -np.polyfit(np.log(us[dec]), np.log(np.maximum(phi_abs[dec], 1e-300)), 1)[0]

    r_used, i_value = None, math.inf
    for r in range(1, _R_MAX + 1):
        if gamma * r <= 1.05:
            continue  # tail not integrable (or too close to call)
        window = np.trapezoid(phi_abs**r, us)
        tail = phi_abs[-1] ** r * us[-1] / (gamma * r - 1.0)
        r_used, i_value = int(r), 2.0 * (window + tail)
        break
    if r_used is None:
        raise RuntimeError(f"no r <= {_R_MAX} makes |phi|^r integrable; hypotheses fail")

    threshold = model.sigma2 / model.m3
    above = us > threshold
    # the FFT comb plus the exact left endpoint of the scan region
    nu = max(float(np.max(phi_abs[above])), abs(characteristic_function(model, threshold)))
    out = CltPrereqs(
        r_used=r_used,
        i_value=float(i_value),
        nu=nu,
        nu_threshold=float(threshold),
        u_max=float(us[-1]),
        phi_tail=float(phi_abs[-1]),
        tail_exponent=float(gamma),
    )
    model._cache["prereqs"] = out
    return out


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
