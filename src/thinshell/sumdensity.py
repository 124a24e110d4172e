"""Densities of the total energy ``R_n = Y_1 + ... + Y_n`` under the Gibbs
product measure.

Two routes: closed Gamma forms for the families listed in
``hamiltonians.CLOSED_FORMS`` (keyed on homogeneous degree and support),
with ``log Gamma`` from :mod:`thinshell._special` (no scipy at run time),
and a characteristic-function route (sample phi on the output
grid's nonnegative conjugate frequencies, raise to the n-th power in polar
form, invert by a real inverse FFT, since w_n is real).  When the energy
density is exactly ``K y^beta exp(-cy)`` (a homogeneous f with a
single-term edge model, as for ``power(p)``), phi is
``K Gamma(beta+1) (c - iu)^{-(beta+1)}`` and phi**n is evaluated in closed
form, ``exp(n log(K Gamma(beta+1)) - n (beta+1) log(c - iu))``: with
``arg(c - iu)`` in ``(-pi/2, 0]`` for u >= 0 the principal logarithm is
already the continuous branch, so nothing is unwrapped.  The leading edge
behavior of the n-fold convolution, ``A y^gamma exp(-cy)`` plus its
next-order term, is the convolved single-summand edge model
(``EdgeModel.convolve``), so its terms with ``gamma < 2`` (jump, kink or
singularity at the support edge) are subtracted in the frequency domain and
added back in closed form; a plain inversion would ring against the
discontinuity.

One selector (``_build``) picks every grid's route; :func:`w_grids` fans
a caller's missing builds out (``hamiltonians._fan_out``), and the CLT scan
builds through it too, so a closed-form family's scan reads Gamma grids.

A ``w_fft`` build reads neither the 2^18-node y-grid (the homogeneous
degree decides whether the remainder is sampled) nor the integrability scan
(:func:`gibbs1d.clt_prerequisites`).  So its ``meta`` holds ``kind``,
``n``, ``c``, ``l1_clip`` and ``norm_defect``, and no longer whether n
reaches the scanned integrability order.  Nor does :func:`local_clt_scan`:
its report runs that scan when ``nu``, ``i_value`` or ``r_used`` is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._special import gammaln
from .gibbs1d import (
    _Y_GRID_SIZE,
    GibbsModel,
    GridParams,
    _conjugate_base,
    _conjugate_phi,
    _edge_model,
    _grid_remainder,
    _y_step,
    clt_prerequisites,
)
from .grids import DensityGrid, EdgeModel, make_grid
from .hamiltonians import _MEMO_LOCK, _fan_out, _memo

__all__ = [
    "LocalCltReport",
    "GridTooCoarseError",
    "gamma_shape",
    "log_w",
    "log_w_exact",
    "w_exact",
    "w_fft",
    "w_density",
    "w_grids",
    "local_clt_scan",
]


class GridTooCoarseError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# closed forms


def _check_count(name: str, value) -> None:
    """Refuse a number of summands (n, k, ...) that is not an integer >= 1;
    a bool is not a count."""
    if not (isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= 1):
        raise ValueError(f"{name} must be an integer >= 1; got {value!r}")


def gamma_shape(model: GibbsModel, n: int) -> float:
    """Gamma shape ``n/d`` of R_n (rate is c) for the closed-form families."""
    _check_count("n", n)
    spec = model.spec
    if not spec.closed_form:
        raise ValueError(f"no closed-form sum density for {spec.label}")
    return n / spec.homogeneous_degree


def log_w_exact(model: GibbsModel, n: int, s) -> np.ndarray:
    """Pointwise log Gamma(shape, rate=c) density, -inf off the support."""
    a = gamma_shape(model, n)
    c = model.c
    s = np.asarray(s, dtype=float)
    out = np.full(s.shape, -np.inf)
    pos = s > 0
    with np.errstate(divide="ignore"):
        out[pos] = a * math.log(c) - gammaln(a) + (a - 1.0) * np.log(s[pos]) - c * s[pos]
    if a == 1.0:
        out[s == 0.0] = math.log(c)
    return out


# standard deviations of padding past ``GridParams.sd_extent``
_PAD_SD = 4.0


def _sum_grid_extent(model: GibbsModel, n: int, params: GridParams) -> float:
    """Reach of R_n's bulk, but at least the y-grid's end (which needs no
    y-grid built)."""
    reach = n * model.mu + (params.sd_extent + _PAD_SD) * math.sqrt(n * model.sigma2)
    return max(reach, _y_step(model) * (_Y_GRID_SIZE - 1))


def w_exact(model: GibbsModel, n: int, params: GridParams | None = None) -> DensityGrid:
    """Gamma sum density on a uniform grid, edge-aware for shape < 1."""
    params = params or GridParams()
    a = gamma_shape(model, n)
    c = model.c
    length = _sum_grid_extent(model, n, params)
    m = params.sum_size
    ds = length / m
    ss = ds * np.arange(m)
    values = np.zeros(m)
    values[1:] = np.exp(log_w_exact(model, n, ss[1:]))
    edge = None
    if a < 1.0:
        edge = EdgeModel(a - 1.0, a * math.log(c) - gammaln(a), c)
    elif a == 1.0:
        values[0] = c
    grid = make_grid(0.0, ds, values, edge=edge, meta={"kind": "w_exact", "n": n, "c": c})
    return grid.normalized()


# ---------------------------------------------------------------------------
# characteristic-function route


def _polar_power(phi: np.ndarray, n: int) -> np.ndarray:
    """phi**n on nonnegative frequencies, computed as exp(n log|phi| + i n
    phase) with the phase unwrapped upward from u = 0; both parts are
    written into one buffer, which is exponentiated in place."""
    mod = np.abs(phi)
    phase = np.unwrap(np.angle(phi))
    phase -= phase[0]  # phi(0)=1 anchors the branch
    powered = np.empty_like(phi)
    log_part, phase_part = powered.real, powered.imag
    np.log(np.maximum(mod, 1e-300), out=log_part)
    log_part *= n
    np.multiply(phase, n, out=phase_part)
    with np.errstate(over="ignore", under="ignore"):
        np.exp(powered, out=powered)
    powered[mod == 0.0] = 0.0
    return powered


def _power_law_power(edge: EdgeModel, base: np.ndarray, n: int) -> np.ndarray:
    """phi**n for an energy density that is exactly the single-term ``edge``,
    ``K y^beta exp(-cy)``, given ``base = log(c - iu)``: phi is
    ``K Gamma(beta+1) (c - iu)^{-(beta+1)}``."""
    psi = base * -(n * (edge.beta + 1.0))
    psi += n * (edge.log_k + gammaln(edge.beta + 1.0))
    with np.errstate(over="ignore", under="ignore"):
        return np.exp(psi, out=psi)


def w_fft(model: GibbsModel, n: int, params: GridParams | None = None) -> DensityGrid:
    """Sum density via phi**n and FFT inversion.

    Records the L1 mass removed by clipping negative ripple; more than 1e-3
    aborts with a refinement hint.  Requests with ``n`` below the scanned
    integrability order are allowed (the exact small cases need them); the
    build itself never runs that scan.
    """
    params = params or GridParams()
    _check_count("n", n)
    # edge terms of w_n that would ring in a plain inversion
    edge = _edge_model(model)
    conv = edge.convolve(n, below=2.0)
    homogeneous = model.spec.homogeneous_degree is not None
    power_law = homogeneous and (edge.beta2 is None or edge.coef2 == 0.0)
    length = _sum_grid_extent(model, n, params)
    for _ in range(4):
        m = params.sum_size
        ds = length / m
        ys = ds * np.arange(1, m)
        # base = log(c - iu), from which every edge transform is computed
        if power_law:
            _, base = _conjugate_base(model.c, m, ds)
            psi = _power_law_power(edge, base, n)
        else:
            rem = None if homogeneous else _grid_remainder(model, ys)
            _, base, phi = _conjugate_phi(model, m, ds, rem)
            psi = _polar_power(phi, n)
        if conv is not None:
            psi -= conv.transform(base)
        # psi is Hermitian in u, so the inversion needs only u >= 0
        np.conjugate(psi, out=psi)
        w = np.fft.irfft(psi, m)
        w /= ds
        if conv is not None:
            w[1:] += conv.density(ys)
            w[0] = conv.edge_value()
        # wrap-around guard: the mass sitting in the top of the grid (which
        # is what leaks back in under periodization) must be negligible;
        # pointwise checks would trip on the inversion's noise floor
        top = np.abs(w[-max(16, m // 64) :])
        if float(np.trapezoid(top, dx=ds)) <= 1e-9:
            break
        length *= 2.0
    else:
        raise GridTooCoarseError("could not silence wrap-around; increase sum_size")

    clip = np.clip(-w, 0.0, None)
    l1_clip = float(np.trapezoid(clip, dx=ds))
    if l1_clip > 1e-3:
        raise GridTooCoarseError(f"negative ripple mass {l1_clip:.2e} > 1e-3; increase sum_size")
    w = np.clip(w, 0.0, None)
    edge = None
    if conv is not None and conv.beta < -1e-9:
        w[0] = 0.0
        edge = conv
    grid = make_grid(0.0, ds, w, edge=edge, meta={"kind": "w_fft", "n": n, "c": model.c, "l1_clip": l1_clip})
    return grid.normalized()


def _build(model: GibbsModel, n: int, params: GridParams | None) -> DensityGrid:
    """The closed form when the family has one, the FFT route otherwise."""
    return (w_exact if model.spec.closed_form else w_fft)(model, n, params)


def w_density(model: GibbsModel, n: int, params: GridParams | None = None) -> DensityGrid:
    """:func:`_build`'s grid, memoised.

    Grids of both routes are memoised on the model under ``("w", n,
    params)`` (``hamiltonians._memo``), so every caller gets the same grid.
    ``n`` is checked before the memo is read, so a float or bool that hashes
    like a memoised count is refused too.
    """
    _check_count("n", n)
    return _memo(model._cache, ("w", n, params or GridParams()), lambda: _build(model, n, params))


def w_grids(model: GibbsModel, ns, params: GridParams | None = None, shared=None) -> list[DensityGrid]:
    """The sum-density grid of each count in ``ns``, as :func:`w_density`
    gives it, with the builds that are missing done at once
    (``hamiltonians._fan_out``).

    Counts in ``shared`` (by default all of ``ns``) go through the memo.
    Any other count is read from the memo when the memo has it, and is
    otherwise built for the caller alone and never memoised.
    """
    for n in ns:
        _check_count("n", n)
    params = params or GridParams()
    shared = set(ns) if shared is None else set(shared)
    with _MEMO_LOCK:
        memo = {n: model._cache[("w", n, params)] for n in ns if ("w", n, params) in model._cache}
    missing = sorted(set(ns) - set(memo))
    built = dict(zip(missing, _fan_out(lambda n: (w_density if n in shared else _build)(model, n, params), missing)))
    return [built[n] if n in built else memo[n].result() for n in ns]


def log_w(model: GibbsModel, n: int, s, params: GridParams | None = None) -> np.ndarray:
    """``log w_n(s)``: exact for closed-form families, interpolated on the
    memoised FFT grid otherwise; -inf off the support."""
    _check_count("n", n)
    if model.spec.closed_form:
        return log_w_exact(model, n, s)
    return w_density(model, n, params).log_at(s)


# ---------------------------------------------------------------------------
# local CLT scan


@dataclass(frozen=True)
class LocalCltReport:
    """Sup deviations of the standardized sum density from the standard
    normal, and the uniform constant they imply.

    ``nu``, ``i_value`` and ``r_used`` describe the local-CLT hypotheses
    only; they read :func:`gibbs1d.clt_prerequisites` of ``model`` on first
    access, so a caller that reads ``c_hat`` alone never builds the y-grid
    or runs that scan, and a refused scan raises at that first read.

    The report keeps ``model`` alive, and with it the model's memo.  Its
    ``==`` and hash cover the scan fields alone (``model`` is left out), so
    two reports of different models with equal scan numbers compare equal
    although their ``nu``, ``i_value`` and ``r_used`` may differ."""

    n_list: tuple[int, ...]
    sup_devs: tuple[float, ...]
    c_hat: float
    model: GibbsModel = field(repr=False, compare=False)

    @property
    def nu(self) -> float:
        return clt_prerequisites(self.model).nu

    @property
    def i_value(self) -> float:
        return clt_prerequisites(self.model).i_value

    @property
    def r_used(self) -> int:
        return clt_prerequisites(self.model).r_used


def _standard_normal(x: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def _sup_deviation(model: GibbsModel, grid: DensityGrid, n: int) -> float:
    scale = math.sqrt(n * model.sigma2)
    center = n * model.mu
    xs = (grid.points() - center) / scale
    dev = float(np.max(np.abs(scale * grid.values - _standard_normal(xs))))
    # off the support (y < 0) the sum density vanishes but the normal does not
    x_left = -center / scale
    if x_left > -12.0:
        dev = max(dev, float(_standard_normal(np.asarray([x_left]))[0]))
    return dev


def local_clt_scan(model: GibbsModel, n_list, params: GridParams | None = None) -> LocalCltReport:
    """Estimate the uniform local-CLT constant empirically over n_list: the
    sup deviation at each n, on :func:`w_grids` grids kept out of the memo
    (Gamma grids for the closed-form families), and ``c_hat``, the largest
    ``sqrt(2 pi n)`` times the deviation; nothing else is computed."""
    if len(n_list) == 0:
        raise ValueError("n_list must be nonempty")
    grids = w_grids(model, n_list, params, shared=())
    sup_devs = tuple(_sup_deviation(model, grid, n) for grid, n in zip(grids, n_list))
    c_hat = float(max(math.sqrt(2.0 * math.pi * n) * d for n, d in zip(n_list, sup_devs)))
    if not (c_hat > 0 and all(math.isfinite(d) for d in sup_devs)):
        raise ValueError("scan produced non-finite deviations")
    return LocalCltReport(n_list=tuple(int(n) for n in n_list), sup_devs=sup_devs, c_hat=c_hat, model=model)
