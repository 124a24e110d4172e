"""Densities of the total energy ``R_n = Y_1 + ... + Y_n`` under the Gibbs
product measure.

Two routes: closed Gamma forms for the families listed in
``hamiltonians.CLOSED_FORMS`` (keyed on homogeneous degree and support),
and a characteristic-function route (sample phi on the output
grid's nonnegative conjugate frequencies, raise to the n-th power in polar
form, invert by a real inverse FFT, since w_n is real).  When the energy
density is exactly ``K y^beta exp(-cy)`` (a single-term edge model and a
negligible remainder, as for ``power(p)``), phi is
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

Independent builds run at once: :func:`w_grids` and :func:`local_clt_scan`
stripe theirs over the calling thread and helpers, up to the
``THINSHELL_THREADS`` cap.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import Future
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .gibbs1d import (
    GibbsModel,
    GridParams,
    _cached_remainder,
    _conjugate_base,
    _conjugate_phi,
    _edge_model,
    _grid_remainder,
    clt_prerequisites,
    y_density,
)
from .grids import DensityGrid, EdgeModel, make_grid
from .hamiltonians import _pool_size, _striped

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
    reach = n * model.mu + (params.sd_extent + _PAD_SD) * math.sqrt(n * model.sigma2)
    return max(reach, y_density(model).x_end)


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
    integrability order are allowed (the exact small cases need them) but
    flagged in ``meta``.
    """
    params = params or GridParams()
    _check_count("n", n)
    # edge terms of w_n that would ring in a plain inversion
    edge = _edge_model(model)
    conv = edge.convolve(n, below=2.0)
    negligible = _cached_remainder(model)[2]
    power_law = negligible and (edge.beta2 is None or edge.coef2 == 0.0)
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
            rem = None if negligible else _grid_remainder(model, ys)
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
    meta = {
        "kind": "w_fft",
        "n": n,
        "c": model.c,
        "l1_clip": l1_clip,
        "below_r_used": n < clt_prerequisites(model).r_used,
    }
    grid = make_grid(0.0, ds, w, edge=edge, meta=meta)
    return grid.normalized()


# guards the per-key futures in every model's cache
_W_LOCK = threading.Lock()


def w_density(model: GibbsModel, n: int, params: GridParams | None = None) -> DensityGrid:
    """Closed form when the family has one, FFT route otherwise.

    Grids of both routes are memoised on the model under ``("w", n,
    params)``, so every caller gets the same grid; concurrent requests for
    one key share a single build, and a build that raises is evicted so the
    next call retries.  ``n`` is checked before the memo is read, so a float
    or bool that hashes like a memoised count is refused too.
    """
    _check_count("n", n)
    build_grid = w_exact if model.spec.closed_form else w_fft
    key = ("w", n, params or GridParams())
    with _W_LOCK:
        future = model._cache.get(key)
        build = future is None
        if build:
            future = model._cache[key] = Future()
    if build:
        try:
            future.set_result(build_grid(model, n, params))
        except BaseException as exc:
            with _W_LOCK:
                del model._cache[key]
            future.set_exception(exc)
            raise
    return future.result()


def w_grids(model: GibbsModel, ns, params: GridParams | None = None, shared=None) -> list[DensityGrid]:
    """The sum-density grid of each count in ``ns``, as :func:`w_density`
    gives it, with the builds that are missing done at once: striped over
    the calling thread and helpers (``hamiltonians._striped``), after
    :func:`clt_prerequisites` has filled the model's caches, so that no two
    threads fill them.

    Counts in ``shared`` (by default all of ``ns``) go through the memo.
    Any other count is read from the memo when the memo has it, and is
    otherwise built for the caller alone and never memoised.
    """
    for n in ns:
        _check_count("n", n)
    params = params or GridParams()
    shared = set(ns) if shared is None else set(shared)
    with _W_LOCK:
        memo = {n: model._cache[("w", n, params)] for n in ns if ("w", n, params) in model._cache}
    missing = sorted(set(ns) - set(memo))
    built = {}

    def build(i: int) -> None:
        n = missing[i]
        if n in shared:
            built[n] = w_density(model, n, params)
        else:
            built[n] = (w_exact if model.spec.closed_form else w_fft)(model, n, params)

    threads = _pool_size(len(missing))
    if threads > 1:
        clt_prerequisites(model)
    _striped(len(missing), build, threads)
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
    normal, and the uniform constant they imply."""

    n_list: tuple[int, ...]
    sup_devs: tuple[float, ...]
    c_hat: float
    nu: float
    i_value: float
    r_used: int

    def __post_init__(self):
        if not (self.c_hat > 0 and all(math.isfinite(d) for d in self.sup_devs)):
            raise ValueError("scan produced non-finite deviations")


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
    """Estimate the uniform local-CLT constant empirically over n_list; the
    ``w_fft`` builds are striped over the calling thread and helpers."""
    if len(n_list) == 0:
        raise ValueError("n_list must be nonempty")
    prereqs = clt_prerequisites(model)
    sup_devs = [math.nan] * len(n_list)

    def scan(i: int) -> None:
        n = int(n_list[i])
        sup_devs[i] = _sup_deviation(model, w_fft(model, n, params), n)

    _striped(len(n_list), scan, _pool_size(len(n_list)))
    c_hat = max(math.sqrt(2.0 * math.pi * n) * d for n, d in zip(n_list, sup_devs))
    return LocalCltReport(
        n_list=tuple(int(n) for n in n_list),
        sup_devs=tuple(sup_devs),
        c_hat=float(c_hat),
        nu=prereqs.nu,
        i_value=prereqs.i_value,
        r_used=prereqs.r_used,
    )
