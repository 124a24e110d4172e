"""Monte Carlo samplers for constant-energy surfaces and the
expectation-gap experiments comparing the two ensembles.

For homogeneous energies the direction of a Gibbs-distributed vector is
independent of its total energy, so drawing product samples and radially
projecting them onto the surface is exact.  In general that independence
fails; the general route conditions on a thin shell ``|R_n/n - t| <= delta``
before projecting, trading a bias of order delta for tractability.

The projection scales each row by kappa with ``R_n(kappa x) = nt``.  A
homogeneous energy of degree d has the closed form ``kappa = (nt/R_n)^(1/d)``.
Otherwise kappa solves ``sum f(kappa |x_i|) = nt`` by the safeguarded
Newton of ``hamiltonians._newton`` from kappa = 1 (rejection rows start in
the shell, close to the root).  ``central_projection`` and both samplers
check every projected row on the surface to relative 1e-10, in one step.
Rows kept by the rejection sampler bring the ``R_n`` of its shell test into
the first Newton sweep (or the closed form), so it is not evaluated twice.

Families without an exact transform draw coordinates by a PCHIP inverse
CDF, whose coefficients are built here in the operation order of scipy's
``PchipInterpolator``.  Its polynomial is evaluated by indexed search
(Chen & Asau 1974; Devroye 1986, section III.2): a guide table over
``2**16`` equal bins of ``[0, 1)`` gives, for ``j = floor(u * 2**16)``,
the knot interval holding ``j / 2**16``; at most two steps to the right,
or a binary search in the few bins wider than that, find ``u``'s
interval.  That is the interval
``PchipInterpolator`` finds, and the cubic is summed in scipy's ``PPoly``
order, so every draw is bit-identical to ``PchipInterpolator.__call__`` on
the same table.

Randomness uses counter-based Philox streams derived from ``(seed, block
index)``, so identical configurations reproduce batches bit for bit.  Each
block writes its own rows, so the scaling sampler hands its blocks out, one
at a time, to the calling thread and T - 1 helper threads
(``hamiltonians._fan_out``); the inverse CDF hands out its 16384-point
chunks the same way.  No draw depends on which thread made it.
``THINSHELL_THREADS`` caps T; by default it is the CPU count.  The
rejection sampler's blocks stay in order, since each block's size depends
on the rows kept so far.

Memory is O(count*keep + T*_SLICE): the kept columns plus, on each of
the T threads, the draws in flight.  Every sampler draws its blocks (1024
rows for the scaling sampler, up to 65536 for the rejection sampler and the
canonical side of :func:`ensemble_expectation_gap`) in slices of ``_SLICE =
2**17`` coordinates, 1 MiB of float64, with the values the whole block
would have (:meth:`_CoordinateSampler.slices`; a symmetric power(p) draws
its blocks whole), and projects, stores or evaluates each slice before the
next is drawn.  The rejection sampler stops drawing at the row that fills
the batch.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .gibbs1d import GibbsModel, GridParams
from .grids import DensityGrid
from .hamiltonians import SYMMETRIC, HamiltonianSpec, _fan_out, _memo, _newton, f_values, fprime_values
from .sumdensity import _check_count, w_density

__all__ = [
    "SampleBatch",
    "TestFunction",
    "EnsembleGapReport",
    "central_projection",
    "sample_surface_scaling",
    "sample_surface_rejection",
    "ensemble_expectation_gap",
    "empirical_projection_check",
    "shell_mass",
    "save_batch",
    "load_batch",
]

_BLOCK = 1024
# guide-table bins of the inverse CDF (a power of two, so floor(u * _GUIDE)
# is exact) and the uniforms per inverse-CDF chunk; a chunk's working set
# (its interval indices, local variable, powers and one gathered
# coefficient column) is under 1 MiB per thread
_GUIDE = 2**16
_CHUNK = 16384
# coordinates per slice of a block drawn at a time: 1 MiB of float64, so a
# slice and its temporaries stay below the 4 MiB mmap threshold that cli
# sets and reuse the heap
_SLICE = 2**17
_MAGIC = b"THNSHL1\x00"
_HEADER = struct.Struct("<QQddBxxxxxxxdq")
_METHODS = ("scaling", "rejection")


@dataclass(frozen=True)
class SampleBatch:
    """Points on the surface, one per row, plus the sampling metadata.

    ``n`` is the surface dimension; ``points`` may hold only the first
    ``m <= n`` coordinates of each point."""

    points: np.ndarray
    n: int
    t: float
    c: float
    method: str
    delta: float | None
    acceptance_rate: float
    seed: int

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.points.ndim != 2 or not 1 <= self.points.shape[1] <= self.n:
            raise ValueError("points must be a (count, m) matrix with 1 <= m <= n")

    @property
    def count(self) -> int:
        return self.points.shape[0]


def _block_rng(seed: int, block: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(block,))))


def _row_energies(spec: HamiltonianSpec, points: np.ndarray) -> np.ndarray:
    """``R_n`` of each row, ``_BLOCK`` rows at a time so that the
    temporaries of ``f`` stay small; each row's sum is the same either way."""
    out = np.empty(points.shape[0])
    for start in range(0, points.shape[0], _BLOCK):
        out[start : start + _BLOCK] = np.sum(f_values(spec, points[start : start + _BLOCK]), axis=1)
    return out


# ---------------------------------------------------------------------------
# central projection onto the surface


# Newton correction (relative to kappa) at which a row's scale factor stops
_KAPPA_RTOL = 1e-14


def _project_rows(
    spec: HamiltonianSpec, rows: np.ndarray, target: float, energies: np.ndarray | None = None
) -> np.ndarray:
    """Scale factors kappa with ``R_n(kappa x) = target`` per row;
    ``energies``, when given, are the rows' ``R_n``.  Without a homogeneous
    degree, ``hamiltonians._newton`` solves ``g(kappa) = sum f(kappa |x_i|)
    - target``, with ``g'(kappa) = sum |x_i| f'(kappa |x_i|)``, from kappa =
    1 in blocks of ``_BLOCK`` rows; ``energies`` are g at kappa = 1."""
    if spec.homogeneous_degree is not None:
        if energies is None:
            energies = _row_energies(spec, rows)
        return (target / energies) ** (1.0 / spec.homogeneous_degree)
    # half-line rows keep their sign, so a negative coordinate gives g = +inf
    mags = np.abs(rows) if spec.support == SYMMETRIC else rows
    kappa = np.empty(rows.shape[0])
    for start in range(0, rows.shape[0], _BLOCK):
        block = slice(start, start + _BLOCK)
        a, first = mags[block], None if energies is None else energies[block]

        def residual(k, live):
            nonlocal a, first
            if live.size < a.shape[0]:  # rows only ever drop out
                a = mags[block][live]
            y = k[:, None] * a
            g = (np.sum(f_values(spec, y), axis=1) if first is None else first) - target
            first = None
            # f' needs x > 0; zero coordinates add 0 * f'(1) to the slope
            with np.errstate(invalid="ignore", over="ignore"):
                return g, np.sum(a * fprime_values(spec, np.where(a > 0.0, y, 1.0)), axis=1)

        kappa[block] = _newton(residual, np.ones(a.shape[0]), math.inf, _KAPPA_RTOL, "central projection")
    return kappa


def _store_block(
    spec: HamiltonianSpec,
    rows: np.ndarray,
    target: float,
    points: np.ndarray,
    start: int,
    energies: np.ndarray | None = None,
) -> None:
    """Project one block of draws onto the surface (in place), check every
    row there to relative 1e-10, and copy its first ``points.shape[1]``
    columns to ``points[start:]``; ``energies``, when given, are the rows'
    ``R_n``.  The one project-and-check step of the samplers and
    :func:`central_projection`."""
    rows *= _project_rows(spec, rows, target, energies)[:, None]
    resid = np.max(np.abs(_row_energies(spec, rows) - target))
    # written so that nan fails too
    if not resid <= 1e-10 * target:
        raise RuntimeError(f"projection off the surface: residual {resid:.2e}")
    points[start : start + rows.shape[0]] = rows[:, : points.shape[1]]


def central_projection(spec: HamiltonianSpec, x: np.ndarray, t: float) -> np.ndarray:
    """Radial image ``kappa * x`` on the surface at level nt, with the
    on-surface residual verified to relative 1e-10."""
    if not (math.isfinite(t) and t > 0):
        raise ValueError(f"energy level t must be finite and positive; got t={t!r}")
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("central_projection takes a single vector")
    if not np.any(x != 0.0):
        raise ValueError("the zero vector has no radial image on the surface")
    if np.any(~np.isfinite(f_values(spec, x))):
        raise ValueError("coordinates outside the finiteness set")
    out = np.empty((1, x.shape[0]))
    _store_block(spec, x[None, :].copy(), x.shape[0] * t, out, 0)
    return out[0]


# ---------------------------------------------------------------------------
# per-coordinate Gibbs sampling


def _pchip_coefficients(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Coefficients of the PCHIP interpolant (Fritsch & Butland 1984) of
    strictly increasing knots ``x`` (at least three) and values ``y``: one
    row per interval, cubic first, in the local variable ``x - x[i]``.

    The operations, and their order, are those of scipy's
    ``PchipInterpolator`` (``_find_derivatives``, ``_edge_case`` and
    ``CubicHermiteSpline``), so the rows equal its ``c.T`` bit for bit.
    Interior slopes are weighted harmonic means of the neighbouring secant
    slopes, or 0 where those differ in sign or one of them is 0; the end
    slopes are one-sided three-point estimates kept shape-preserving
    (Moler 2004, pchiptx).

    Every temporary is dropped once read, or computed in place, so the
    build holds about eight arrays of the interval count at its peak."""
    hk = x[1:] - x[:-1]
    mk = y[1:] - y[:-1]
    mk /= hk
    smk = np.sign(mk)
    condition = smk[1:] != smk[:-1]
    del smk
    condition |= mk[1:] == 0
    condition |= mk[:-1] == 0
    w1 = 2 * hk[1:]
    w1 += hk[:-1]
    w2 = hk[1:] + 2 * hk[:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        whmean = w1 / mk[:-1]
        whmean += w2 / mk[1:]
        w1 += w2
        whmean /= w1
    del w1, w2
    dk = np.zeros_like(y)
    np.divide(1.0, whmean, out=dk[1:-1], where=~condition)
    del whmean, condition
    dk[0] = _pchip_end_slope(hk[0], hk[1], mk[0], mk[1])
    dk[-1] = _pchip_end_slope(hk[-1], hk[-2], mk[-1], mk[-2])
    # CubicHermiteSpline's secant slopes, np.diff(y) / np.diff(x), are mk
    t = dk[:-1] + dk[1:]
    t -= 2 * mk
    t /= hk
    # stored column by column, so each column is contiguous for the gathers
    # of the inverse
    coef = np.empty((4, hk.size)).T
    np.divide(t, hk, out=coef[:, 0])
    np.subtract(mk, dk[:-1], out=coef[:, 1])
    coef[:, 1] /= hk
    coef[:, 1] -= t
    coef[:, 2] = dk[:-1]
    coef[:, 3] = y[:-1]
    return coef


def _pchip_end_slope(h0: float, h1: float, m0: float, m1: float) -> float:
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _cubic(coef: np.ndarray, rows: np.ndarray, s: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The cubics of rows ``rows`` of ``coef`` at ``s``, ``coef[rows, 0] s^3
    + ... + coef[rows, 3]``, summed in scipy's ``PPoly`` order, ``((c3 + c2
    s) + c1 s^2) + c0 (s^2 s)``, into ``out`` when given (an array other
    than ``s``); + and * commute exactly.  Each coefficient column is
    gathered as its term reads it, so one gathered column is held at a
    time."""
    s2 = s * s
    out = np.multiply(coef[:, 2].take(rows), s, out=out)
    out += coef[:, 3].take(rows)
    out += coef[:, 1].take(rows) * s2
    s2 *= s
    s2 *= coef[:, 0].take(rows)
    out += s2
    return out


def _pchip_at(knots: np.ndarray, coef: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The piecewise cubic at ``v``, continued past either end by the end
    intervals' cubics."""
    i = np.clip(np.searchsorted(knots, v, "right") - 1, 0, len(knots) - 2)
    return _cubic(coef, i, v - knots[i])


def _cdf_table(model: GibbsModel) -> tuple[np.ndarray, np.ndarray]:
    """The CDF of ``|X|`` under the coordinate density exp(-c f)/Z, by the
    trapezoid rule on ``2**16 + 1`` equal steps of ``[0, x_max]``, and the
    abscissae where it strictly increases (and 0); the grid's other arrays
    are dropped on return."""
    spec = model.spec
    xs = np.linspace(0.0, model.x_max, 2**16 + 1)
    pdf = np.exp(-model.c * f_values(spec, xs)) / model.z
    if spec.support == SYMMETRIC:
        pdf = 2.0 * pdf  # CDF of |X|
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * (xs[1] - xs[0]))))
    cdf /= cdf[-1]
    keep = np.concatenate(([True], np.diff(cdf) > 0))
    return cdf[keep], xs[keep]


class _CoordinateSampler:
    """Exact transforms where available, tabulated inverse CDF otherwise."""

    def __init__(self, model: GibbsModel):
        self.model = model
        self.spec = model.spec
        kind = self.spec.kind
        if kind in ("quadratic", "linear_half", "power"):
            return
        # the inverse: knots from 0.0 to 1.0, one coefficient row (cubic
        # first) per interval, and per guide bin j the interval holding
        # j / _GUIDE
        self._knots, self._values = _cdf_table(model)
        self._coef = _pchip_coefficients(self._knots, self._values)
        self._guide = np.searchsorted(self._knots, np.arange(_GUIDE) / _GUIDE, "right") - 1
        probe = np.linspace(1e-6, 1.0 - 1e-6, 4001)
        forward = _pchip_coefficients(self._values, self._knots)
        resid = float(np.max(np.abs(_pchip_at(self._values, forward, self._inverse(probe.copy())) - probe)))
        if resid > 1e-10:
            raise RuntimeError(f"inverse-CDF table misses tolerance: residual {resid:.2e}")

    def _inverse(self, u: np.ndarray) -> np.ndarray:
        """The PCHIP inverse CDF at uniforms ``u`` in [0, 1), written over
        ``u`` (or its flat copy, if it is not contiguous) chunk by chunk,
        the chunks fanned out (``hamiltonians._fan_out``)."""
        flat = u.reshape(-1)
        knots, coef = self._knots, self._coef

        def chunk(k: int) -> None:
            v = flat[k * _CHUNK : (k + 1) * _CHUNK]
            # knots[i] <= v throughout, and knots[-1] = 1.0 > v; take()
            # gathers about twice as fast as fancy indexing
            i = self._guide.take((v * _GUIDE).astype(np.intp))
            i += knots.take(i + 1) <= v
            i += knots.take(i + 1) <= v
            wide = knots.take(i + 1) <= v  # in a bin wider than two knots
            if np.any(wide):
                i[wide] = np.searchsorted(knots, v[wide], "right") - 1
            _cubic(coef, i, v - knots.take(i), out=v)

        _fan_out(chunk, range(-(-flat.size // _CHUNK)))
        return flat.reshape(u.shape)

    def draw(
        self,
        rng: np.random.Generator,
        shape,
        signs: np.random.Generator | None = None,
    ) -> np.ndarray:
        """Coordinates of shape ``shape``.  A symmetric support takes its
        sign uniforms from ``signs`` when given, else from ``rng`` after the
        magnitudes."""
        spec, c = self.spec, self.model.c
        if spec.kind == "quadratic":
            return rng.normal(0.0, math.sqrt(0.5 / c), shape)
        if spec.kind == "linear_half":
            return rng.exponential(1.0 / c, shape)
        if spec.kind == "power":
            mag = rng.gamma(1.0 / spec.p, 1.0 / c, shape) ** (1.0 / spec.p)
        else:
            mag = self._inverse(rng.random(shape))
        if spec.support == SYMMETRIC:
            # in place: the same values as np.where(u < 0.5, -mag, mag)
            np.negative(mag, out=mag, where=(rng if signs is None else signs).random(shape) < 0.5)
        return mag

    def slices(self, seed: int, block: int, shape: tuple[int, int]):
        """``(start, rows)`` pairs: the rows of ``draw(_block_rng(seed,
        block), shape)`` from row ``start`` on, with the same values, in
        consecutive slices of at most ``max(1, _SLICE // n)`` rows.

        Normal, exponential and gamma draws read the stream in order, so
        slices of them continue one another.  The sign uniforms of a
        symmetric tabulated family follow its ``rows * n`` magnitude
        uniforms; a second generator starts there: Philox yields four
        64-bit words per counter step, and each uniform takes one word.  A
        symmetric power(p) yields its whole block at once, since its gamma
        draws take a varying number of words."""
        rows, n = shape
        rng, signs = _block_rng(seed, block), None
        step = max(1, _SLICE // n)
        if self.spec.support == SYMMETRIC and self.spec.kind == "power":
            step = rows
        elif self.spec.support == SYMMETRIC and self.spec.kind != "quadratic":
            signs = _block_rng(seed, block)
            signs.bit_generator.advance(rows * n // 4)
            signs.random(rows * n % 4)
        for start in range(0, rows, step):
            yield start, self.draw(rng, (min(step, rows - start), n), signs)


def _coordinate_sampler(model: GibbsModel) -> _CoordinateSampler:
    """The model's coordinate sampler, built once per model."""
    return _memo(model._cache, "coordinate_sampler", lambda: _CoordinateSampler(model))


# ---------------------------------------------------------------------------
# surface samplers


def _check_keep(n: int, keep: int | None) -> int:
    keep = n if keep is None else keep
    if not 1 <= keep <= n:
        raise ValueError(f"keep must satisfy 1 <= keep <= n; got keep={keep}, n={n}")
    return keep


def _check_natural(name: str, value) -> None:
    """Refuse a seed or count that is not an integer >= 0; a bool is
    neither."""
    if not (isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= 0):
        raise ValueError(f"{name} must be an integer >= 0; got {value!r}")


def _check_delta(delta: float) -> None:
    # written so that nan fails too
    if not delta > 0:
        raise ValueError(f"shell width must be positive; got delta={delta!r}")


def sample_surface_scaling(model: GibbsModel, n: int, count: int, seed: int, keep: int | None = None) -> SampleBatch:
    """Exact sampler for homogeneous energies: product draws radially
    projected onto the surface.  Only the first ``keep`` coordinates of each
    point are kept (all ``n`` by default); slice by slice, so memory is
    O(count*keep + T*_SLICE) on T threads."""
    _check_count("n", n)
    _check_natural("count", count)
    _check_natural("seed", seed)
    spec = model.spec
    if spec.homogeneous_degree is None:
        raise ValueError(f"{spec.label} is not homogeneous; use the rejection sampler")
    keep = _check_keep(n, keep)
    sampler = _coordinate_sampler(model)
    target = n * model.mu
    points = np.empty((count, keep))

    def store(block: int) -> None:
        first = block * _BLOCK
        for start, rows in sampler.slices(seed, block, (min(_BLOCK, count - first), n)):
            _store_block(spec, rows, target, points, first + start)

    _fan_out(store, range(-(-count // _BLOCK)))
    return SampleBatch(
        points=points,
        n=n,
        t=model.mu,
        c=model.c,
        method="scaling",
        delta=None,
        acceptance_rate=1.0,
        seed=seed,
    )


def sample_surface_rejection(
    model: GibbsModel,
    n: int,
    delta: float,
    count: int,
    seed: int,
    max_draws: int = 20_000_000,
    keep: int | None = None,
) -> SampleBatch:
    """General sampler: keep product draws inside the energy shell
    ``|R_n/n - t| <= delta``, then project the survivors to the surface.
    Only the first ``keep`` coordinates of each point are kept (all ``n`` by
    default).  ``acceptance_rate`` is ``count`` over the rows drawn through
    the row that fills the batch, where drawing stops; the ``max_draws``
    budget refuses only a batch still short of ``count``.  Blocks are drawn
    and tested slice by slice, so memory is O(count*keep + _SLICE)."""
    _check_count("n", n)
    _check_natural("count", count)
    _check_natural("seed", seed)
    _check_delta(delta)
    spec = model.spec
    keep = _check_keep(n, keep)
    sampler = _coordinate_sampler(model)
    t = model.mu
    target = n * t
    points = np.empty((count, keep))
    kept = 0
    drawn = 0
    block = 0
    while kept < count:
        size = max(_BLOCK, min(65536, 4 * (count - kept)))
        for _, rows in sampler.slices(seed, block, (size, n)):
            energies = _row_energies(spec, rows)
            accepted = np.flatnonzero(np.abs(energies / n - t) <= delta)[: count - kept]
            if accepted.size:
                _store_block(spec, rows[accepted], target, points, kept, energies[accepted])
            kept += accepted.size
            if kept == count:
                # drawing stops at the row that fills the batch
                drawn += int(accepted[-1]) + 1
                break
            drawn += rows.shape[0]
        block += 1
        if kept < count and drawn >= max_draws:
            rate = kept / drawn
            if rate < 1e-4:
                raise RuntimeError(
                    f"acceptance rate {rate:.2e} below 1e-4 after {drawn} draws; widen the shell (delta)"
                )
            raise RuntimeError(f"draw budget exhausted at {kept}/{count} accepted; widen the shell or budget")
    return SampleBatch(
        points=points,
        n=n,
        t=t,
        c=model.c,
        method="rejection",
        delta=delta,
        acceptance_rate=kept / drawn if drawn else 1.0,
        seed=seed,
    )


def shell_mass(model: GibbsModel, n: int, delta: float, params: GridParams | None = None) -> float:
    """Predicted acceptance rate: the sum-density mass of the shell."""
    _check_delta(delta)
    wn = w_density(model, n, params)
    cdf = wn.cdf_values()
    pts = wn.points()
    lo, hi = n * (model.mu - delta), n * (model.mu + delta)
    return float(np.interp(hi, pts, cdf) - np.interp(lo, pts, cdf))


# ---------------------------------------------------------------------------
# equivalence-of-ensembles experiments


@dataclass(frozen=True)
class TestFunction:
    """Test function of the first k coordinates with a declared growth
    class: 'bounded', 'constant', or 'energy' (dominated by a multiple of
    1 + sum of coordinate energies, with the multiple declared)."""

    fn: Callable[[np.ndarray], np.ndarray]
    k: int
    name: str
    growth: str
    m_const: float | None = None

    def __post_init__(self):
        if self.growth not in ("bounded", "constant", "energy"):
            raise ValueError(f"unknown growth class {self.growth!r}")
        if self.growth == "energy" and self.m_const is None:
            raise ValueError("energy-dominated test functions must declare their multiple")


@dataclass(frozen=True)
class EnsembleGapReport:
    n: int
    k: int
    testfn: str
    e_micro: float
    e_canon: float
    gap: float
    se_micro: float
    se_canon: float


def ensemble_expectation_gap(
    model: GibbsModel,
    n: int,
    k: int,
    testfn: TestFunction,
    batch: SampleBatch,
    canonical_count: int,
    seed: int,
) -> EnsembleGapReport:
    """Surface-sample mean of the test function against a product-measure
    Monte Carlo mean, with both standard errors."""
    _check_natural("canonical_count", canonical_count)
    _check_natural("seed", seed)
    if testfn.k > k or k > n:
        raise ValueError("test function uses more coordinates than requested")
    if batch.n != n:
        raise ValueError("batch dimension mismatch")
    if batch.points.shape[1] < k:
        raise ValueError(f"batch keeps {batch.points.shape[1]} coordinates, fewer than k={k}")
    # a standard error needs at least two draws on each side
    if batch.count < 2 or canonical_count < 2:
        raise ValueError(f"need >= 2 surface and canonical draws; got {batch.count} and {canonical_count}")
    micro_vals = np.asarray(testfn.fn(batch.points[:, :k]), dtype=float)
    e_micro = float(np.mean(micro_vals))
    se_micro = float(np.std(micro_vals, ddof=1) / math.sqrt(len(micro_vals)))

    sampler = _coordinate_sampler(model)
    sums = 0.0
    sumsq = 0.0
    done = 0
    block = 0
    while done < canonical_count:
        size = min(65536, canonical_count - done)
        vals = np.empty(size)
        for start, rows in sampler.slices(seed, 2_000_000 + block, (size, k)):
            vals[start : start + rows.shape[0]] = testfn.fn(rows)
        block += 1
        sums += float(np.sum(vals))
        sumsq += float(np.sum(vals * vals))
        done += size
    e_canon = sums / canonical_count
    var = max(sumsq / canonical_count - e_canon**2, 0.0)
    se_canon = math.sqrt(var / canonical_count)
    return EnsembleGapReport(
        n=n,
        k=k,
        testfn=testfn.name,
        e_micro=e_micro,
        e_canon=e_canon,
        gap=abs(e_micro - e_canon),
        se_micro=se_micro,
        se_canon=se_canon,
    )


# ---------------------------------------------------------------------------
# empirical validation against the exact projection


def empirical_projection_check(batch: SampleBatch, reference: DensityGrid) -> float:
    """Kolmogorov-Smirnov statistic between the batch's first coordinate and
    the reference grid CDF (which must carry matching (n, t) metadata)."""
    meta = reference.meta or {}
    if meta.get("n") != batch.n or not math.isclose(meta.get("t", math.nan), batch.t, rel_tol=1e-9):
        raise ValueError("reference grid metadata does not match the batch (n, t)")
    xs = np.sort(batch.points[:, 0])
    cdf = np.interp(xs, reference.points(), reference.cdf_values())
    m = len(xs)
    ecdf_hi = np.arange(1, m + 1) / m
    ecdf_lo = np.arange(0, m) / m
    return float(np.max(np.maximum(np.abs(ecdf_hi - cdf), np.abs(cdf - ecdf_lo))))


# ---------------------------------------------------------------------------
# batch persistence


def save_batch(batch: SampleBatch, path) -> None:
    """Flat little-endian layout: magic, (n, count, t, c, method, delta,
    seed) header, then float64 rows of all n coordinates."""
    if batch.points.shape[1] != batch.n:
        raise ValueError(
            f"cannot save a batch that keeps {batch.points.shape[1]} of {batch.n} coordinates; sample it in full"
        )
    header = _HEADER.pack(
        batch.n,
        batch.count,
        batch.t,
        batch.c,
        _METHODS.index(batch.method),
        batch.delta if batch.delta is not None else math.nan,
        batch.seed,
    )
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(header)
        fh.write(np.ascontiguousarray(batch.points, dtype="<f8").tobytes())


def load_batch(path) -> SampleBatch:
    """Read a :func:`save_batch` file; a file whose size is not exactly
    what its header declares, or whose method is unknown, is refused."""
    raw = Path(path).read_bytes()
    if raw[: len(_MAGIC)] != _MAGIC:
        raise ValueError(f"{path}: not a surface-batch file (bad magic)")
    head = len(_MAGIC) + _HEADER.size
    if len(raw) < head:
        raise ValueError(f"{path}: {len(raw)} bytes cannot hold the {head}-byte surface-batch header")
    n, count, t, c, method_idx, delta, seed = _HEADER.unpack_from(raw, len(_MAGIC))
    if method_idx >= len(_METHODS):
        raise ValueError(f"{path}: unknown method index {method_idx}")
    size = head + 8 * n * count
    if len(raw) != size:
        raise ValueError(f"{path}: {len(raw)} bytes where the header (n={n}, count={count}) declares {size}")
    data = np.frombuffer(raw, dtype="<f8", offset=head, count=n * count)
    return SampleBatch(
        points=data.reshape(count, n).copy(),
        n=int(n),
        t=t,
        c=c,
        method=_METHODS[method_idx],
        delta=None if math.isnan(delta) else delta,
        acceptance_rate=math.nan,
        seed=int(seed),
    )
