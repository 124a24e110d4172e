"""Monte Carlo samplers for constant-energy surfaces and the
expectation-gap experiments comparing the two ensembles.

For homogeneous energies the direction of a Gibbs-distributed vector is
independent of its total energy, so drawing product samples and radially
projecting them onto the surface is exact.  In general that independence
fails; the general route conditions on a thin shell ``|R_n/n - t| <= delta``
before projecting, trading a bias of order delta for tractability.

The projection scales each row by kappa with ``R_n(kappa x) = nt``.  A
homogeneous energy of degree d has the closed form ``kappa = (nt/R_n)^(1/d)``.
Otherwise kappa solves ``sum f(kappa |x_i|) = nt`` by Newton's method from
kappa = 1 (rejection rows start in the shell, close to the root), with
``f'`` from ``fprime_values``; each row keeps a bracket, and a step that
leaves it or is not finite is replaced by doubling or bisection.  Every
projected block is checked on the surface to relative 1e-9.  Rows kept by
the rejection sampler bring the ``R_n`` of its shell test into the first
Newton sweep (or the closed form), so it is not evaluated twice.

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
block writes its own rows, so the scaling sampler runs its blocks on the
calling thread plus helper threads, striped: with T threads, thread r takes
blocks r, r + T, ...; the inverse CDF stripes its 32768-point chunks the
same way.  No draw depends on which thread made it.  ``THINSHELL_THREADS``
caps T; by default it is the CPU count.  The rejection sampler's blocks stay
in order, since each block's size depends on the rows kept so far.

Memory is O(count*keep) for the kept columns plus the draws in flight: T
blocks of 1024 rows for the scaling sampler, and for the rejection sampler
one chunk of ``max(1, 2**18 // n)`` rows of its block of up to 65536, drawn,
shell-tested, projected and stored before the next, with the values the
whole block would have (:meth:`_CoordinateSampler.draw_chunks`; a symmetric
power(p) draws its blocks whole).
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
from .hamiltonians import SYMMETRIC, HamiltonianSpec, _memo, _pool_size, _striped, f_values, fprime_values
from .sumdensity import w_density

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
# is exact) and the uniforms per inverse-CDF chunk
_GUIDE = 2**16
_CHUNK = 32768
# coordinates per chunk of a rejection block: 2 MiB of float64, below the
# 4 MiB mmap threshold that cli sets, so chunk buffers reuse the heap
_REJECT_CHUNK = 2**18
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


def _project_rows(
    spec: HamiltonianSpec, rows: np.ndarray, target: float, energies: np.ndarray | None = None
) -> np.ndarray:
    """Scale factors kappa with ``R_n(kappa x) = target`` per row;
    ``energies``, when given, are the rows' ``R_n``."""
    if spec.homogeneous_degree is not None:
        if energies is None:
            energies = _row_energies(spec, rows)
        return (target / energies) ** (1.0 / spec.homogeneous_degree)
    kappa = np.empty(rows.shape[0])
    for start in range(0, rows.shape[0], _BLOCK):
        block = slice(start, start + _BLOCK)
        kappa[block] = _newton_scales(spec, rows[block], target, None if energies is None else energies[block])
    return kappa


# Newton correction (relative to kappa) at which a row's scale factor stops,
# and the number of steps after which the projection gives up
_KAPPA_RTOL = 1e-14
_KAPPA_STEPS = 200


def _newton_scales(
    spec: HamiltonianSpec, rows: np.ndarray, target: float, energies: np.ndarray | None = None
) -> np.ndarray:
    """Safeguarded Newton for ``g(kappa) = sum f(kappa |x_i|) - target`` per
    row, from kappa = 1, with ``g'(kappa) = sum |x_i| f'(kappa |x_i|)``.

    Each evaluation of g shrinks the row's bracket ``[lo, hi]`` (``hi``
    starts at +inf); a step that leaves the bracket, or is not finite, is
    replaced by doubling while ``hi`` is infinite and by bisection after.
    A row stops once its Newton correction, which is applied, is at most
    ``_KAPPA_RTOL * kappa``, or its bracket is that narrow.  ``energies``,
    when given, are the rows' ``R_n``: g at kappa = 1, the first sweep."""
    # half-line rows keep their sign, so a negative coordinate gives g = +inf
    a = np.abs(rows) if spec.support == SYMMETRIC else rows
    out = np.empty(a.shape[0])
    idx = np.arange(a.shape[0])
    kappa = np.ones(a.shape[0])
    lo = np.zeros(a.shape[0])
    hi = np.full(a.shape[0], math.inf)
    for _ in range(_KAPPA_STEPS):
        y = kappa[:, None] * a
        g = (np.sum(f_values(spec, y), axis=1) if energies is None else energies) - target
        energies = None
        hi = np.where(g >= 0.0, kappa, hi)
        lo = np.where(g <= 0.0, kappa, lo)
        # f' needs x > 0; zero coordinates add 0 * f'(1) to the slope
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            dg = np.sum(a * fprime_values(spec, np.where(a > 0.0, y, 1.0)), axis=1)
            step = g / dg
        done = (np.abs(step) <= _KAPPA_RTOL * kappa) | (hi - lo <= _KAPPA_RTOL * kappa)
        new = kappa - step
        fallback = np.where(np.isinf(hi), 2.0 * lo, 0.5 * (lo + hi))
        if np.any(done):
            final = np.where((new >= lo) & (new <= hi), new, fallback)
            out[idx[done]] = final[done]
            keep = ~done
            idx, a, new, fallback, lo, hi = idx[keep], a[keep], new[keep], fallback[keep], lo[keep], hi[keep]
        # only points strictly inside the bracket are evaluated again
        kappa = np.where((new > lo) & (new < hi), new, fallback)
        if not idx.size:
            return out
    raise RuntimeError(f"central projection did not converge in {_KAPPA_STEPS} steps")


def central_projection(spec: HamiltonianSpec, x: np.ndarray, t: float) -> np.ndarray:
    """Radial image ``kappa * x`` on the surface at level nt, with the
    on-surface residual verified to relative 1e-10."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("central_projection takes a single vector")
    if not np.any(x != 0.0):
        raise ValueError("the zero vector has no radial image on the surface")
    if np.any(~np.isfinite(f_values(spec, x))):
        raise ValueError("coordinates outside the finiteness set")
    n = x.shape[0]
    target = n * t
    kappa = float(_project_rows(spec, x[None, :], target)[0])
    out = kappa * x
    resid = abs(float(_row_energies(spec, out[None, :])[0]) - target)
    if resid > 1e-10 * target:
        raise RuntimeError(f"projection residual {resid:.2e} exceeds tolerance")
    return out


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
    (Moler 2004, pchiptx)."""
    hk = x[1:] - x[:-1]
    mk = (y[1:] - y[:-1]) / hk
    smk = np.sign(mk)
    condition = (smk[1:] != smk[:-1]) | (mk[1:] == 0) | (mk[:-1] == 0)
    w1 = 2 * hk[1:] + hk[:-1]
    w2 = hk[1:] + 2 * hk[:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        whmean = (w1 / mk[:-1] + w2 / mk[1:]) / (w1 + w2)
    dk = np.zeros_like(y)
    dk[1:-1][~condition] = 1.0 / whmean[~condition]
    dk[0] = _pchip_end_slope(hk[0], hk[1], mk[0], mk[1])
    dk[-1] = _pchip_end_slope(hk[-1], hk[-2], mk[-1], mk[-2])
    # CubicHermiteSpline's secant slopes, np.diff(y) / np.diff(x), are mk
    t = (dk[:-1] + dk[1:] - 2 * mk) / hk
    return np.stack((t / hk, (mk - dk[:-1]) / hk - t, dk[:-1], y[:-1]), axis=1)


def _pchip_end_slope(h0: float, h1: float, m0: float, m1: float) -> float:
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _cubic(coef: np.ndarray, s: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``coef[:, 0] s^3 + ... + coef[:, 3]`` summed in scipy's ``PPoly``
    order, ``((c3 + c2 s) + c1 s^2) + c0 (s^2 s)``, into ``out`` when given
    (an array other than ``s``); + and * commute exactly."""
    s2 = s * s
    out = np.multiply(coef[:, 2], s, out=out)
    out += coef[:, 3]
    out += coef[:, 1] * s2
    s2 *= s
    s2 *= coef[:, 0]
    out += s2
    return out


def _pchip_at(knots: np.ndarray, coef: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The piecewise cubic at ``v``, continued past either end by the end
    intervals' cubics."""
    i = np.clip(np.searchsorted(knots, v, "right") - 1, 0, len(knots) - 2)
    return _cubic(coef[i], v - knots[i])


class _CoordinateSampler:
    """Exact transforms where available, tabulated inverse CDF otherwise."""

    def __init__(self, model: GibbsModel):
        self.model = model
        self.spec = model.spec
        kind = self.spec.kind
        if kind in ("quadratic", "linear_half", "power"):
            return
        # inverse CDF of the coordinate density exp(-c f)/Z on x >= 0
        x_max = model.x_max
        xs = np.linspace(0.0, x_max, 2**16 + 1)
        pdf = np.exp(-model.c * f_values(self.spec, xs)) / model.z
        if self.spec.support == SYMMETRIC:
            pdf = 2.0 * pdf  # CDF of |X|
        cdf = np.concatenate(([0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * (xs[1] - xs[0]))))
        cdf /= cdf[-1]
        keep = np.concatenate(([True], np.diff(cdf) > 0))
        # the inverse: knots from 0.0 to 1.0, one coefficient row (cubic
        # first) per interval, and per guide bin j the interval holding
        # j / _GUIDE
        self._knots, self._values = cdf[keep], xs[keep]
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
        the chunks spread over ``_pool_size`` threads (1 on a helper or
        pool thread)."""
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
            _cubic(coef.take(i, axis=0), v - knots.take(i), out=v)

        chunks = -(-flat.size // _CHUNK)
        _striped(chunks, chunk, _pool_size(chunks))
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

    def draw_chunks(self, seed: int, block: int, shape: tuple[int, int], chunk: int):
        """The rows of ``draw(_block_rng(seed, block), shape)``, in
        order, ``chunk`` rows at a time, with the same values.

        Normal, exponential and gamma draws read the stream in order, so
        chunks of them continue one another.  The sign uniforms of a
        symmetric tabulated family follow its ``rows * n`` magnitude
        uniforms; a second generator starts there: Philox yields four
        64-bit words per counter step, and each uniform takes one word.  A
        symmetric power(p) yields its whole block at once, since its gamma
        draws take a varying number of words."""
        rows, n = shape
        rng, signs = _block_rng(seed, block), None
        if self.spec.support == SYMMETRIC and self.spec.kind == "power":
            chunk = rows
        elif self.spec.support == SYMMETRIC and self.spec.kind != "quadratic":
            signs = _block_rng(seed, block)
            signs.bit_generator.advance(rows * n // 4)
            signs.random(rows * n % 4)
        for start in range(0, rows, chunk):
            yield self.draw(rng, (min(chunk, rows - start), n), signs)


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


def _store_block(
    spec: HamiltonianSpec,
    rows: np.ndarray,
    target: float,
    points: np.ndarray,
    start: int,
    energies: np.ndarray | None = None,
) -> None:
    """Project one block of draws onto the surface (in place), check it, and
    copy its first ``points.shape[1]`` columns to ``points[start:]``;
    ``energies``, when given, are the rows' ``R_n``."""
    rows *= _project_rows(spec, rows, target, energies)[:, None]
    resid = np.max(np.abs(_row_energies(spec, rows) - target))
    if resid > 1e-9 * target:
        raise RuntimeError(f"batch off the surface: residual {resid:.2e}")
    points[start : start + rows.shape[0]] = rows[:, : points.shape[1]]


def sample_surface_scaling(model: GibbsModel, n: int, count: int, seed: int, keep: int | None = None) -> SampleBatch:
    """Exact sampler for homogeneous energies: product draws radially
    projected onto the surface.  Only the first ``keep`` coordinates of each
    point are kept (all ``n`` by default); block by block, so memory is
    O(count*keep + block*n)."""
    spec = model.spec
    if spec.homogeneous_degree is None:
        raise ValueError(f"{spec.label} is not homogeneous; use the rejection sampler")
    keep = _check_keep(n, keep)
    sampler = _coordinate_sampler(model)
    target = n * model.mu
    points = np.empty((count, keep))

    def store(block: int) -> None:
        start = block * _BLOCK
        rows = sampler.draw(_block_rng(seed, block), (min(_BLOCK, count - start), n))
        _store_block(spec, rows, target, points, start)

    blocks = -(-count // _BLOCK)
    _striped(blocks, store, _pool_size(blocks))
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
    default)."""
    if not delta > 0:
        raise ValueError(f"shell width must be positive; got delta={delta!r}")
    spec = model.spec
    keep = _check_keep(n, keep)
    sampler = _coordinate_sampler(model)
    t = model.mu
    target = n * t
    points = np.empty((count, keep))
    kept = 0
    drawn = 0
    block = 0
    chunk = max(1, _REJECT_CHUNK // n)
    while kept < count:
        size = max(_BLOCK, min(65536, 4 * (count - kept)))
        # the block's rows past the last one stored still count as kept, so
        # the acceptance rate reads the whole block
        for rows in sampler.draw_chunks(seed, block, (size, n), chunk):
            energies = _row_energies(spec, rows)
            accept = np.abs(energies / n - t) <= delta
            room = count - kept
            if room > 0 and np.any(accept):
                _store_block(spec, rows[accept][:room], target, points, kept, energies[accept][:room])
            kept += int(np.count_nonzero(accept))
        block += 1
        drawn += size
        if drawn >= max_draws:
            rate = kept / drawn
            if rate < 1e-4:
                raise RuntimeError(
                    f"acceptance rate {rate:.2e} below 1e-4 after {drawn} draws; widen the shell (delta)"
                )
            if kept < count:
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
        rng = _block_rng(seed, 2_000_000 + block)
        block += 1
        vals = np.asarray(testfn.fn(sampler.draw(rng, (size, k))), dtype=float)
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
    raw = Path(path).read_bytes()
    if raw[: len(_MAGIC)] != _MAGIC:
        raise ValueError("not a surface-batch file (bad magic)")
    n, count, t, c, method_idx, delta, seed = _HEADER.unpack_from(raw, len(_MAGIC))
    data = np.frombuffer(raw, dtype="<f8", offset=len(_MAGIC) + _HEADER.size, count=n * count)
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
