"""Per-coordinate energy functions and numerical admissibility checks.

An additive energy ``R_n(x) = sum_i f(x_i)`` is built from a single
function ``f`` that is zero at the origin, strictly increasing on
``x > 0``, and either infinite on the negative half-line or symmetric.
Admissibility for the downstream convergence machinery additionally
requires a positive lower bound on the tail slope and a controlled
``f'(x)**q / f(x)`` ratio near the origin; :func:`check_class_f`
certifies both on finite scan grids and reports the witnesses found.

The one fan-out every concurrent build goes through (``_fan_out``, its
threads capped by ``THINSHELL_THREADS``), the memo every derived value
of a model or context is built through (``_memo``) and the safeguarded
Newton that the custom inverse, the central projection and energy
matching share (``_newton``) live here, at the bottom of the import
graph, since the custom inverse fans out too.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable, Sequence, TypeVar

import numpy as np

__all__ = [
    "CLOSED_FORMS",
    "HALF_LINE",
    "SYMMETRIC",
    "HamiltonianSpec",
    "MembershipReport",
    "quadratic",
    "linear_half",
    "power",
    "quartic_perturbed",
    "custom",
    "evaluate",
    "derivative",
    "inverse",
    "f_values",
    "fprime_values",
    "finv_values",
    "check_class_f",
]

HALF_LINE = "half_line"
SYMMETRIC = "symmetric"

_KINDS = ("quadratic", "linear_half", "power", "quartic_perturbed", "custom")

# (homogeneous degree d, support) -> Diaconis-Freedman offset j.  For these
# families R_n is Gamma(n/d, rate c) and the projection distance obeys
# 2(k+j)/(n-k-j): d = 2 on symmetric support is the sphere, d = 1 on the
# half-line the simplex.  Being listed here is what "closed form" means.
CLOSED_FORMS = {(2.0, SYMMETRIC): 3.0, (1.0, HALF_LINE): 1.0}


@dataclass(frozen=True)
class HamiltonianSpec:
    """One member of the energy family, with evaluators for f, f' and f^-1.

    ``fn``/``dfn``/``ifn`` act on nonnegative arrays; the symmetric case is
    generated by reflection.  ``homogeneous_degree`` is set when
    ``f(a*x) = a**d * f(x)``, which the surface samplers exploit.
    """

    kind: str
    support: str
    p: float | None = None
    eps: float | None = None
    fn: Callable[[np.ndarray], np.ndarray] | None = field(default=None, compare=False)
    dfn: Callable[[np.ndarray], np.ndarray] | None = field(default=None, compare=False)
    ifn: Callable[[np.ndarray], np.ndarray] | None = field(default=None, compare=False)
    homogeneous_degree: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.support not in (HALF_LINE, SYMMETRIC):
            raise ValueError(f"unknown support {self.support!r}")
        if self.kind == "custom" and self.fn is None:
            raise ValueError("custom specs need an evaluator")

    @property
    def label(self) -> str:
        if self.kind == "power":
            return f"power(p={self.p:g})"
        if self.kind == "quartic_perturbed":
            return f"quartic_perturbed(eps={self.eps:g})"
        return self.kind

    @property
    def closed_form(self) -> bool:
        """Whether ``(homogeneous_degree, support)`` is in CLOSED_FORMS."""
        return (self.homogeneous_degree, self.support) in CLOSED_FORMS


def quadratic() -> HamiltonianSpec:
    return HamiltonianSpec(
        kind="quadratic",
        support=SYMMETRIC,
        fn=lambda x: x * x,
        dfn=lambda x: 2.0 * x,
        ifn=lambda y: np.sqrt(y),
        homogeneous_degree=2.0,
    )


def linear_half() -> HamiltonianSpec:
    return HamiltonianSpec(
        kind="linear_half",
        support=HALF_LINE,
        fn=lambda x: np.asarray(x, dtype=float).copy(),
        dfn=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        ifn=lambda y: np.asarray(y, dtype=float).copy(),
        homogeneous_degree=1.0,
    )


def power(p: float, support: str = HALF_LINE) -> HamiltonianSpec:
    # written so that nan fails too
    if not (math.isfinite(p) and p >= 1.0):
        raise ValueError(f"power exponent p must be finite and >= 1; got {p!r}")
    return HamiltonianSpec(
        kind="power",
        support=support,
        p=float(p),
        fn=lambda x: np.power(x, p),
        dfn=lambda x: p * np.power(x, p - 1.0),
        ifn=lambda y: np.power(y, 1.0 / p),
        homogeneous_degree=float(p),
    )


def quartic_perturbed(eps: float) -> HamiltonianSpec:
    if not (math.isfinite(eps) and eps >= 0.0):
        raise ValueError(f"quartic perturbation epsilon must be finite and >= 0; got {eps!r}")

    def _inv(y):
        y = np.asarray(y, dtype=float)
        if eps == 0.0:
            return np.sqrt(y)
        # x**2 solves eps*u**2 + u - y = 0; the stable positive root
        return np.sqrt(2.0 * y / (1.0 + np.sqrt(1.0 + 4.0 * eps * y)))

    return HamiltonianSpec(
        kind="quartic_perturbed",
        support=SYMMETRIC,
        eps=float(eps),
        fn=lambda x: x * x + eps * x**4,
        dfn=lambda x: 2.0 * x + 4.0 * eps * x**3,
        ifn=_inv,
        homogeneous_degree=2.0 if eps == 0.0 else None,
    )


def custom(
    fn: Callable[[np.ndarray], np.ndarray],
    support: str = HALF_LINE,
    dfn: Callable[[np.ndarray], np.ndarray] | None = None,
    ifn: Callable[[np.ndarray], np.ndarray] | None = None,
) -> HamiltonianSpec:
    """User-supplied f on ``x >= 0`` (vectorized); derivative and inverse
    fall back to finite differences and safeguarded Newton when not given."""
    return HamiltonianSpec(kind="custom", support=support, fn=fn, dfn=dfn, ifn=ifn)


# ---------------------------------------------------------------------------
# evaluation


def f_values(spec: HamiltonianSpec, x) -> np.ndarray:
    """Vectorized f with +inf outside the finiteness set, as a fresh array.

    On the half-line, input that lies wholly in ``x >= 0`` (nan does not)
    goes to ``fn`` in one call; only mixed-sign or nan input is masked."""
    x = np.asarray(x, dtype=float)
    if spec.support == SYMMETRIC:
        return spec.fn(np.abs(x))
    if np.all(x >= 0.0):
        out = np.asarray(spec.fn(x), dtype=float)
        # an fn such as the identity hands back its argument
        return out.copy() if np.may_share_memory(out, x) else out
    out = np.full(x.shape, math.inf)
    ok = x >= 0.0
    if np.any(ok):
        out[ok] = spec.fn(x[ok])
    return out


def evaluate(spec: HamiltonianSpec, x: float) -> float:
    return float(f_values(spec, np.asarray([x]))[0])


def fprime_values(spec: HamiltonianSpec, x) -> np.ndarray:
    """f' on x > 0; central finite difference for custom specs.

    The step is relative (h = 1e-6 x) so the quadratic truncation term
    (h/x)^2 stays at the 1e-12 level across all scales.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise ValueError("derivative requires x > 0")
    if spec.dfn is not None:
        return spec.dfn(x)
    h = 1e-6 * x
    return (spec.fn(x + h) - spec.fn(x - h)) / (2.0 * h)


def derivative(spec: HamiltonianSpec, x: float) -> float:
    return float(fprime_values(spec, np.asarray([x]))[0])


# ---------------------------------------------------------------------------
# threads


_I = TypeVar("_I")
_R = TypeVar("_R")
# marks helper threads, whose own fan-outs run inline
_WORKER = threading.local()


def _pool_size(tasks: int) -> int:
    """Threads for ``tasks`` independent tasks: the CPU count, or
    ``THINSHELL_THREADS`` when it is set, and never more than ``tasks``;
    1 on a helper thread."""
    cap = os.environ.get("THINSHELL_THREADS")
    if cap:
        try:
            limit = int(cap)
        except ValueError:
            limit = 0
        if limit < 1:
            raise ValueError(f"THINSHELL_THREADS must be an integer >= 1; got {cap!r}")
    else:
        limit = os.cpu_count() or 1
    if getattr(_WORKER, "active", False):
        return 1
    return max(1, min(tasks, limit))


def _fan_out(fn: Callable[[_I], _R], items: Sequence[_I]) -> list[_R]:
    """``[fn(item) for item in items]``, with the items handed out in order,
    one at a time, to the calling thread and ``_pool_size(len(items)) - 1``
    helper threads; inline when that is one thread.  While helpers run, the
    calling thread counts as one of them too, so no item fans out further.
    After the first failure no further item starts; the error of the lowest
    failing item is raised once every helper has stopped."""
    threads = _pool_size(len(items))
    if threads == 1:
        return [fn(item) for item in items]
    results: list = [None] * len(items)
    errors: dict[int, BaseException] = {}
    lock = threading.Lock()
    handed = 0

    def work() -> None:
        nonlocal handed
        while True:
            with lock:
                if errors or handed == len(items):
                    return
                i, handed = handed, handed + 1
            try:
                results[i] = fn(items[i])
            except BaseException as exc:
                with lock:
                    errors[i] = exc
                return

    def helper() -> None:
        _WORKER.active = True
        work()

    helpers = [threading.Thread(target=helper, daemon=True) for _ in range(1, threads)]
    _WORKER.active = True
    try:
        for thread in helpers:
            thread.start()
        work()
    finally:
        _WORKER.active = False
        for thread in helpers:
            thread.join()
    if errors:
        raise errors[min(errors)]
    return results


_T = TypeVar("_T")
# guards the per-key futures in every memo that _memo serves
_MEMO_LOCK = threading.Lock()


def _memo(cache: dict, key, build: Callable[[], _T]) -> _T:
    """``build()``, memoised in ``cache`` under ``key`` as a Future: every
    request gets the same value, concurrent requests for one key share a
    single build, and a build that raises is evicted so the next request
    retries.  The build runs outside the lock, so it may use the memo for
    other keys."""
    with _MEMO_LOCK:
        future = cache.get(key)
        owner = future is None
        if owner:
            future = cache[key] = Future()
    if owner:
        try:
            future.set_result(build())
        except BaseException as exc:
            with _MEMO_LOCK:
                del cache[key]
            future.set_exception(exc)
            raise
    return future.result()


def _newton(residual: Callable, x: np.ndarray, hi: float | np.ndarray, rtol: float, what: str) -> np.ndarray:
    """Roots of increasing functions, one per entry, by safeguarded Newton
    (rtsafe; Press et al., Numerical Recipes section 9.4) from ``x``.

    ``residual(x, live)`` returns the values g and slopes of the entries
    ``live`` (indices into ``x``) at ``x``.  The sign of each g shrinks the
    entry's bracket ``[lo, hi]``, with ``lo`` from 0 and ``hi`` possibly
    +inf; a point not strictly inside it is replaced by ``2 max(lo, prev)``,
    prev the entry's last evaluated point (its start before the first),
    while ``hi`` is infinite (so an entry whose g is nan keeps doubling and
    is never sent to 0) and by bisection after.  An entry stops
    once its Newton correction ``g / slope`` or its bracket is at most
    ``rtol * x``; the correction is then applied if it stays in the
    bracket."""
    x = np.array(x, dtype=float)
    out, live, prev = np.empty(x.size), np.arange(x.size), x
    lo, hi = np.zeros(x.size), np.full(x.size, hi, dtype=float)

    def fallback():
        return np.where(np.isinf(hi), 2.0 * np.maximum(lo, prev), 0.5 * (lo + hi))

    for _ in range(200):
        if not live.size:
            return out
        inside = (x > lo) & (x < hi)
        if not np.all(inside):
            x = np.where(inside, x, fallback())
        g, slope = residual(x, live)
        prev = x
        hi = np.where(g >= 0.0, x, hi)
        lo = np.where(g <= 0.0, x, lo)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = g / slope
        tol = rtol * x
        done = (np.abs(step) <= tol) | (hi - lo <= tol)
        x = x - step
        if np.any(done):
            out[live[done]] = np.where((x >= lo) & (x <= hi), x, fallback())[done]
            keep = ~done
            live, x, prev, lo, hi = live[keep], x[keep], prev[keep], lo[keep], hi[keep]
    if live.size:
        raise RuntimeError(f"{what} did not converge in 200 steps")
    return out


# Newton correction (relative to x) at which the inverse stops
_FINV_RTOL = 1e-12
# nodes of the geometric table that seeds the inverse, and the ratio of its
# first positive abscissa to its last
_FINV_TABLE = 8192
_FINV_TABLE_SPAN = 1e-16
# targets per Newton chunk; chunks are fanned out over threads
_FINV_CHUNK = 32768


def finv_values(spec: HamiltonianSpec, y) -> np.ndarray:
    """Unique x >= 0 with f(x) = y, for finite y >= 0; :func:`_newton` on
    ``f(x) - y`` for custom specs.

    Without an inverse, each node starts from monotone interpolation in a
    geometric table of f over the bracket ``[0, max(1, y)/a1 + a2]`` that
    the tail witness guarantees, and stops at ``_FINV_RTOL * x`` (relative,
    since an inverse near 0 may be far below y: ``x ~ y^2`` for ``sqrt(x) + x``).
    ``f^{-1}(0) = 0`` exactly.  The table is built once per call, from the
    largest y; the positive targets are then solved in ``_FINV_CHUNK``
    chunks fanned out (:func:`_fan_out`) to the calling thread and helpers.
    Each node's iteration is its own, so no value depends on the chunking
    or the thread count.
    """
    y = np.asarray(y, dtype=float)
    finite = (y >= 0.0) & (y < math.inf)
    if not np.all(finite):
        raise ValueError(f"inverse requires finite y >= 0; got y={float(y[~finite].flat[0])!r}")
    if spec.ifn is not None:
        return spec.ifn(y)
    witness = check_class_f(spec).tail_slope
    if witness is None:
        raise ValueError("cannot bracket the inverse: no tail slope witness")
    a1, a2 = witness
    out = np.zeros(y.size)
    positive = np.flatnonzero(y > 0.0)
    targets = y.ravel()[positive]
    with np.errstate(over="ignore"):
        brackets = np.maximum(1.0, targets) / a1 + a2
    if not np.all(brackets < math.inf):
        raise ValueError(f"cannot bracket the inverse at y={float(targets[brackets == math.inf][0])!r}")
    top = float(np.max(brackets, initial=1.0 / a1 + a2))
    x_tab = np.concatenate(([0.0], np.geomspace(_FINV_TABLE_SPAN * top, top, _FINV_TABLE - 1)))
    f_tab = spec.fn(x_tab)

    def chunk(j: int) -> None:
        part = slice(j * _FINV_CHUNK, (j + 1) * _FINV_CHUNK)
        target = targets[part]

        def residual(x, live):
            # only points strictly inside the bracket come here (f' needs x > 0)
            return spec.fn(x) - target[live], fprime_values(spec, x)

        start = np.interp(target, f_tab, x_tab)
        out[positive[part]] = _newton(residual, start, brackets[part], _FINV_RTOL, "inverse")

    _fan_out(chunk, range(-(-positive.size // _FINV_CHUNK)))
    return out.reshape(y.shape)


def inverse(spec: HamiltonianSpec, y: float) -> float:
    return float(finv_values(spec, np.asarray([y]))[0])


# ---------------------------------------------------------------------------
# class membership


# scan grids of check_class_f: log-spaced points near the origin and far out
_ORIGIN_LO, _ORIGIN_HI = 1e-8, 1e-1
_TAIL_LO, _TAIL_HI = 1.0, 1e6
_POINTS_PER_DECADE = 8
_Q_GRID = tuple(np.round(np.linspace(1.05, 1.95, 19), 2))
_A3_THRESHOLD = 1e-6
# f' decaying like x**e with e below this is treated as sinking to zero
_DECAY_EXPONENT_FLOOR = -0.05


@dataclass(frozen=True)
class MembershipReport:
    f0_ok: bool
    monotone_ok: bool
    support_ok: bool
    tail_slope: tuple[float, float] | None
    origin_exponent: tuple[float, float] | None
    overall: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(
            self,
            "overall",
            self.f0_ok
            and self.monotone_ok
            and self.support_ok
            and self.tail_slope is not None
            and self.origin_exponent is not None,
        )


def _log_grid(lo: float, hi: float, per_decade: int) -> np.ndarray:
    n = max(2, int(math.ceil(per_decade * math.log10(hi / lo))) + 1)
    return np.geomspace(lo, hi, n)


def check_class_f(spec: HamiltonianSpec) -> MembershipReport:
    """Certify admissibility numerically and record the witnesses.

    The tail condition passes when the sampled slope stays positive and its
    log-log trend over the last two decades is flat or rising; the origin
    condition searches the q grid and keeps the witness with the largest
    margin ``min f'(x)**q / f(x)``.
    """
    f0_ok = evaluate(spec, 0.0) == 0.0

    origin = _log_grid(_ORIGIN_LO, _ORIGIN_HI, _POINTS_PER_DECADE)
    tail = _log_grid(_TAIL_LO, _TAIL_HI, _POINTS_PER_DECADE)
    xs = np.concatenate([origin, tail])
    fx = spec.fn(xs)
    monotone_ok = bool(np.all(np.diff(fx) > 0.0)) and bool(np.all(fx > 0.0))

    if spec.support == HALF_LINE:
        support_ok = evaluate(spec, -1.0) == math.inf and evaluate(spec, -1e-9) == math.inf
    else:
        probe = np.array([0.3, 1.7, 42.0])
        support_ok = bool(np.allclose(f_values(spec, -probe), f_values(spec, probe), rtol=0, atol=0))

    tail_slope = None
    slopes = fprime_values(spec, tail)
    if monotone_ok and np.all(slopes > 0.0):
        two_decades = tail >= _TAIL_HI / 100.0
        trend = np.polyfit(np.log(tail[two_decades]), np.log(slopes[two_decades]), 1)[0]
        if trend >= _DECAY_EXPONENT_FLOOR:
            tail_slope = (float(np.min(slopes) / 2.0), float(_TAIL_LO))

    origin_exponent = None
    if monotone_ok:
        fp0 = fprime_values(spec, origin)
        f0 = spec.fn(origin)
        best_q, best_a3 = None, -math.inf
        for q in _Q_GRID:
            a3 = float(np.min(fp0**q / f0))
            if a3 > best_a3:
                best_q, best_a3 = float(q), a3
        if best_q is not None and best_a3 >= _A3_THRESHOLD:
            origin_exponent = (best_q, best_a3)

    return MembershipReport(
        f0_ok=f0_ok,
        monotone_ok=monotone_ok,
        support_ok=support_ok,
        tail_slope=tail_slope,
        origin_exponent=origin_exponent,
    )
