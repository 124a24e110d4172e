import inspect
import math
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import wrightomega

from thinshell import cli, hamiltonians as ham

# targets for the inverse without a supplied f^-1: zero and eighteen decades
INVERSE_YS = np.concatenate(([0.0], np.geomspace(1e-12, 1e6, 400)))


class TestEvaluate:
    def test_quadratic(self):
        assert ham.evaluate(ham.quadratic(), 2.0) == 4.0

    def test_linear_half_is_infinite_below_zero(self):
        assert ham.evaluate(ham.linear_half(), -1.0) == math.inf

    def test_quartic(self):
        assert ham.evaluate(ham.quartic_perturbed(0.5), 1.0) == 1.5

    def test_symmetric_reflection(self):
        spec = ham.power(3, support=ham.SYMMETRIC)
        assert ham.evaluate(spec, -2.0) == ham.evaluate(spec, 2.0) == 8.0

    def test_zero_at_origin(self):
        for spec in (ham.quadratic(), ham.linear_half(), ham.power(1.5), ham.quartic_perturbed(1.0)):
            assert ham.evaluate(spec, 0.0) == 0.0


def masked_f_values(spec, x):
    """The half-line f_values written out: +inf wherever x >= 0 fails."""
    out = np.full(x.shape, math.inf)
    ok = x >= 0.0
    out[ok] = spec.fn(x[ok])
    return out


HALF_LINE_SPECS = {
    "linear_half": ham.linear_half(),
    "power3": ham.power(3),
    "identity": ham.custom(lambda x: x),
}
SHAPES = hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=6)
# zeros, negatives and nan mixed in, or every entry in the support
MIXED = hnp.arrays(float, SHAPES, elements=st.sampled_from([0.0, -0.0, -1.5, -1e-300, math.nan, 0.25, 3.0, 1e100]))
NONNEGATIVE = hnp.arrays(float, SHAPES, elements=st.floats(0.0, 1e100))


class TestHalfLineValues:
    @pytest.mark.parametrize("name", HALF_LINE_SPECS)
    @given(x=st.one_of(MIXED, NONNEGATIVE))
    def test_matches_masked_route_in_a_fresh_array(self, name, x):
        spec = HALF_LINE_SPECS[name]
        before = x.copy()
        out = ham.f_values(spec, x)
        np.testing.assert_array_equal(out, masked_f_values(spec, x))
        assert out.shape == x.shape and out.dtype == np.float64
        assert not np.shares_memory(out, x)
        out[...] = 7.0
        np.testing.assert_array_equal(x, before)


class TestDerivative:
    def test_quadratic(self):
        assert ham.derivative(ham.quadratic(), 3.0) == 6.0

    def test_power(self):
        assert ham.derivative(ham.power(3), 2.0) == 12.0

    def test_linear(self):
        assert ham.derivative(ham.linear_half(), 5.0) == 1.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ham.derivative(ham.quadratic(), 0.0)

    def test_custom_finite_difference(self):
        spec = ham.custom(lambda x: np.power(x, 3))
        xs = np.geomspace(1e-4, 1e3, 50)
        np.testing.assert_allclose(ham.fprime_values(spec, xs), 3 * xs**2, rtol=1e-8)


class TestInverse:
    def test_quadratic(self):
        assert ham.inverse(ham.quadratic(), 9.0) == 3.0

    def test_power(self):
        assert ham.inverse(ham.power(3), 8.0) == 2.0

    def test_quartic(self):
        assert ham.inverse(ham.quartic_perturbed(1.0), 2.0) == pytest.approx(1.0, rel=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ham.inverse(ham.quadratic(), -1.0)

    @pytest.mark.parametrize("spec", [ham.quadratic(), ham.custom(lambda x: x + x**3 / 3.0)])
    def test_rejects_nan(self, spec):
        with pytest.raises(ValueError, match="y >= 0"):
            ham.finv_values(spec, np.array([1.0, math.nan]))

    def test_custom_bisection(self):
        spec = ham.custom(lambda x: x + np.power(x, 3))
        ys = np.geomspace(1e-3, 1e3, 20)
        xs = ham.finv_values(spec, ys)
        np.testing.assert_allclose(spec.fn(xs), ys, rtol=1e-10)

    @staticmethod
    def _assert_inverse(spec, ys, expected):
        """Within ``1e-12 max(x, 1)``: the inverse stops at ``1e-12 x``, but the
        closed forms cancel near 0 and are no closer oracle there."""
        xs = ham.finv_values(spec, ys)
        assert np.all(np.abs(xs - expected) <= 1e-12 * np.maximum(expected, 1.0))

    @pytest.mark.parametrize("support", [ham.HALF_LINE, ham.SYMMETRIC])
    def test_custom_cubic_against_cardano(self, support):
        """x + x^3/3 = y is the depressed cubic x^3 + 3x - 3y = 0, whose
        real root is ``u - 1/u`` with ``u = cbrt(3y/2 + sqrt(9y^2/4 + 1))``."""
        u = np.cbrt(1.5 * INVERSE_YS + np.sqrt(2.25 * INVERSE_YS**2 + 1.0))
        spec = ham.custom(lambda x: x + x**3 / 3.0, support=support)
        self._assert_inverse(spec, INVERSE_YS, u - 1.0 / u)

    @pytest.mark.parametrize("support", [ham.HALF_LINE, ham.SYMMETRIC])
    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_custom_power_against_closed_inverse(self, p, support):
        spec = ham.custom(lambda x: np.power(x, p), support=support)
        self._assert_inverse(spec, INVERSE_YS, ham.power(p).ifn(INVERSE_YS))

    def test_custom_concave(self):
        """f = x + log1p(x) is concave, so a Newton step from above the root
        lands below it; the bracket keeps the iteration in bounds.  With
        u = 1 + x, u + log u = y + 1 gives u = W(e^(y+1)), Wright's omega."""
        spec = ham.custom(lambda x: x + np.log1p(x))
        self._assert_inverse(spec, INVERSE_YS, wrightomega(INVERSE_YS + 1.0).real - 1.0)

    def test_custom_zero_is_exact(self):
        spec = ham.custom(lambda x: x + x**3 / 3.0)
        assert ham.inverse(spec, 0.0) == 0.0
        assert np.all(ham.finv_values(spec, np.zeros((2, 3))) == 0.0)

    def test_custom_evaluation_count(self):
        """On a sum-density grid of 2^17 nodes the inverse evaluates f at no
        more than 15 times as many points as the grid has (a finite-difference
        f' costs two evaluations per point; bisection took about 43)."""
        ys = (30.0 / 2**17) * np.arange(1, 2**17)
        sizes = []

        def fn(x):
            sizes.append(np.size(x))
            return x + x**3 / 3.0

        xs = ham.finv_values(ham.custom(fn), ys)
        assert sum(sizes) <= 15 * ys.size
        np.testing.assert_allclose(xs + xs**3 / 3.0, ys, rtol=1e-14)

    @given(p=st.floats(1.0, 4.0), y=st.floats(1e-9, 1e6))
    def test_custom_power_property(self, p, y):
        x = ham.inverse(ham.custom(lambda x: np.power(x, p)), y)
        expected = y ** (1.0 / p)
        assert abs(x - expected) <= 1e-12 * max(expected, 1.0)

    def test_roundtrip_all_builtins(self):
        """inverse(evaluate(x)) = x across twelve decades."""
        xs = np.geomspace(1e-6, 1e6, 200)
        for spec in (ham.quadratic(), ham.linear_half(), ham.power(1.5), ham.power(4)):
            ys = spec.fn(xs)
            np.testing.assert_allclose(ham.finv_values(spec, ys), xs, rtol=1e-8)

    def test_quartic_roundtrip(self):
        # the quartic overflows past ~1e77 inputs; stay inside float range
        xs = np.geomspace(1e-6, 1e6, 200)
        spec = ham.quartic_perturbed(0.3)
        np.testing.assert_allclose(ham.finv_values(spec, spec.fn(xs)), xs, rtol=1e-8)


CUBIC = ham.custom(lambda x: x + x**3 / 3.0)
# targets across two chunk edges, rising, so that only the last chunk holds
# the largest; then zero, a tiny and a large target
STRIPED_YS = np.concatenate((np.geomspace(1e-12, 1e6, 2 * ham._FINV_CHUNK + 7), [0.0, 1e-300, 1e6]))


class TestStripedInverse:
    """The inverse solves its targets in chunks fanned out over threads; no
    value depends on the chunking or the thread count."""

    def test_same_values_on_any_thread_count(self, monkeypatch):
        chunk = ham._FINV_CHUNK
        monkeypatch.setenv("THINSHELL_THREADS", "1")
        monkeypatch.setattr(ham, "_FINV_CHUNK", STRIPED_YS.size)  # one chunk: the unchunked loop
        whole = ham.finv_values(CUBIC, STRIPED_YS)
        monkeypatch.setattr(ham, "_FINV_CHUNK", chunk)
        for threads in ("1", "2", None):
            if threads is None:
                monkeypatch.delenv("THINSHELL_THREADS")
            else:
                monkeypatch.setenv("THINSHELL_THREADS", threads)
            np.testing.assert_array_equal(ham.finv_values(CUBIC, STRIPED_YS), whole)
        assert whole[-3] == 0.0
        assert whole[-2] == pytest.approx(1e-300, rel=1e-12)
        u = np.cbrt(1.5 * STRIPED_YS + np.sqrt(2.25 * STRIPED_YS**2 + 1.0))
        assert np.all(np.abs(whole - (u - 1.0 / u)) <= 1e-12 * np.maximum(whole, 1.0))

    def test_refusals_survive_striping(self, monkeypatch):
        """nan is refused before any chunk runs; a node that never stops
        (no slack in the stopping rule) still raises after 200 steps, also
        from a helper thread's chunk."""
        monkeypatch.setenv("THINSHELL_THREADS", "2")
        with pytest.raises(ValueError, match="y >= 0"):
            ham.finv_values(CUBIC, np.append(STRIPED_YS, math.nan))
        monkeypatch.setattr(ham, "_FINV_RTOL", 0.0)
        monkeypatch.setattr(ham, "_FINV_CHUNK", 64)
        with pytest.raises(RuntimeError, match="did not converge in 200 steps"):
            ham.finv_values(CUBIC, np.geomspace(1e-3, 1e3, 256))


def reference_finv(spec, y):
    """The custom inverse as one loop of its own (the table seed, and the
    chunk loop as it stood before it moved onto ``ham._newton``, with the
    stop relative to x), run on one thread: the byte oracle of the shared
    iteration."""
    y = np.asarray(y, dtype=float)
    a1, a2 = ham.check_class_f(spec).tail_slope
    out = np.zeros(y.size)
    positive = np.flatnonzero(y > 0.0)
    targets = y.ravel()[positive]
    brackets = np.maximum(1.0, targets) / a1 + a2
    top = float(np.max(brackets, initial=1.0 / a1 + a2))
    x_tab = np.concatenate(([0.0], np.geomspace(ham._FINV_TABLE_SPAN * top, top, ham._FINV_TABLE - 1)))
    f_tab = spec.fn(x_tab)

    def chunk(j: int) -> None:
        part = slice(j * ham._FINV_CHUNK, (j + 1) * ham._FINV_CHUNK)
        idx, target, hi = positive[part], targets[part], brackets[part]
        lo = np.zeros_like(target)
        x = np.interp(target, f_tab, x_tab)
        for _ in range(200):
            if not idx.size:
                return
            # only points strictly inside the bracket are evaluated (f' needs x > 0)
            x = np.where((x > lo) & (x < hi), x, 0.5 * (lo + hi))
            fx = spec.fn(x)
            hi = np.where(fx >= target, x, hi)
            lo = np.where(fx <= target, x, lo)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                step = (fx - target) / ham.fprime_values(spec, x)
            newton_done = np.abs(step) <= ham._FINV_RTOL * x
            done = newton_done | (hi - lo <= ham._FINV_RTOL * hi)
            x = x - step
            if np.any(done):
                final = np.where((x >= lo) & (x <= hi), x, 0.5 * (lo + hi))
                out[idx[done]] = final[done]
                keep = ~done
                idx, target, lo, hi, x = idx[keep], target[keep], lo[keep], hi[keep], x[keep]
        raise RuntimeError("inverse did not converge in 200 steps")

    for j in range(-(-positive.size // ham._FINV_CHUNK)):
        chunk(j)
    return out.reshape(y.shape)


class TestSharedNewton:
    """``ham._newton``, the one safeguarded Newton behind the custom inverse
    and the central projection."""

    @pytest.mark.parametrize("fn", [lambda x: x + x**3 / 3.0, lambda x: x + x**5, lambda x: x + np.log1p(x)],
                             ids=["cubic", "quintic", "concave"])
    def test_inverse_matches_its_own_loop(self, fn):
        spec = ham.custom(fn)
        assert np.array_equal(ham.finv_values(spec, STRIPED_YS), reference_finv(spec, STRIPED_YS))

    @staticmethod
    def recorder(fn, slope):
        """A residual ``fn(x) - 0`` with slopes ``slope(x)`` that records
        every point it is called at."""
        calls = []

        def residual(x, live):
            calls.append((x.copy(), live.copy()))
            return fn(x), slope(x)

        return residual, calls

    def test_doubles_while_the_bracket_is_open(self):
        """With nan slopes and ``hi = +inf`` the points double from the
        start until g changes sign, then bisect."""
        residual, calls = self.recorder(lambda x: x - 100.0, lambda x: np.full_like(x, np.nan))
        root = ham._newton(residual, np.array([1.0]), math.inf, 1e-12, "test")
        points = [float(x[0]) for x, _ in calls]
        assert points[:8] == [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0]
        assert points[8] == 96.0
        assert abs(root[0] - 100.0) <= 1e-12 * 100.0

    def test_bisects_on_nan_slopes(self):
        residual, calls = self.recorder(lambda x: x - 1.0 / 3.0, lambda x: np.full_like(x, np.nan))
        ham._newton(residual, np.array([0.5]), 1.0, 1e-12, "test")
        lo, hi = 0.0, 1.0
        for x, _ in calls:
            assert x[0] == 0.5 * (lo + hi)
            lo, hi = (x[0], hi) if x[0] <= 1.0 / 3.0 else (lo, x[0])

    def test_stops_on_bracket_width(self):
        """nan slopes leave only the bracket rule: bisection from [0, 1]
        stops at the first point whose bracket is at most ``rtol * x`` wide,
        and returns that bracket's midpoint."""
        rtol = 1e-6
        residual, calls = self.recorder(lambda x: x - 1.0 / 3.0, lambda x: np.full_like(x, np.nan))
        root = ham._newton(residual, np.array([0.5]), 1.0, rtol, "test")
        # the k-th midpoint leaves a bracket of width 2^-k around 1/3, and
        # the stop needs it at most rtol/3 wide (22 points; 20 would meet rtol)
        assert len(calls) == math.ceil(math.log2(3.0 / rtol)) == 22
        assert abs(root[0] - 1.0 / 3.0) <= 0.5 * rtol

    def test_empty_input_makes_no_call(self):
        residual, calls = self.recorder(lambda x: x, lambda x: np.ones_like(x))
        out = ham._newton(residual, np.empty(0), math.inf, 1e-12, "test")
        assert out.shape == (0,) and calls == []

    def test_points_stay_strictly_inside_the_bracket(self):
        """arctan's Newton steps overshoot from far off; every point handed
        to ``residual`` lies strictly inside its entry's bracket as the
        signs seen so far leave it, and every entry reaches its root."""
        roots = np.array([0.5, 3.0, 40.0, 1e3, 7.0, 2.0])
        start = np.array([9.0, 1e-3, 1.0, 1.0, 500.0, 2.0])
        hi = np.array([math.inf, math.inf, math.inf, 1e4, 1e3, math.inf])
        calls = []

        def residual(x, live):
            calls.append((x.copy(), live.copy()))
            return np.arctan(x - roots[live]), 1.0 / (1.0 + (x - roots[live]) ** 2)

        got = ham._newton(residual, start, hi, 1e-13, "test")
        lo, top = np.zeros(roots.size), hi.copy()
        for x, live in calls:
            assert np.all((lo[live] < x) & (x < top[live]))
            g = x - roots[live]
            top[live] = np.where(g >= 0.0, x, top[live])
            lo[live] = np.where(g <= 0.0, x, lo[live])
        np.testing.assert_allclose(got, roots, rtol=1e-12, atol=0.0)

    def test_nan_first_residual_doubles_from_the_start(self):
        """A nan g leaves the bracket at ``[0, +inf)``; the doubling then
        starts from the entry's start, never from 0, and still finds a root
        above it."""
        residual, calls = self.recorder(lambda x: np.where(x == 3.0, np.nan, x - 100.0), np.ones_like)
        root = ham._newton(residual, np.array([3.0]), math.inf, 1e-12, "test")
        assert [float(x[0]) for x, _ in calls[:2]] == [3.0, 6.0]
        assert all(np.all(x > 0.0) for x, _ in calls)
        assert abs(root[0] - 100.0) <= 1e-12 * 100.0

    def test_nan_residuals_never_reach_zero(self):
        """Residuals that stay nan past 5 are never evaluated at x <= 0: the
        nan entry doubles from its start on every step, and the failure
        names ``what``."""
        residual, calls = self.recorder(lambda x: np.where(x > 5.0, np.nan, x - 3.0), np.ones_like)
        with pytest.raises(RuntimeError, match="gadget did not converge in 200 steps"):
            ham._newton(residual, np.array([6.0, 1.0]), math.inf, 1e-12, "gadget")
        assert all(np.all(x > 0.0) for x, _ in calls)
        points = [float(x[list(live).index(0)]) for x, live in calls if 0 in live]
        assert len(points) == 200
        assert points == [6.0 * 2.0**k for k in range(200)]

    def test_names_what_did_not_converge(self):
        residual, _ = self.recorder(lambda x: np.full_like(x, -1.0), lambda x: np.full_like(x, np.nan))
        with pytest.raises(RuntimeError, match="widget did not converge in 200 steps"):
            ham._newton(residual, np.ones(3), math.inf, 1e-12, "widget")


class TestInverseRefusals:
    """A target the inverse cannot bracket is refused, naming it, before
    any Newton sweep."""

    @pytest.mark.parametrize("spec", [ham.quadratic(), CUBIC], ids=["closed", "custom"])
    @pytest.mark.parametrize("bad", [math.inf, math.nan, -1.0])
    def test_refuses_nonfinite_or_negative_target(self, monkeypatch, spec, bad):
        monkeypatch.setattr(ham, "_newton", None)
        with pytest.raises(ValueError, match=f"y >= 0; got y={bad!r}"):
            ham.finv_values(spec, np.array([1.0, bad]))

    def test_refuses_a_target_past_the_bracket(self, monkeypatch):
        """The tail witness bracket ``max(1, y)/a1 + a2`` overflows at
        y = 1e308, although the root (about 3.2e155) is finite."""
        monkeypatch.setattr(ham, "_newton", None)
        with pytest.raises(ValueError, match="cannot bracket the inverse at y=1e\\+308"):
            ham.finv_values(ham.custom(lambda x: 0.1 * x + 1e-3 * x * x), np.array([2.0, 1e308]))

    def test_scalar_inverse_refuses_infinity(self):
        with pytest.raises(ValueError, match="got y=inf"):
            ham.inverse(ham.quadratic(), math.inf)


class TestSpecChecks:
    @pytest.mark.parametrize(
        "kwargs,match",
        [
            ({"kind": "cubic", "support": ham.HALF_LINE}, "unknown kind 'cubic'"),
            ({"kind": "quadratic", "support": "whole_line"}, "unknown support 'whole_line'"),
            ({"kind": "custom", "support": ham.HALF_LINE}, "custom specs need an evaluator"),
        ],
        ids=["kind", "support", "custom_without_fn"],
    )
    def test_malformed_spec(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            ham.HamiltonianSpec(**kwargs)

    def test_inverse_without_tail_witness(self):
        """log(1 + x) grows too slowly for any positive tail slope, so no
        bracket for its inverse exists."""
        with pytest.raises(ValueError, match="no tail slope witness"):
            ham.finv_values(ham.custom(np.log1p), [0.5])


class TestThreadHelpers:
    def test_helper_never_starts_a_helper(self, monkeypatch):
        """Under a cap of 2, a fan-out starts one helper; while it runs,
        fan-outs on either thread size to one thread and run inline."""
        started = []
        thread = threading.Thread

        class Counted(thread):
            def start(self):
                started.append(self.name)
                super().start()

        monkeypatch.setattr(threading, "Thread", Counted)
        monkeypatch.setenv("THINSHELL_THREADS", "2")
        sizes = {}

        def task(k):
            sizes[k] = ham._pool_size(8)
            ham._fan_out(lambda j: None, range(3))

        ham._fan_out(task, range(4))
        assert len(started) == 1
        assert sizes == {0: 1, 1: 1, 2: 1, 3: 1}
        assert ham._pool_size(8) == 2

    def test_slow_item_holds_back_no_other(self, monkeypatch):
        """Items are handed out one at a time: while item 0 waits, the other
        thread runs items 1..5, and the results come back in order."""
        monkeypatch.setenv("THINSHELL_THREADS", "2")
        last_done = threading.Event()
        ran_on = {}

        def item(k):
            ran_on[k] = threading.get_ident()
            if k == 0:
                assert last_done.wait(timeout=30)
            if k == 5:
                last_done.set()
            return 10 * k

        assert ham._fan_out(item, range(6)) == [0, 10, 20, 30, 40, 50]
        others = {ran_on[k] for k in range(1, 6)}
        assert len(others) == 1 and ran_on[0] not in others

    def test_threads_start_only_in_the_fan_out(self):
        """No module but ``hamiltonians`` starts threads, and it only in
        ``_fan_out``."""
        fan_out = inspect.getsource(ham._fan_out)
        for path in Path(ham.__file__).parent.glob("*.py"):
            text = path.read_text(encoding="utf-8")
            if path.stem == "hamiltonians":
                assert fan_out in text
                text = text.replace(fan_out, "")
            for name in ("threading.Thread", "ThreadPoolExecutor"):
                assert name not in text, f"{name} in {path.name}"


class TestMonotonicity:
    def test_strictly_increasing_random_points(self):
        """f(x + d) > f(x) for 1000 random positive x and offsets."""
        rng = np.random.default_rng(42)
        xs = rng.uniform(1e-6, 1e3, 1000)
        ds = rng.uniform(1e-9, 1.0, 1000)
        for spec in (ham.quadratic(), ham.linear_half(), ham.power(2.5), ham.quartic_perturbed(0.1)):
            assert np.all(spec.fn(xs + ds) > spec.fn(xs))


class TestClassMembership:
    def test_quadratic_admissible(self):
        report = ham.check_class_f(ham.quadratic())
        assert report.overall
        q, a3 = report.origin_exponent
        assert 1.0 < q < 2.0 and a3 > 0

    def test_linear_admissible(self):
        report = ham.check_class_f(ham.linear_half())
        assert report.overall
        a1, _ = report.tail_slope
        assert a1 == pytest.approx(0.5)  # half the unit slope

    @pytest.mark.parametrize("p", [1, 1.5, 2, 3, 4])
    def test_power_family_admissible(self, p):
        assert ham.check_class_f(ham.power(p)).overall
        assert ham.check_class_f(ham.power(p, support=ham.SYMMETRIC)).overall

    @pytest.mark.parametrize("eps", [0.0, 0.1, 1.0])
    def test_quartic_family_admissible(self, eps):
        assert ham.check_class_f(ham.quartic_perturbed(eps)).overall

    def test_bounded_function_rejected_by_tail(self):
        """f = x/(1+x) stays bounded, so its slope sinks to zero."""
        report = ham.check_class_f(ham.custom(lambda x: x / (1.0 + x)))
        assert report.tail_slope is None
        assert not report.overall

    def test_report_overall_is_conjunction(self):
        report = ham.check_class_f(ham.quadratic())
        assert report.overall == (
            report.f0_ok
            and report.monotone_ok
            and report.support_ok
            and report.tail_slope is not None
            and report.origin_exponent is not None
        )


class TestFamilyParameters:
    """Family parameters are refused where they enter; nan fails the checks."""

    @pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf, 0.5])
    def test_power_exponent(self, p):
        with pytest.raises(ValueError, match=r"exponent p must be finite and >= 1"):
            ham.power(p)

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, -0.1])
    def test_quartic_perturbation(self, eps):
        with pytest.raises(ValueError, match=r"epsilon must be finite and >= 0"):
            ham.quartic_perturbed(eps)


class TestSerialization:
    """A spec is written as the config keys kind, p, epsilon and support,
    and built from ExperimentConfig's typed fields."""

    @staticmethod
    def _spec_from_text(tmp_path, text):
        path = tmp_path / "spec.cfg"
        path.write_text(text, encoding="utf-8")
        return cli.ExperimentConfig(**cli.parse_config_file(str(path))).spec()

    def test_roundtrip(self, tmp_path):
        spec = self._spec_from_text(tmp_path, "kind=power\np=3\nsupport=symmetric\n")
        assert spec.kind == "power" and spec.p == 3.0 and spec.support == ham.SYMMETRIC

    def test_quartic_roundtrip(self, tmp_path):
        assert self._spec_from_text(tmp_path, "kind=quartic_perturbed\nepsilon=0.5\n").eps == 0.5

    def test_bad_line_reports_position(self, tmp_path):
        with pytest.raises(ValueError, match="spec.cfg:2"):
            self._spec_from_text(tmp_path, "kind=quadratic\nnot a pair\n")

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown kind"):
            cli.ExperimentConfig(kind="cubic").spec()

    def test_custom_not_serializable(self):
        """Custom specs carry callables, so no config names one."""
        with pytest.raises(ValueError, match="unknown kind 'custom'"):
            cli.ExperimentConfig(kind="custom").spec()

    @pytest.mark.parametrize("kind,key", [("power", "p"), ("quartic_perturbed", "epsilon")])
    def test_missing_parameter(self, kind, key):
        with pytest.raises(ValueError, match=f"need key '{key}'"):
            cli.ExperimentConfig(kind=kind).spec()
