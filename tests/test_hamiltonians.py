import math
import threading

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
        """Within the stopping rule: ``1e-12 max(x, 1)``."""
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
    """The inverse solves its targets in chunks striped over threads; no
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
            ham._striped(3, lambda j: None, ham._pool_size(3))

        ham._striped(4, task, ham._pool_size(4))
        assert len(started) == 1
        assert sizes == {0: 1, 1: 1, 2: 1, 3: 1}
        assert ham._pool_size(8) == 2


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
