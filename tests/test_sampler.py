import dataclasses
import math
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.interpolate import PchipInterpolator

from thinshell import gibbs1d, hamiltonians as ham, projection, sampler


@pytest.fixture(scope="module")
def sphere_ref(quad_model):
    ctx = projection.make_context(quad_model, 3, 1)
    return projection.project_uniform_k1(ctx)


class TestCentralProjection:
    def test_quadratic_homogeneity(self):
        """Sum of squares 4n at level t=1 contracts by exactly 1/2."""
        x = np.full(6, 2.0)
        out = sampler.central_projection(ham.quadratic(), x, 1.0)
        np.testing.assert_allclose(out, 0.5 * x, rtol=1e-12)

    def test_linear_homogeneity(self):
        x = np.full(4, 2.0)
        out = sampler.central_projection(ham.linear_half(), x, 1.0)
        np.testing.assert_allclose(out, 0.5 * x, rtol=1e-12)

    def test_quartic_fixed_point(self):
        out = sampler.central_projection(ham.quartic_perturbed(1.0), np.array([1.0]), 2.0)
        np.testing.assert_allclose(out, [1.0], rtol=1e-10)

    def test_quartic_general_vector(self):
        spec = ham.quartic_perturbed(0.5)
        x = np.array([0.3, -1.2, 2.0, 0.7])
        out = sampler.central_projection(spec, x, 1.0)
        total = float(np.sum(ham.f_values(spec, out)))
        assert total == pytest.approx(4.0, rel=1e-10)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            sampler.central_projection(ham.quadratic(), np.zeros(3), 1.0)

    def test_outside_support_rejected(self):
        with pytest.raises(ValueError):
            sampler.central_projection(ham.linear_half(), np.array([1.0, -1.0]), 1.0)


def quartic_kappa(rows, eps, target):
    """Closed-form scale factor of the perturbed quartic: kappa^2 solves
    eps*B*u^2 + A*u - target = 0 with A = sum x^2 and B = sum x^4."""
    a, b = np.sum(rows**2, axis=1), np.sum(rows**4, axis=1)
    return np.sqrt(2.0 * target / (a + np.sqrt(a * a + 4.0 * eps * b * target)))


def oracle_rows(scale, n=12, count=2500, seed=5):
    """Normal rows times ``scale``, with a block of zero coordinates in every
    other row; 2500 rows span three projection blocks."""
    rows = scale * np.random.default_rng(seed).normal(size=(count, n))
    rows[::2, : n // 2] = 0.0
    return rows


class TestNewtonProjection:
    """``_project_rows`` without a homogeneous degree, against closed forms."""

    @pytest.mark.parametrize("eps", [0.1, 1.0, 10.0])
    @pytest.mark.parametrize("scale", [1.0, 1e-3, 1e3], ids=["shell", "kappa_large", "kappa_small"])
    def test_quartic_matches_closed_form(self, eps, scale):
        rows = oracle_rows(scale)
        target = 12.0
        kappa = sampler._project_rows(ham.quartic_perturbed(eps), rows, target)
        np.testing.assert_allclose(kappa, quartic_kappa(rows, eps, target), rtol=1e-13, atol=0.0)

    def test_few_sweeps_near_the_shell(self, monkeypatch):
        """Rows within 3% of the surface (as rejection leaves them) converge
        in at most 6 evaluations of f per row; bisection took about 45."""
        spec = ham.quartic_perturbed(1.0)
        rows = oracle_rows(1.0, count=1000)
        rows *= (quartic_kappa(rows, 1.0, 12.0) * np.random.default_rng(8).uniform(0.97, 1.03, 1000))[:, None]
        evaluated = []
        f_values = sampler.f_values
        monkeypatch.setattr(sampler, "f_values", lambda s, x: evaluated.append(x.shape[0]) or f_values(s, x))
        kappa = sampler._project_rows(spec, rows, 12.0)
        assert sum(evaluated) <= 6 * rows.shape[0]
        np.testing.assert_allclose(kappa, quartic_kappa(rows, 1.0, 12.0), rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("scale", [1e-2, 1.0, 1e2])
    def test_custom_finite_difference_on_surface(self, scale):
        """A custom f without dfn takes the finite-difference f'."""
        spec = ham.custom(lambda x: x + x**3 / 3.0)
        rows = np.abs(oracle_rows(scale))
        kappa = sampler._project_rows(spec, rows, 12.0)
        energies = np.sum(ham.f_values(spec, kappa[:, None] * rows), axis=1)
        np.testing.assert_allclose(energies, 12.0, rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("scale", [1.0, 1e-3, 1e3], ids=["shell", "kappa_large", "kappa_small"])
    def test_nan_slope_falls_back_to_bisection(self, monkeypatch, scale):
        monkeypatch.setattr(sampler, "fprime_values", lambda spec, x: np.full(np.shape(x), np.nan))
        rows = oracle_rows(scale, count=300)
        kappa = sampler._project_rows(ham.quartic_perturbed(1.0), rows, 12.0)
        np.testing.assert_allclose(kappa, quartic_kappa(rows, 1.0, 12.0), rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("nan_slope", [False, True])
    def test_unreachable_root_raises(self, monkeypatch, nan_slope):
        """kappa near 1e-70 is beyond the step cap from kappa = 1, with or
        without f'; the projection raises instead of returning a point off
        the surface."""
        if nan_slope:
            monkeypatch.setattr(sampler, "fprime_values", lambda spec, x: np.full(np.shape(x), np.nan))
        with pytest.raises(RuntimeError, match="did not converge"):
            sampler._project_rows(ham.quartic_perturbed(1.0), oracle_rows(1e70, count=4), 12.0)

    def test_negative_half_line_coordinate_raises(self):
        spec = ham.custom(lambda x: x + x**3 / 3.0)
        with pytest.raises(RuntimeError, match="did not converge"):
            sampler._project_rows(spec, np.array([[1.0, -0.5, 2.0]]), 3.0)


def reference_newton_scales(spec, rows, target, energies=None):
    """The projection's Newton as one loop of its own, as it stood before it
    moved onto ``hamiltonians._newton``: the byte oracle of the shared
    iteration."""
    # half-line rows keep their sign, so a negative coordinate gives g = +inf
    a = np.abs(rows) if spec.support == ham.SYMMETRIC else rows
    out = np.empty(a.shape[0])
    idx = np.arange(a.shape[0])
    kappa = np.ones(a.shape[0])
    lo = np.zeros(a.shape[0])
    hi = np.full(a.shape[0], math.inf)
    for _ in range(200):
        y = kappa[:, None] * a
        g = (np.sum(ham.f_values(spec, y), axis=1) if energies is None else energies) - target
        energies = None
        hi = np.where(g >= 0.0, kappa, hi)
        lo = np.where(g <= 0.0, kappa, lo)
        # f' needs x > 0; zero coordinates add 0 * f'(1) to the slope
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            dg = np.sum(a * ham.fprime_values(spec, np.where(a > 0.0, y, 1.0)), axis=1)
            step = g / dg
        done = (np.abs(step) <= sampler._KAPPA_RTOL * kappa) | (hi - lo <= sampler._KAPPA_RTOL * kappa)
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
    raise RuntimeError("central projection did not converge in 200 steps")


class TestSharedNewtonProjection:
    """``_project_rows`` on the shared ``hamiltonians._newton`` gives the
    bytes of the projection's own loop, block by block."""

    @staticmethod
    def reference(spec, rows, target, energies):
        blocks = range(0, rows.shape[0], sampler._BLOCK)
        return np.concatenate([
            reference_newton_scales(spec, rows[b : b + sampler._BLOCK], target,
                                    None if energies is None else energies[b : b + sampler._BLOCK])
            for b in blocks])

    @pytest.mark.parametrize("with_energies", [False, True], ids=["fresh", "energies"])
    @pytest.mark.parametrize("scale", [1.0, 1e-3, 1e3], ids=["shell", "kappa_large", "kappa_small"])
    @pytest.mark.parametrize("spec", [ham.quartic_perturbed(0.1), ham.quartic_perturbed(1.0),
                                      ham.quartic_perturbed(10.0), ham.custom(lambda x: x + x**3 / 3.0)],
                             ids=["quartic0.1", "quartic1", "quartic10", "custom"])
    def test_bytes_match_the_own_loop(self, spec, scale, with_energies):
        rows = oracle_rows(scale)
        if spec.support != ham.SYMMETRIC:
            rows = np.abs(rows)
        energies = sampler._row_energies(spec, rows) if with_energies else None
        got = sampler._project_rows(spec, rows, 12.0, energies)
        assert np.array_equal(got, self.reference(spec, rows, 12.0, energies))

    def test_nan_energy_is_a_projection_failure(self):
        """A row whose R_n at kappa = 1 is nan (f is nan past 5) is never
        sent to kappa = 0, where f' is undefined: the projection fails."""
        spec = ham.custom(lambda x: np.where(x > 5.0, np.nan, x + x**3 / 3.0))
        with pytest.raises(RuntimeError, match="central projection did not converge"):
            sampler._project_rows(spec, np.array([[1.0, 6.0]]), 3.0)


class TestSurfaceCheck:
    """``central_projection`` and both samplers go through one
    project-and-check step."""

    @pytest.mark.parametrize("t", [math.nan, -1.0, 0.0, math.inf])
    def test_central_projection_refuses_level(self, t):
        with pytest.raises(ValueError, match="energy level t"):
            sampler.central_projection(ham.quadratic(), np.ones(3), t)

    def test_nan_projection_is_off_the_surface(self, monkeypatch, quad_model):
        """A nan residual fails the check: it is written as ``not resid <=
        tol``."""
        monkeypatch.setattr(sampler, "_project_rows", lambda spec, rows, *args: np.full(rows.shape[0], np.nan))
        with pytest.raises(RuntimeError, match="off the surface"):
            sampler.central_projection(ham.quadratic(), np.ones(3), 1.0)
        with pytest.raises(RuntimeError, match="off the surface"):
            sampler.sample_surface_scaling(quad_model, 8, 100, seed=1, keep=1)

    def test_one_tolerance_for_vector_and_batch(self, monkeypatch, quad_model):
        """A scale factor off by 2e-10 relative (4e-10 in a quadratic
        ``R_n``) is refused by the vector and the batch alike."""
        project = sampler._project_rows
        monkeypatch.setattr(sampler, "_project_rows", lambda *args: (1.0 + 2e-10) * project(*args))
        with pytest.raises(RuntimeError, match="off the surface"):
            sampler.central_projection(ham.quadratic(), np.ones(3), 1.0)
        with pytest.raises(RuntimeError, match="off the surface"):
            sampler.sample_surface_scaling(quad_model, 8, 100, seed=1, keep=1)

    def test_central_projection_leaves_its_input(self):
        x = np.array([0.3, -1.2, 2.0, 0.7])
        out = sampler.central_projection(ham.quartic_perturbed(0.5), x, 1.0)
        assert np.array_equal(x, [0.3, -1.2, 2.0, 0.7]) and out is not x


@pytest.fixture(scope="module", params=["quartic", "custom"])
def tabulated(request, quartic_model):
    """The two tabulated inverse CDFs: the symmetric quartic and a half-line
    custom f without an inverse."""
    if request.param == "quartic":
        return sampler._CoordinateSampler(quartic_model)
    return sampler._CoordinateSampler(gibbs1d.solve_energy(ham.custom(lambda x: x + x**3 / 3.0), 1.0))


def scipy_pchip(coord):
    """scipy's interpolant of the sampler's inverse-CDF table, the oracle."""
    return PchipInterpolator(coord._knots, coord._values)


def assert_inverse_matches_pchip(coord, u):
    u = np.asarray(u, dtype=float)
    assert np.array_equal(coord._inverse(u.copy()), scipy_pchip(coord)(u))


class TestPchipCoefficients:
    """The in-house PCHIP coefficients are scipy's ``PchipInterpolator.c``
    bit for bit."""

    @pytest.mark.parametrize("t", [0.8, 1.0, 1.2])
    @pytest.mark.parametrize("spec", [ham.quartic_perturbed(1.0), ham.custom(lambda x: x + x**3 / 3.0)],
                             ids=["quartic", "custom"])
    def test_sampler_tables(self, spec, t):
        """Both tables of a sampler: the inverse CDF and the forward CDF of
        its residual check; the forward evaluator is scipy's call too."""
        coord = sampler._CoordinateSampler(gibbs1d.solve_energy(spec, t))
        for x, y in ((coord._knots, coord._values), (coord._values, coord._knots)):
            assert np.array_equal(sampler._pchip_coefficients(x, y), PchipInterpolator(x, y).c.T)
        forward = PchipInterpolator(coord._values, coord._knots)
        v = np.random.default_rng(5).uniform(0.0, coord._values[-1], 20_000)
        assert np.array_equal(sampler._pchip_at(coord._values, forward.c.T, v), forward(v))

    @given(steps=st.lists(st.floats(1e-3, 1e3), min_size=3, max_size=40), data=st.data())
    def test_monotone_tables(self, steps, data):
        """Nondecreasing values, flat runs included (zero secant slopes)."""
        x = np.cumsum(steps)
        rises = data.draw(st.lists(st.sampled_from([0.0, 1e-3, 1.0, 7.5, 1e3]) | st.floats(0.0, 1e3),
                                   min_size=len(steps), max_size=len(steps)))
        y = np.cumsum(rises)
        assert np.array_equal(sampler._pchip_coefficients(x, y), PchipInterpolator(x, y).c.T)

    @given(steps=st.lists(st.floats(1e-3, 1e3), min_size=3, max_size=40), data=st.data())
    def test_any_tables(self, steps, data):
        """Values of either sign, which exercise the sign tests of the
        interior and end slopes."""
        x = np.cumsum(steps)
        y = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=len(steps), max_size=len(steps))))
        assert np.array_equal(sampler._pchip_coefficients(x, y), PchipInterpolator(x, y).c.T)


class TestIndexedSearch:
    """The indexed-search inverse CDF is ``PchipInterpolator`` bit for bit."""

    def test_uniforms(self, tabulated):
        assert_inverse_matches_pchip(tabulated, np.random.default_rng(12).random(2_000_000))

    def test_knots_and_bin_edges(self, tabulated):
        knots = tabulated._knots
        assert knots[0] == 0.0 and knots[-1] == 1.0  # no uniform reaches the last knot
        inner = knots[:-1]
        edges = np.arange(sampler._GUIDE) / sampler._GUIDE
        above = np.nextafter(inner, 1.0)
        for u in (inner, np.nextafter(inner[1:], 0.0), above[above < 1.0], edges,
                  np.nextafter(edges[1:], 0.0), [0.0, np.nextafter(1.0, 0.0)]):
            assert_inverse_matches_pchip(tabulated, u)

    @given(u=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=64))
    def test_property(self, tabulated, u):
        assert_inverse_matches_pchip(tabulated, u)

    def test_striped_chunks(self, tabulated, monkeypatch):
        """A draw of several chunks gives the same values on two threads."""
        u = np.random.default_rng(13).random((3, 3 * sampler._CHUNK + 5))
        monkeypatch.setenv("THINSHELL_THREADS", "2")
        assert np.array_equal(tabulated._inverse(u.copy()), scipy_pchip(tabulated)(u))

    def test_one_table_per_model(self, monkeypatch, quartic_model):
        """An ensembles step (rejection and canonical draws for two n) builds
        the inverse-CDF table, and checks its residual, once."""
        built = []
        pchip = sampler._pchip_coefficients
        monkeypatch.setattr(sampler, "_pchip_coefficients", lambda x, y: built.append(len(x)) or pchip(x, y))
        model = dataclasses.replace(quartic_model, _cache={})
        fn = sampler.TestFunction(fn=lambda rows: rows[:, 0], k=1, name="x1", growth="bounded")
        for n in (4, 6):
            batch = sampler.sample_surface_rejection(model, n, 0.3, 200, seed=n, keep=1)
            sampler.ensemble_expectation_gap(model, n, 1, fn, batch, 100, seed=n)
        assert len(built) == 2  # the inverse and the forward residual check
        assert sampler._coordinate_sampler(model) is model._cache["coordinate_sampler"].result()


class TestStriping:
    """Blocks and inverse-CDF chunks fanned out over threads change no draw;
    the fan-out itself (``hamiltonians._fan_out``) runs every item once and
    stops at the first failure."""

    @pytest.mark.parametrize("spec", [ham.linear_half(), ham.quartic_perturbed(0.0)], ids=["exact", "tabulated"])
    def test_scaling_same_on_any_thread_count(self, monkeypatch, spec):
        model = gibbs1d.solve_energy(spec, 1.0)
        batches = []
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("THINSHELL_THREADS", threads)
            batches.append(sampler.sample_surface_scaling(model, 40, 5 * sampler._BLOCK + 17, seed=21).points)
        monkeypatch.delenv("THINSHELL_THREADS")
        batches.append(sampler.sample_surface_scaling(model, 40, 5 * sampler._BLOCK + 17, seed=21).points)
        assert all(np.array_equal(b, batches[0]) for b in batches[1:])

    def test_rejection_same_on_any_thread_count(self, monkeypatch, quartic_model):
        batches = []
        for threads in ("1", "2", None):
            if threads is None:
                monkeypatch.delenv("THINSHELL_THREADS")
            else:
                monkeypatch.setenv("THINSHELL_THREADS", threads)
            batches.append(sampler.sample_surface_rejection(quartic_model, 30, 0.1, 3000, seed=22))
        for batch in batches[1:]:
            assert np.array_equal(batch.points, batches[0].points)
            assert batch.acceptance_rate == batches[0].acceptance_rate

    def test_one_thread_starts_no_helper(self, monkeypatch, quartic_model, lin_model):
        def refuse(*args, **kwargs):
            raise AssertionError("a helper thread was started")

        monkeypatch.setattr(threading, "Thread", refuse)
        monkeypatch.setenv("THINSHELL_THREADS", "1")
        sampler.sample_surface_scaling(lin_model, 20, 3 * sampler._BLOCK, seed=1)
        batch = sampler.sample_surface_rejection(quartic_model, 20, 0.2, 2000, seed=1)
        fn = sampler.TestFunction(fn=lambda rows: rows[:, 0], k=1, name="x1", growth="bounded")
        sampler.ensemble_expectation_gap(quartic_model, 20, 1, fn, batch, 70_000, seed=2)

    def test_every_task_runs_once_under_stress(self, monkeypatch):
        """More threads than cores and a short switch interval: every task
        writes its own slot exactly once, and the results come back in
        order."""
        out = np.zeros(500, dtype=int)
        ran = []

        def run(k):
            ran.append(k)
            out[k] += k + 1
            return -k

        monkeypatch.setenv("THINSHELL_THREADS", str(2 * (os.cpu_count() or 1) + 3))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = ham._fan_out(run, range(500))
        finally:
            sys.setswitchinterval(interval)
        assert sorted(ran) == list(range(500))
        assert np.array_equal(out, np.arange(1, 501))
        assert results == [-k for k in range(500)]

    def test_lowest_failing_task_is_raised(self, monkeypatch):
        """Tasks 3 and 4 run on different threads and fail together; task 3's
        error is raised, no task starts after them, and no helper is left."""
        both_failing = threading.Barrier(2, timeout=30)
        ran = []

        def run(k):
            ran.append(k)
            if k in (3, 4):
                both_failing.wait()
                raise RuntimeError(f"task {k}")

        monkeypatch.setenv("THINSHELL_THREADS", "2")
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="task 3"):
            ham._fan_out(run, range(40))
        assert sorted(ran) == [0, 1, 2, 3, 4]
        assert threading.active_count() == before


class TestPoolSize:
    @pytest.mark.parametrize("value", ["0", "-3", "1.5", "two", " "])
    def test_bad_cap_refused(self, monkeypatch, value):
        monkeypatch.setenv("THINSHELL_THREADS", value)
        with pytest.raises(ValueError, match="THINSHELL_THREADS must be an integer >= 1"):
            ham._pool_size(4)

    def test_cap_and_task_count_bound_the_threads(self, monkeypatch):
        """A huge cap is sized here only; no thread is started."""
        monkeypatch.setenv("THINSHELL_THREADS", "1" + "0" * 30)
        assert ham._pool_size(3) == 3
        monkeypatch.setenv("THINSHELL_THREADS", "2")
        assert (ham._pool_size(0), ham._pool_size(1), ham._pool_size(5)) == (1, 1, 2)
        monkeypatch.delenv("THINSHELL_THREADS")
        assert ham._pool_size(10**6) == (os.cpu_count() or 1)


class TestScalingSampler:
    def test_on_surface(self, quad_model):
        batch = sampler.sample_surface_scaling(quad_model, 12, 512, seed=3)
        energies = np.sum(batch.points**2, axis=1)
        np.testing.assert_allclose(energies, 12.0, rtol=1e-10)

    def test_first_coordinate_matches_projection(self, quad_model, sphere_ref):
        """Archimedes regime: the first coordinate on the 3-sphere of squared
        radius 3 is uniform; the exact grid is the reference."""
        batch = sampler.sample_surface_scaling(quad_model, 3, 10_000, seed=11)
        assert sampler.empirical_projection_check(batch, sphere_ref) < 0.02

    def test_exponential_small_case_uniform(self, lin_model):
        ctx = projection.make_context(lin_model, 2, 1)
        ref = projection.project_uniform_k1(ctx)
        batch = sampler.sample_surface_scaling(lin_model, 2, 10_000, seed=13)
        assert sampler.empirical_projection_check(batch, ref) < 0.02

    def test_beta_law_of_squared_share(self, quad_model):
        """x1^2 / (n t) on the 3-sphere follows Beta(1/2, 1): its CDF is a
        square root."""
        batch = sampler.sample_surface_scaling(quad_model, 3, 10_000, seed=17)
        u = np.sort(batch.points[:, 0] ** 2 / 3.0)
        ecdf = np.arange(1, len(u) + 1) / len(u)
        assert float(np.max(np.abs(ecdf - np.sqrt(u)))) < 0.02

    def test_seed_determinism(self, quad_model):
        a = sampler.sample_surface_scaling(quad_model, 5, 4096, seed=42)
        b = sampler.sample_surface_scaling(quad_model, 5, 4096, seed=42)
        assert np.array_equal(a.points, b.points)

    def test_empty_batch(self, quad_model):
        batch = sampler.sample_surface_scaling(quad_model, 4, 0, seed=1)
        assert batch.count == 0

    def test_inhomogeneous_rejected(self, quartic_model):
        with pytest.raises(ValueError):
            sampler.sample_surface_scaling(quartic_model, 4, 8, seed=1)


class TestStreamedColumns:
    def test_scaling_keep_is_bitwise_prefix(self, lin_model):
        """2500 rows: two full 1024-row blocks and a partial one."""
        full = sampler.sample_surface_scaling(lin_model, 30, 2500, seed=8)
        cut = sampler.sample_surface_scaling(lin_model, 30, 2500, seed=8, keep=2)
        assert cut.points.shape == (2500, 2) and cut.n == 30
        assert np.array_equal(cut.points, full.points[:, :2])

    def test_rejection_keep_matches_first_column(self, quartic_model):
        """The bisection stops per block, so agreement is to rounding only."""
        full = sampler.sample_surface_rejection(quartic_model, 10, 0.2, 3000, seed=4)
        cut = sampler.sample_surface_rejection(quartic_model, 10, 0.2, 3000, seed=4, keep=1)
        assert cut.points.shape == (3000, 1)
        assert cut.acceptance_rate == full.acceptance_rate
        np.testing.assert_allclose(cut.points[:, 0], full.points[:, 0], rtol=1e-12)

    @pytest.mark.parametrize("method", ["scaling", "rejection"])
    def test_off_surface_block_raises(self, monkeypatch, quad_model, method):
        project = sampler._project_rows
        monkeypatch.setattr(sampler, "_project_rows", lambda *args: 1.001 * project(*args))
        with pytest.raises(RuntimeError, match="off the surface"):
            if method == "scaling":
                sampler.sample_surface_scaling(quad_model, 8, 100, seed=1, keep=1)
            else:
                sampler.sample_surface_rejection(quad_model, 8, 0.5, 100, seed=1, keep=1)

    def test_memory_bounded_by_kept_columns(self, lin_model):
        """One full (20000, 500) matrix is 76 MiB; keeping two columns needs
        the (20000, 2) result plus a few 1024-row blocks."""
        tracemalloc.start()
        try:
            batch = sampler.sample_surface_scaling(lin_model, 500, 20_000, seed=1, keep=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert batch.points.shape == (20_000, 2)
        assert peak < 32 * 2**20

    def test_rejection_memory_bounded_by_chunks(self, quartic_model):
        """One (65536, 200) block drawn whole is 100 MiB of magnitudes and
        100 MiB of sign uniforms; drawn in 2 MiB row chunks, the result and
        a few chunks fit well below that."""
        delta = 0.5 * math.sqrt(quartic_model.sigma2 / 200)
        tracemalloc.start()
        try:
            batch = sampler.sample_surface_rejection(quartic_model, 200, delta, 20_000, seed=1, keep=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert batch.points.shape == (20_000, 2)
        assert peak < 32 * 2**20

    def test_row_energies_match_whole_array_sum(self, quartic_model):
        rows = sampler._CoordinateSampler(quartic_model).draw(sampler._block_rng(6, 0), (2500, 9))
        reference = np.sum(ham.f_values(quartic_model.spec, rows), axis=1)
        assert np.array_equal(sampler._row_energies(quartic_model.spec, rows), reference)

    @pytest.mark.parametrize("spec", [ham.power(3, ham.SYMMETRIC), ham.quartic_perturbed(1.0)], ids=["power3", "quartic"])
    def test_symmetric_sign_flip_matches_where(self, spec):
        """The in-place sign flip draws the same uniforms and gives the same
        values as ``np.where(u < 0.5, -mag, mag)``."""
        model = gibbs1d.solve_energy(spec, 1.0)
        coord = sampler._CoordinateSampler(model)
        got = coord.draw(sampler._block_rng(3, 0), (500, 7))
        rng = sampler._block_rng(3, 0)
        if spec.kind == "power":
            mag = rng.gamma(1.0 / spec.p, 1.0 / model.c, (500, 7)) ** (1.0 / spec.p)
        else:
            mag = scipy_pchip(coord)(rng.random((500, 7)))
        assert np.array_equal(got, np.where(rng.random((500, 7)) < 0.5, -mag, mag))

    @pytest.mark.parametrize("keep", [0, 9])
    def test_keep_out_of_range_rejected(self, quad_model, keep):
        with pytest.raises(ValueError, match="keep"):
            sampler.sample_surface_scaling(quad_model, 8, 10, seed=1, keep=keep)

    def test_gap_needs_k_columns(self, quad_model):
        fn = sampler.TestFunction(fn=lambda rows: rows[:, 0] * rows[:, 1], k=2, name="x1x2", growth="bounded")
        batch = sampler.sample_surface_scaling(quad_model, 10, 100, seed=1, keep=1)
        with pytest.raises(ValueError, match="fewer than k=2"):
            sampler.ensemble_expectation_gap(quad_model, 10, 2, fn, batch, 100, seed=2)

    @pytest.mark.parametrize("count,canonical_count", [(1, 100), (100, 1), (100, 0)])
    def test_gap_needs_two_draws_per_side(self, quad_model, count, canonical_count):
        """One draw has no standard error; zero canonical draws no mean."""
        fn = sampler.TestFunction(fn=lambda rows: rows[:, 0], k=1, name="x1", growth="bounded")
        batch = sampler.sample_surface_scaling(quad_model, 10, count, seed=1, keep=1)
        with pytest.raises(ValueError, match=">= 2 surface and canonical draws"):
            sampler.ensemble_expectation_gap(quad_model, 10, 1, fn, batch, canonical_count, seed=2)


class TestShellEnergyReuse:
    """The rejection sampler hands its shell-test ``R_n`` to the projection."""

    @pytest.mark.parametrize("fixture", ["quartic_model", "quad_model"])
    def test_batches_unchanged(self, monkeypatch, request, fixture):
        model = request.getfixturevalue(fixture)
        reused = sampler.sample_surface_rejection(model, 12, 0.2, 3000, seed=31)
        project = sampler._project_rows
        monkeypatch.setattr(sampler, "_project_rows", lambda spec, rows, target, energies=None: project(spec, rows, target))
        fresh = sampler.sample_surface_rejection(model, 12, 0.2, 3000, seed=31)
        assert np.array_equal(reused.points, fresh.points)

    def test_first_newton_sweep_skipped(self, monkeypatch, quartic_model):
        """Each accepted row is evaluated once less: its first sweep at
        kappa = 1 reads the shell test's energy."""
        f_values = sampler.f_values
        evaluated = []
        monkeypatch.setattr(sampler, "f_values", lambda s, x: evaluated.append(x.shape[0]) or f_values(s, x))
        sampler.sample_surface_rejection(quartic_model, 12, 0.2, 3000, seed=31)
        with_reuse = sum(evaluated)
        evaluated.clear()
        project = sampler._project_rows
        monkeypatch.setattr(sampler, "_project_rows", lambda spec, rows, target, energies=None: project(spec, rows, target))
        sampler.sample_surface_rejection(quartic_model, 12, 0.2, 3000, seed=31)
        assert sum(evaluated) - with_reuse == 3000


def whole_block_rejection(model, n, delta, count, seed):
    """The rejection sampler as it was before its blocks were streamed:
    each block drawn as one (size, n) array; the oracle of the chunk loop.
    Its rate counts the rows through the chunk of ``max(1, 2**18 // n)``
    rows that fills the batch (a symmetric power(p) draws its blocks whole,
    as one chunk)."""
    spec, t = model.spec, model.mu
    coord = sampler._coordinate_sampler(model)
    whole = spec.support == ham.SYMMETRIC and spec.kind == "power"
    points = np.empty((count, n))
    kept = drawn = block = 0
    while kept < count:
        rng = sampler._block_rng(seed, block)
        block += 1
        size = max(sampler._BLOCK, min(65536, 4 * (count - kept)))
        rows = coord.draw(rng, (size, n))
        energies = sampler._row_energies(spec, rows)
        accept = np.abs(energies / n - t) <= delta
        room = count - kept
        end = size
        if np.count_nonzero(accept) >= room:
            chunk = size if whole else max(1, sampler._REJECT_CHUNK // n)
            end = min(size, (np.flatnonzero(accept)[room - 1] // chunk + 1) * chunk)
        drawn += end
        if np.any(accept):
            sampler._store_block(spec, rows[accept][:room], n * t, points, kept, energies[accept][:room])
        kept += int(np.count_nonzero(accept[:end]))
    return points, kept / drawn


STREAMED_FAMILIES = {
    "quartic": ham.quartic_perturbed(1.0),
    "custom": ham.custom(lambda x: x + x**3 / 3.0),
    "quadratic": ham.quadratic(),
    "linear_half": ham.linear_half(),
    "power3_symmetric": ham.power(3, ham.SYMMETRIC),
}


class TestStreamedRejection:
    """Rejection blocks drawn in row chunks give the whole-block draws bit
    for bit."""

    @pytest.fixture(scope="class", params=list(STREAMED_FAMILIES))
    def model(self, request):
        return gibbs1d.solve_energy(STREAMED_FAMILIES[request.param], 1.0)

    # n = 300 makes 873-row chunks; a narrow shell needs several blocks
    @pytest.mark.parametrize("n,delta_sd,count", [(300, 0.5, 700), (7, 0.5, 500), (300, 0.1, 400)],
                             ids=["chunks", "one-chunk", "blocks"])
    def test_same_as_whole_blocks(self, model, n, delta_sd, count):
        delta = delta_sd * math.sqrt(model.sigma2 / n)
        want, rate = whole_block_rejection(model, n, delta, count, seed=13)
        got = sampler.sample_surface_rejection(model, n, delta, count, seed=13)
        assert np.array_equal(got.points, want)
        assert got.acceptance_rate == rate

    @pytest.mark.parametrize("rows,n,chunk", [(1027, 5, 100), (3, 3, 1), (2000, 301, 871)])
    def test_chunks_continue_the_block(self, model, rows, n, chunk):
        """Also when the block's coordinate count is not a multiple of 4,
        so the sign stream starts inside a Philox counter step."""
        coord = sampler._coordinate_sampler(model)
        whole = coord.draw(sampler._block_rng(21, 4), (rows, n))
        chunks = list(coord.draw_chunks(21, 4, (rows, n), chunk))
        assert np.array_equal(np.concatenate(chunks), whole)
        if model.spec.kind != "power":
            assert len(chunks) == -(-rows // chunk)

    def test_room_runs_out_inside_a_chunk(self, monkeypatch, quartic_model):
        """The batch fills inside a chunk: the rest of that chunk is
        shell-tested but not stored, and its accepted rows count towards the
        acceptance rate; no later chunk is drawn."""
        n, count = 300, 700
        delta = 0.5 * math.sqrt(quartic_model.sigma2 / n)
        coord = sampler._coordinate_sampler(quartic_model)
        chunk = sampler._REJECT_CHUNK // n
        accepted = [
            int(np.count_nonzero(np.abs(sampler._row_energies(quartic_model.spec, rows) / n - quartic_model.mu) <= delta))
            for rows in coord.draw_chunks(13, 0, (4 * count, n), chunk)
        ]
        filled = np.searchsorted(np.cumsum(accepted), count)
        assert np.cumsum(accepted)[filled] > count and filled < len(accepted) - 1
        drawn = []
        draw = sampler._CoordinateSampler.draw
        monkeypatch.setattr(sampler._CoordinateSampler, "draw",
                            lambda self, rng, shape, signs=None: drawn.append(shape[0]) or draw(self, rng, shape, signs))
        got = sampler.sample_surface_rejection(quartic_model, n, delta, count, seed=13)
        assert sum(drawn) == (filled + 1) * chunk
        assert got.acceptance_rate == sum(accepted[: filled + 1]) / ((filled + 1) * chunk)
        assert np.array_equal(got.points, whole_block_rejection(quartic_model, n, delta, count, seed=13)[0])


class TestRejectionSampler:
    @pytest.mark.parametrize("delta", [-0.1, 0.0, math.nan])
    def test_shell_mass_refuses_width(self, quad_model, delta):
        with pytest.raises(ValueError, match="shell width must be positive"):
            sampler.shell_mass(quad_model, 50, delta)

    def test_acceptance_matches_shell_mass(self, quad_model):
        batch = sampler.sample_surface_rejection(quad_model, 50, 0.05, 3000, seed=5)
        predicted = sampler.shell_mass(quad_model, 50, 0.05)
        assert predicted / 1.5 <= batch.acceptance_rate <= predicted * 1.5

    def test_quartic_on_surface(self):
        model = gibbs1d.solve_energy(ham.quartic_perturbed(0.5), 1.0)
        batch = sampler.sample_surface_rejection(model, 20, 0.1, 500, seed=3)
        target = 20.0 * model.mu
        energies = np.sum(ham.f_values(model.spec, batch.points), axis=1)
        np.testing.assert_allclose(energies, target, rtol=1e-9)

    def test_wide_shell_accepts_everything(self, quad_model):
        batch = sampler.sample_surface_rejection(quad_model, 10, 10.0, 200, seed=9)
        assert batch.acceptance_rate > 0.999

    @pytest.mark.parametrize("delta", [math.nan, 0.0, -0.1])
    def test_bad_shell_width_rejected_before_drawing(self, quad_model, delta):
        with pytest.raises(ValueError, match="shell width"):
            sampler.sample_surface_rejection(quad_model, 10, delta, 10, seed=1, max_draws=100)

    def test_narrow_shell_aborts_with_advice(self, quad_model):
        with pytest.raises(RuntimeError, match="delta|budget"):
            sampler.sample_surface_rejection(quad_model, 50, 1e-7, 50_000, seed=1, max_draws=200_000)

    def test_matches_reference_with_shell_bias(self, quad_model, sphere_ref):
        batch = sampler.sample_surface_rejection(quad_model, 3, 0.02, 10_000, seed=7)
        assert sampler.empirical_projection_check(batch, sphere_ref) < 0.03

    def test_bias_does_not_grow_as_shell_shrinks(self, quartic_model):
        """Symmetric shells cancel the first-order level bias, so the
        distributional error is flat in delta up to Monte Carlo noise."""
        ctx = projection.make_context(quartic_model, 16, 1)
        ref = projection.project_uniform_k1(ctx)
        wide = sampler.sample_surface_rejection(quartic_model, 16, 0.5, 10_000, seed=42)
        narrow = sampler.sample_surface_rejection(quartic_model, 16, 0.05, 10_000, seed=42)
        ks_wide = sampler.empirical_projection_check(wide, ref)
        ks_narrow = sampler.empirical_projection_check(narrow, ref)
        noise = 2.0 * 1.36 / math.sqrt(10_000)
        assert ks_narrow < ks_wide + noise


class TestEnsembleGap:
    def test_energy_testfn_agrees(self, quad_model):
        """E f(x1) is exactly t in both ensembles; the measured gap sits
        within three joint standard errors of zero."""
        fn = sampler.TestFunction(
            fn=lambda rows: np.sum(ham.f_values(quad_model.spec, rows), axis=1),
            k=1,
            name="f1",
            growth="energy",
            m_const=1.0,
        )
        batch = sampler.sample_surface_scaling(quad_model, 200, 20_000, seed=29)
        rep = sampler.ensemble_expectation_gap(quad_model, 200, 1, fn, batch, 20_000, seed=31)
        assert rep.e_micro == pytest.approx(1.0, abs=3 * rep.se_micro)
        assert rep.gap <= 3.0 * math.hypot(rep.se_micro, rep.se_canon)

    def test_constant_gap_is_exactly_zero(self, quad_model):
        fn = sampler.TestFunction(fn=lambda rows: np.full(rows.shape[0], 7.5), k=1, name="const", growth="constant")
        batch = sampler.sample_surface_scaling(quad_model, 20, 1000, seed=2)
        rep = sampler.ensemble_expectation_gap(quad_model, 20, 1, fn, batch, 1000, seed=3)
        assert rep.gap == 0.0
        assert rep.se_micro == 0.0

    def test_undeclared_growth_rejected(self):
        with pytest.raises(ValueError, match="multiple"):
            sampler.TestFunction(fn=lambda rows: rows[:, 0], k=1, name="bad", growth="energy")


class TestEntryChecks:
    """Malformed batches, vectors and test functions are refused where they
    enter."""

    @staticmethod
    def batch(points, n=4, method="scaling"):
        return sampler.SampleBatch(points=points, n=n, t=1.0, c=0.5, method=method, delta=None,
                                   acceptance_rate=1.0, seed=0)

    def test_batch_refuses_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method 'gibbs'"):
            self.batch(np.ones((3, 2)), method="gibbs")

    def test_batch_refuses_more_columns_than_n(self):
        with pytest.raises(ValueError, match="1 <= m <= n"):
            self.batch(np.ones((3, 5)), n=4)

    def test_central_projection_refuses_a_matrix(self):
        with pytest.raises(ValueError, match="single vector"):
            sampler.central_projection(ham.quadratic(), np.ones((2, 3)), 1.0)

    def test_unknown_growth_class(self):
        with pytest.raises(ValueError, match="unknown growth class 'linear'"):
            sampler.TestFunction(fn=lambda rows: rows[:, 0], k=1, name="bad", growth="linear")

    @pytest.mark.parametrize("k,n,batch_n,match", [(1, 4, 4, "more coordinates"), (2, 5, 4, "dimension mismatch")],
                             ids=["testfn_k_above_k", "batch_n_off"])
    def test_gap_refuses_mismatched_sizes(self, quad_model, k, n, batch_n, match):
        fn = sampler.TestFunction(fn=lambda rows: rows[:, 0] + rows[:, 1], k=2, name="x1+x2", growth="bounded")
        batch = self.batch(np.ones((3, 2)), n=batch_n)
        with pytest.raises(ValueError, match=match):
            sampler.ensemble_expectation_gap(quad_model, n, k, fn, batch, 10, seed=0)


class TestProjectionCheck:
    def test_inverse_cdf_draw_sits_at_null_level(self, quad_model, sphere_ref):
        """Drawing directly from the reference CDF keeps the statistic below
        the 5% critical value 1.36/sqrt(count).  A fixed seed pins the draw
        inside the null's bulk (any seed passes 95% of the time)."""
        rng = np.random.default_rng(7)
        u = rng.random(10_000)
        xs = np.interp(u, sphere_ref.cdf_values(), sphere_ref.points())
        fake = sampler.SampleBatch(
            points=np.column_stack([xs, np.zeros_like(xs), np.zeros_like(xs)]),
            n=3,
            t=1.0,
            c=quad_model.c,
            method="scaling",
            delta=None,
            acceptance_rate=1.0,
            seed=7,
        )
        assert sampler.empirical_projection_check(fake, sphere_ref) < 1.36 / math.sqrt(10_000)

    def test_metadata_mismatch_rejected(self, quad_model, sphere_ref):
        batch = sampler.sample_surface_scaling(quad_model, 4, 100, seed=1)
        with pytest.raises(ValueError, match="metadata"):
            sampler.empirical_projection_check(batch, sphere_ref)


class TestBatchFile:
    def test_roundtrip_bitwise(self, tmp_path, quad_model):
        batch = sampler.sample_surface_rejection(quad_model, 7, 0.2, 300, seed=77)
        path = tmp_path / "batch.thnshl"
        sampler.save_batch(batch, path)
        loaded = sampler.load_batch(path)
        assert np.array_equal(loaded.points, batch.points)
        assert (loaded.n, loaded.t, loaded.c) == (batch.n, batch.t, batch.c)
        assert loaded.method == "rejection" and loaded.delta == 0.2 and loaded.seed == 77

    def test_magic_guard(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            sampler.load_batch(path)

    def test_column_reduced_batch_refused(self, tmp_path, quad_model):
        batch = sampler.sample_surface_scaling(quad_model, 6, 64, seed=5, keep=2)
        path = tmp_path / "cut.thnshl"
        with pytest.raises(ValueError, match="2 of 6 coordinates"):
            sampler.save_batch(batch, path)
        assert not path.exists()

    def test_scaling_roundtrip_without_shell(self, tmp_path, quad_model):
        batch = sampler.sample_surface_scaling(quad_model, 3, 64, seed=5)
        path = tmp_path / "b2.thnshl"
        sampler.save_batch(batch, path)
        assert sampler.load_batch(path).delta is None
