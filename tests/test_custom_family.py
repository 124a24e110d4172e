"""Whole-pipeline run on a user-supplied energy function, exercising the
finite-difference derivative, the Newton inverse, and the tabulated
inverse-CDF sampler."""

import numpy as np
import pytest

from thinshell import gibbs1d, hamiltonians as ham, projection, sampler, sumdensity


@pytest.fixture(scope="module")
def cubic_plus_linear():
    spec = ham.custom(lambda x: x + np.power(x, 3))
    return gibbs1d.solve_energy(spec, 1.0)


def test_admissibility(cubic_plus_linear):
    report = ham.check_class_f(cubic_plus_linear.spec)
    assert report.overall
    a1, a2 = report.tail_slope
    assert a1 == pytest.approx(2.0, rel=1e-6)  # half the slope 1 + 3x^2 at x = 1


def test_energy_density_mass(cubic_plus_linear):
    grid = gibbs1d.y_density(cubic_plus_linear)
    assert grid.meta["norm_defect"] < 1e-6


def test_sum_density_moments(cubic_plus_linear):
    w4 = sumdensity.w_fft(cubic_plus_linear, 4)
    assert w4.mean() == pytest.approx(4.0, rel=1e-6)
    assert w4.var() == pytest.approx(4.0 * cubic_plus_linear.sigma2, rel=1e-6)


def test_bounds_hold(cubic_plus_linear):
    scan = sumdensity.local_clt_scan(cubic_plus_linear, (8, 16, 32))
    ctx = projection.make_context(cubic_plus_linear, 30, 1)
    report = projection.bound_report(ctx, scan.c_hat)
    assert report.pass_kl and report.pass_tv


def test_rejection_sampler_and_prediction(cubic_plus_linear):
    """The tabulated inverse CDF drives the draws; acceptance must track the
    sum-density shell mass and the first coordinate the exact projection."""
    model = cubic_plus_linear
    ctx = projection.make_context(model, 30, 1)
    ref = projection.project_uniform_k1(ctx)
    batch = sampler.sample_surface_rejection(model, 30, 0.2, 4_000, seed=31)
    predicted = sampler.shell_mass(model, 30, 0.2)
    assert predicted / 1.5 <= batch.acceptance_rate <= predicted * 1.5
    assert sampler.empirical_projection_check(batch, ref) < 0.03


@pytest.fixture(scope="module")
def power_pair():
    """power(1.5) and the same f given as a custom spec with its exact
    derivative but no inverse: the two differ only in how f^-1 is found."""
    spec = ham.custom(lambda x: np.power(x, 1.5), dfn=lambda x: 1.5 * np.power(x, 0.5))
    return gibbs1d.solve_energy(ham.power(1.5), 1.0), gibbs1d.solve_energy(spec, 1.0)


@pytest.mark.parametrize("n,k", [(50, 1), (50, 3), (100, 1), (100, 3)])
def test_divergences_match_closed_inverse(power_pair, n, k):
    ref, cus = (projection.make_context(model, n, k) for model in power_pair)
    assert projection.kl_to_gibbs(cus) == pytest.approx(projection.kl_to_gibbs(ref), rel=1e-9, abs=0)
    assert projection.tv_to_gibbs(cus) == pytest.approx(projection.tv_to_gibbs(ref), rel=1e-9, abs=0)


def test_bound_rows_same_on_any_thread_count(monkeypatch):
    """The custom family of the benchmark (x + x^3/3, no inverse given):
    fanned-out scan, concurrent grid builds and the fanned-out inverse
    change no number of a fresh run."""
    spec = ham.custom(lambda x: x + x**3 / 3.0)
    rows = []
    for threads in ("1", "2", None):
        if threads is None:
            monkeypatch.delenv("THINSHELL_THREADS", raising=False)
        else:
            monkeypatch.setenv("THINSHELL_THREADS", threads)
        model = gibbs1d.solve_energy(spec, 1.0)
        c_hat = sumdensity.local_clt_scan(model, (8, 16)).c_hat
        rows.append([projection.bound_report(projection.make_context(model, 30, k), c_hat) for k in (1, 3)])
    assert rows[0] == rows[1] == rows[2]
