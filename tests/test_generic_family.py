"""End-to-end checks on families without closed-form sum densities, where
every stage rides the characteristic-function route."""

import math

import numpy as np
import pytest

from thinshell import gibbs1d, hamiltonians as ham, projection, sampler, sumdensity


@pytest.fixture(scope="module")
def cubic_model():
    return gibbs1d.solve_energy(ham.power(3), 1.0)


@pytest.fixture(scope="module")
def cubic_scan(cubic_model):
    return sumdensity.local_clt_scan(cubic_model, (8, 16, 32, 64))


class TestFamilyConsistency:
    def test_power_two_symmetric_equals_quadratic(self):
        """|x|^2 on the line and the quadratic family are the same model."""
        a = gibbs1d.solve_energy(ham.quadratic(), 1.0)
        b = gibbs1d.solve_energy(ham.power(2, support=ham.SYMMETRIC), 1.0)
        assert b.c == pytest.approx(a.c, rel=1e-10)
        assert b.z == pytest.approx(a.z, rel=1e-9)
        assert b.sigma2 == pytest.approx(a.sigma2, rel=1e-8)

    def test_power_one_equals_linear_half(self):
        a = gibbs1d.solve_energy(ham.linear_half(), 2.5)
        b = gibbs1d.solve_energy(ham.power(1.0), 2.5)
        assert b.c == pytest.approx(a.c, rel=1e-10)
        assert b.m3 == pytest.approx(a.m3, rel=1e-8)

    @pytest.mark.parametrize("t", [0.01, 100.0])
    def test_extreme_targets(self, t):
        model = gibbs1d.solve_energy(ham.quadratic(), t)
        assert model.c == pytest.approx(0.5 / t, rel=1e-10)
        assert gibbs1d.y_density(model).meta["norm_defect"] < 1e-6


class TestCubicPipeline:
    def test_scan_decays(self, cubic_scan):
        devs = np.asarray(cubic_scan.sup_devs)
        assert np.all(np.diff(devs) < 0)
        assert cubic_scan.r_used == 4  # |phi| ~ u^{-1/3}

    def test_bounds_hold(self, cubic_model, cubic_scan):
        ctx = projection.make_context(cubic_model, 60, 2)
        report = projection.bound_report(ctx, cubic_scan.c_hat)
        assert report.pass_kl and report.pass_tv
        assert report.df_bound is None  # no closed-form distance bound here

    def test_ratio_bound(self, cubic_model, cubic_scan, ratio_lemma):
        lhs, rhs = ratio_lemma(projection.make_context(cubic_model, 60, 2), cubic_scan.c_hat)
        assert lhs <= rhs

    def test_conditional_density_normalizes(self, cubic_model):
        ctx = projection.make_context(cubic_model, 60, 1)
        rk = projection.rk_conditional_density(ctx)
        assert rk.meta["norm_defect"] < 1e-4
        assert rk.mean() == pytest.approx(1.0, rel=1e-5)

    def test_scaling_sampler_matches_projection(self, cubic_model):
        """Homogeneous cubic energy: the gamma-transform sampler agrees with
        the exact projected density."""
        ctx = projection.make_context(cubic_model, 60, 1)
        ref = projection.project_uniform_k1(ctx)
        batch = sampler.sample_surface_scaling(cubic_model, 60, 5_000, seed=19)
        assert sampler.empirical_projection_check(batch, ref) < 0.025

    def test_divergence_trend(self, cubic_model):
        kl_small = projection.kl_to_gibbs(projection.make_context(cubic_model, 60, 1))
        kl_large = projection.kl_to_gibbs(projection.make_context(cubic_model, 240, 1))
        assert kl_large < kl_small


class TestQuarticPipeline:
    def test_bounds_hold(self, quartic_model):
        scan = sumdensity.local_clt_scan(quartic_model, (8, 16, 32))
        ctx = projection.make_context(quartic_model, 40, 2)
        report = projection.bound_report(ctx, scan.c_hat)
        assert report.pass_kl and report.pass_tv

    def test_tilted_inequality(self, quartic_model):
        scan = sumdensity.local_clt_scan(quartic_model, (8, 16, 32))
        ctx = projection.make_context(quartic_model, 40, 1)
        for alpha in (0.1, -0.1):
            report = projection.bound_report(ctx, scan.c_hat, alpha=alpha)
            assert report.pass_kl

    def test_rejection_acceptance_prediction(self, quartic_model):
        batch = sampler.sample_surface_rejection(quartic_model, 20, 0.2, 1_000, seed=23)
        predicted = sampler.shell_mass(quartic_model, 20, 0.2)
        assert predicted / 1.5 <= batch.acceptance_rate <= predicted * 1.5
