import math

import numpy as np
import pytest
from scipy.integrate import quad

from thinshell import gibbs1d, hamiltonians as ham


class TestPartitionFunction:
    def test_quadratic_closed_form(self):
        assert gibbs1d.partition_function(ham.quadratic(), math.pi) == pytest.approx(1.0, rel=1e-10)

    def test_linear_closed_form(self):
        assert gibbs1d.partition_function(ham.linear_half(), 2.0) == pytest.approx(0.5, rel=1e-10)

    def test_quartic_below_gaussian(self):
        """x^2 + x^4 dominates x^2, so its normalizer sits below sqrt(pi)."""
        z = gibbs1d.partition_function(ham.quartic_perturbed(1.0), 1.0)
        oracle, _ = quad(lambda x: math.exp(-(x * x + x**4)), 0, 10)
        assert 0.0 < z < math.sqrt(math.pi)
        assert z == pytest.approx(2 * oracle, rel=1e-9)

    def test_power_against_quadrature(self):
        z = gibbs1d.partition_function(ham.power(3), 2.0)
        oracle, _ = quad(lambda x: math.exp(-2.0 * x**3), 0, 20)
        assert z == pytest.approx(oracle, rel=1e-9)

    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(ValueError):
            gibbs1d.partition_function(ham.quadratic(), 0.0)


class TestMoments:
    def test_gaussian_second_moment(self):
        """At c = 1/2 the coordinate is standard normal: E X^2 = 1, and the
        energy is chi-square with variance 2."""
        mu, sigma2, _ = gibbs1d.moments(ham.quadratic(), 0.5)
        assert mu == pytest.approx(1.0, rel=1e-9)
        assert sigma2 == pytest.approx(2.0, rel=1e-9)

    def test_exponential_moments(self):
        """Unit-rate exponential: mean 1, variance 1, E|Y-1|^3 = 12/e - 2."""
        mu, sigma2, m3 = gibbs1d.moments(ham.linear_half(), 1.0)
        assert mu == pytest.approx(1.0, rel=1e-10)
        assert sigma2 == pytest.approx(1.0, rel=1e-9)
        oracle, _ = quad(lambda y: abs(y - 1.0) ** 3 * math.exp(-y), 0, 60, points=[1.0])
        assert m3 == pytest.approx(oracle, rel=1e-9)
        assert m3 == pytest.approx(12.0 / math.e - 2.0, rel=1e-10)

    def test_mean_derivative_is_minus_variance(self, quad_model):
        """d mu/dc = -Var Y, checked by central differences at 1%."""
        c = quad_model.c
        h = 1e-4 * c
        mu_lo, _, _ = gibbs1d.moments(ham.quadratic(), c - h)
        mu_hi, _, _ = gibbs1d.moments(ham.quadratic(), c + h)
        assert (mu_lo - mu_hi) / (2 * h) == pytest.approx(quad_model.sigma2, rel=0.01)


class TestSolveEnergy:
    def test_quadratic_half(self):
        assert gibbs1d.solve_energy(ham.quadratic(), 0.5).c == pytest.approx(1.0, rel=1e-10)

    def test_quadratic_unit(self):
        assert gibbs1d.solve_energy(ham.quadratic(), 1.0).c == pytest.approx(0.5, rel=1e-10)

    def test_linear_unit(self):
        assert gibbs1d.solve_energy(ham.linear_half(), 1.0).c == pytest.approx(1.0, rel=1e-10)

    def test_matches_target_to_tolerance(self):
        model = gibbs1d.solve_energy(ham.quartic_perturbed(0.5), 2.5)
        assert abs(model.mu - 2.5) <= 1e-10 * 2.5

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_target_rejected(self, t):
        """nan fails every comparison in the bracketing, so without the
        check it would come back as c = 1."""
        with pytest.raises(ValueError, match="finite"):
            gibbs1d.solve_energy(ham.quadratic(), t)

    def test_mean_energy_strictly_decreasing(self):
        """20-point scan of c -> E f(X) over [0.1, 10]."""
        cs = np.linspace(0.1, 10.0, 20)
        mus = [gibbs1d.moments(ham.power(3), c)[0] for c in cs]
        assert np.all(np.diff(mus) < 0)


class TestGridParams:
    def test_defaults_accepted(self):
        params = gibbs1d.GridParams()
        assert params.sum_size == 2**17 and params.sd_extent == 12.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sum_size": 1},
            {"sum_size": 0},
            {"sum_size": 1024.0},
            {"sum_size": True},
            {"sd_extent": math.nan},
            {"sd_extent": math.inf},
            {"sd_extent": 0.0},
        ],
    )
    def test_bad_fields_rejected(self, kwargs):
        (name,) = kwargs
        with pytest.raises(ValueError, match=name):
            gibbs1d.GridParams(**kwargs)


class TestYDensity:
    def test_exponential_density(self, lin_model):
        grid = gibbs1d.y_density(lin_model)
        ys = np.array([0.5, 1.0, 3.0])
        np.testing.assert_allclose(grid.at(ys), np.exp(-ys), rtol=1e-7)
        assert grid.values[0] == pytest.approx(1.0, rel=1e-7)

    def test_chisquare_density(self, quad_model):
        """Energy of a standard normal coordinate is chi-square(1)."""
        grid = gibbs1d.y_density(quad_model)
        assert grid.at(1.0)[0] == pytest.approx(math.exp(-0.5) / math.sqrt(2 * math.pi), rel=1e-7)

    @pytest.mark.parametrize("c", [0.25, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("kind", ["quadratic", "linear_half", "power", "quartic_perturbed"])
    def test_unit_mass(self, kind, c):
        spec = {
            "quadratic": ham.quadratic,
            "linear_half": ham.linear_half,
            "power": lambda: ham.power(3),
            "quartic_perturbed": lambda: ham.quartic_perturbed(0.5),
        }[kind]()
        grid = gibbs1d.y_density(gibbs1d.model_at(spec, c))
        assert grid.meta["norm_defect"] < 1e-6
        assert grid.mass == pytest.approx(1.0, abs=1e-9)


class TestCharacteristicFunction:
    def test_exponential_oracle(self, lin_model):
        """Unit exponential: phi(u) = 1/(1 - iu)."""
        us = np.array([0.3, 1.0, 4.0, 20.0])
        got = gibbs1d.characteristic_function(lin_model, us)
        np.testing.assert_allclose(got, 1.0 / (1.0 - 1j * us), rtol=1e-9)
        assert abs(gibbs1d.characteristic_function(lin_model, 1.0)) == pytest.approx(2**-0.5, rel=1e-10)

    def test_chisquare_oracle(self, quad_model):
        us = np.array([0.5, 1.0, 7.0])
        got = gibbs1d.characteristic_function(quad_model, us)
        np.testing.assert_allclose(got, (1.0 - 2j * us) ** -0.5, rtol=1e-9)
        assert abs(gibbs1d.characteristic_function(quad_model, 1.0)) == pytest.approx(5.0**-0.25, rel=1e-10)

    def test_unit_at_zero(self, lin_model, quad_model, quartic_model):
        for model in (lin_model, quad_model, quartic_model):
            assert gibbs1d.characteristic_function(model, 0.0) == pytest.approx(1.0, abs=1e-8)

    def test_conjugate_symmetry_and_modulus(self, quartic_model):
        us = np.linspace(0.1, 30.0, 40)
        plus = gibbs1d.characteristic_function(quartic_model, us)
        minus = gibbs1d.characteristic_function(quartic_model, -us)
        np.testing.assert_allclose(minus, np.conj(plus), rtol=1e-12)
        assert np.all(np.abs(plus) <= 1.0 + 1e-12)

    def test_beyond_band_rejected(self, lin_model):
        with pytest.raises(ValueError, match="band"):
            gibbs1d.characteristic_function(lin_model, 1e9)


class TestCltPrerequisites:
    def test_exponential(self, lin_model):
        """|phi|^2 = 1/(1+u^2) integrates to pi; r = 1 diverges."""
        pre = gibbs1d.clt_prerequisites(lin_model)
        assert pre.r_used == 2
        assert pre.i_value == pytest.approx(math.pi, rel=1e-6)
        assert pre.nu < 1.0

    def test_chisquare(self, quad_model):
        """|phi|^r ~ (2u)^{-r/2}: integrable from r = 3 on."""
        pre = gibbs1d.clt_prerequisites(quad_model)
        assert pre.r_used == 3
        oracle = 2 * quad(lambda u: (1 + 4 * u * u) ** -0.75, 0, np.inf)[0]
        assert pre.i_value == pytest.approx(oracle, rel=1e-4)

    def test_nu_strictly_below_one(self, lin_model, quad_model, quartic_model):
        for model in (lin_model, quad_model, quartic_model):
            pre = gibbs1d.clt_prerequisites(model)
            assert 0.0 < pre.nu < 1.0
            assert pre.nu_threshold == pytest.approx(model.sigma2 / model.m3)


class TestEntropyEnergy:
    def test_exponential_entropy(self, lin_model):
        h, energy = gibbs1d.entropy_energy(lin_model)
        assert h == pytest.approx(1.0, rel=1e-10)
        assert energy == pytest.approx(1.0, rel=1e-10)

    def test_gaussian_entropy(self, quad_model):
        h, _ = gibbs1d.entropy_energy(quad_model)
        assert h == pytest.approx(0.5 * (1.0 + math.log(2 * math.pi)), rel=1e-10)

    def test_grid_density_matches_analytic(self, quad_model):
        """The Gibbs density sampled on a coordinate grid reproduces its own
        analytic entropy and energy."""
        xs = np.linspace(-12.0, 12.0, 2**17)
        vals = np.exp(-quad_model.c * xs**2) / quad_model.z
        from thinshell.grids import make_grid

        grid = make_grid(xs[0], xs[1] - xs[0], vals)
        h, energy = gibbs1d.entropy_energy(quad_model, grid)
        h0, e0 = gibbs1d.entropy_energy(quad_model)
        assert h == pytest.approx(h0, abs=1e-4)
        assert energy == pytest.approx(e0, abs=1e-4)

    def test_rejects_unnormalized(self, quad_model):
        from thinshell.grids import make_grid

        xs = np.linspace(-8.0, 8.0, 4096)
        grid = make_grid(xs[0], xs[1] - xs[0], np.full_like(xs, 0.2))
        with pytest.raises(ValueError, match="mass"):
            gibbs1d.entropy_energy(quad_model, grid)
