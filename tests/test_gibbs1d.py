import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import gammainc, gammaln

from thinshell import cli, gibbs1d, hamiltonians as ham


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

    @pytest.mark.parametrize("spec", [ham.quadratic(), ham.quartic_perturbed(1.0)], ids=["closed", "quadrature"])
    @pytest.mark.parametrize("c", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_temperature(self, spec, c):
        with pytest.raises(ValueError, match="finite and positive"):
            gibbs1d.partition_function(spec, c)

    @pytest.mark.parametrize("spec,c", [(ham.power(1.5), 1.0), (ham.quartic_perturbed(0.3), 7.0),
                                        (ham.quadratic(), 0.7), (ham.linear_half(), 2.0)])
    def test_is_the_models_z(self, spec, c):
        """One route to Z: the quadrature pass that also gives the mean."""
        assert gibbs1d.partition_function(spec, c) == gibbs1d.model_at(spec, c).z

    @pytest.mark.parametrize("spec,first", [(ham.quadratic(), "_quadpack_first_moment"),
                                            (ham.linear_half(), "_quadpack_first_moment"),
                                            (ham.power(1.5), "_halfline_integrals"),
                                            (ham.quartic_perturbed(0.3), "_halfline_integrals")],
                             ids=["quadratic", "linear_half", "power1.5", "quartic"])
    def test_runs_only_what_z_needs(self, monkeypatch, spec, first):
        """Only the model's first pass (Z and the mean it checks): no inverse
        for the moment kink and no central-moment pass."""
        calls = []
        for name in ("_halfline_integrals", "finv_values", "_quadpack_first_moment"):
            original = getattr(gibbs1d, name)
            monkeypatch.setattr(gibbs1d, name, lambda *a, name=name, original=original, **kw: calls.append(name)
                                or original(*a, **kw))
        gibbs1d.partition_function(spec, 0.7)
        assert calls == [first]

    @pytest.mark.parametrize("c", [1e-300, 1e300])
    def test_refuses_what_the_model_refuses(self, c):
        """One route to Z, so one set of refusals: where the model cannot
        cut off or resolve the weight, Z is refused with the same error."""
        with pytest.raises((RuntimeError, ValueError)) as model_error:
            gibbs1d.model_at(ham.linear_half(), c)
        with pytest.raises(type(model_error.value)) as z_error:
            gibbs1d.partition_function(ham.linear_half(), c)
        assert str(z_error.value) == str(model_error.value)


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

    @pytest.mark.parametrize("spec", [ham.quadratic(), ham.linear_half(), ham.power(3), ham.quartic_perturbed(1.0),
                                      ham.custom(lambda x: x + x**3 / 3.0)], ids=lambda s: s.kind)
    def test_model_fields_are_builtin_floats(self, spec):
        """A numpy scalar in a model field (np.float64 passes isinstance
        float) makes every scalar operation on it slower downstream."""
        model = gibbs1d.solve_energy(spec, 1.0)
        fields = {name: type(getattr(model, name)) for name in ("c", "z", "mu", "sigma2", "m3", "x_max")}
        assert fields == dict.fromkeys(fields, float)

    def test_mean_energy_strictly_decreasing(self):
        """20-point scan of c -> E f(X) over [0.1, 10]."""
        cs = np.linspace(0.1, 10.0, 20)
        mus = [gibbs1d.moments(ham.power(3), c)[0] for c in cs]
        assert np.all(np.diff(mus) < 0)


def gamma_moments(p: float, c: float) -> tuple[float, float, float, float]:
    """Z, mean, variance and E|Y - mu|^3 for ``f = x^p`` on the half-line:
    Y = X^p is Gamma(1/p, rate c).  The third absolute moment is
    ``E(Y - mu)^3 + 2 E[(mu - Y)^3; Y < mu]``, the partial moments
    ``E[Y^j; Y < mu]`` by the regularized incomplete gamma function."""
    k = 1.0 / p
    mu = k / c
    below = sum(
        math.comb(3, j) * (-1) ** j * mu ** (3 - j) * math.exp(gammaln(k + j) - gammaln(k)) / c**j * gammainc(k + j, k)
        for j in range(4)
    )
    return math.gamma(1.0 + k) / c**k, mu, k / c**2, 2.0 * k / c**3 + 2.0 * below


def quad_moments(spec, c: float) -> tuple[float, float, float, float]:
    """Z, mean, variance and E|Y - mu|^3 by scipy's adaptive quadrature."""
    factor = 2.0 if spec.support == ham.SYMMETRIC else 1.0

    def integral(weight, points=None):
        def integrand(x):
            fx = spec.fn(np.asarray([x]))[0]
            return weight(fx) * math.exp(-c * fx)

        return factor * quad(integrand, 0.0, 40.0, epsabs=0.0, epsrel=1.5e-14, limit=400, points=points)[0]

    z = integral(lambda f: 1.0)
    mu = integral(lambda f: f) / z
    kink = [float(ham.finv_values(spec, np.asarray([mu]))[0])]
    sigma2 = integral(lambda f: (f - mu) ** 2, kink) / z
    m3 = integral(lambda f: abs(f - mu) ** 3, kink) / z
    return z, mu, sigma2, m3


class TestHalflineQuadrature:
    """The adaptive Gauss-Legendre rule behind Z and the energy moments."""

    @pytest.mark.parametrize("c", [0.7, 2.0])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.0])
    def test_gamma_closed_forms(self, p, c):
        """Z and the three moments from the rule alone, the central ones
        with the break at f^{-1}(mu)."""
        spec = ham.power(p)
        x_max = gibbs1d._truncation(spec, c)
        z, first = gibbs1d._halfline_integrals(spec, c, lambda f: (np.ones_like(f), f), x_max)
        mu = first / z
        second, third = gibbs1d._halfline_integrals(
            spec, c, lambda f: ((f - mu) ** 2, np.abs(f - mu) ** 3), x_max, breaks=(mu ** (1.0 / p),))
        got = (z, mu, second / z, third / z)
        np.testing.assert_allclose(got, gamma_moments(p, c), rtol=1e-13, atol=0.0)
        if p != 1.0:  # power(1) is a closed-form family, whose mean goes through quad
            np.testing.assert_allclose(gibbs1d.moments(spec, c), got[1:], rtol=0.0, atol=0.0)

    @pytest.mark.parametrize("spec", [ham.quartic_perturbed(1.0), ham.custom(lambda x: x + x**3 / 3.0)],
                             ids=["quartic", "cubic_plus_linear"])
    @pytest.mark.parametrize("c", [0.3, 1.0])
    def test_against_scipy_quad(self, spec, c):
        got = (gibbs1d.partition_function(spec, c), *gibbs1d.moments(spec, c))
        np.testing.assert_allclose(got, quad_moments(spec, c), rtol=1e-13, atol=0.0)

    def test_interior_kink_converges_or_raises(self):
        """f = x + 2 (x - 1/3)^+ has a slope jump off every dyadic panel
        edge; the rule either resolves it or refuses."""
        spec = ham.custom(lambda x: x + 2.0 * np.maximum(x - 1.0 / 3.0, 0.0))
        # \int_0^a e^{-x} dx + e^{2a} \int_a^inf e^{-3x} dx with a = 1/3
        a = 1.0 / 3.0
        exact = -math.expm1(-a) + math.exp(2.0 * a) * math.exp(-3.0 * a) / 3.0
        try:
            z = gibbs1d.partition_function(spec, 1.0)
        except RuntimeError:
            return
        assert z == pytest.approx(exact, rel=1e-12)

    def test_pass_budget_exhausted_raises(self, monkeypatch):
        monkeypatch.setattr(gibbs1d, "_QUAD_PASSES", 0)
        with pytest.raises(RuntimeError, match="did not converge"):
            gibbs1d.partition_function(ham.quartic_perturbed(1.0), 1.0)

    def test_nan_integrand_raises(self):
        """A weight that is nan everywhere is never accepted: the panel cap
        stops the bisection."""
        spec = ham.custom(lambda x: np.full_like(x, math.nan))
        with pytest.raises(RuntimeError, match="did not converge"):
            gibbs1d._halfline_integrals(spec, 1.0, lambda f: (np.ones_like(f),), 8.0)


class TestEnergyMatching:
    @given(p=st.floats(1.0, 4.0), t=st.floats(0.5, 2.0))
    def test_homogeneous_closed_form(self, p, t):
        """E f(X) = 1/(d c) for f homogeneous of degree d, so c = 1/(p t)."""
        model = gibbs1d.solve_energy(ham.power(p), t)
        assert model.c == 1.0 / (p * t)
        assert abs(model.mu - t) <= 1e-13 * t

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.5])
    @pytest.mark.parametrize("spec", [ham.quartic_perturbed(1.0), ham.custom(lambda x: x + x**3 / 3.0)],
                             ids=["quartic", "cubic_plus_linear"])
    def test_newton_against_brent_on_quad(self, spec, t):
        """Newton on the Gauss-Legendre mean finds the root that Brent's
        method finds on scipy's quadrature of the mean."""
        oracle = brentq(lambda c: quad_moments(spec, c)[1] - t, 1e-3, 1e3, xtol=1e-300, rtol=8.9e-16)
        assert gibbs1d.solve_energy(spec, t).c == pytest.approx(oracle, rel=1e-14)

    @pytest.mark.parametrize(
        "spec,t",
        [
            (ham.quadratic(), 1e-300),
            (ham.quadratic(), 1e300),
            (ham.quartic_perturbed(1.0), 1e-300),
            (ham.quartic_perturbed(1.0), 1e300),
            # the mean integral, 1.25e-15, lies below QUADPACK's absolute
            # tolerance epsabs = 1e-12, so dqagse accepts an estimate
            # 1.9e-9 off and the mean misses t
            (ham.quadratic(), 1e-10),
        ],
        ids=["quadratic-1e-300", "quadratic-1e+300", "quartic-1e-300", "quartic-1e+300", "quadratic-1e-10"],
    )
    def test_unreachable_target_names_t(self, spec, t):
        """Weights the quadrature cannot resolve, tails past the cutoff, and
        a model whose mean misses t (the quadratic at 1e-10, through
        QUADPACK's ``epsabs``) are all refused with the same ValueError."""
        with pytest.raises(ValueError, match=re.escape(f"t={t!r}")):
            gibbs1d.solve_energy(spec, t)

    @pytest.mark.parametrize(
        "spec,t",
        [
            *((ham.custom(lambda x: x + x**3 / 3.0), t) for t in (1e-6, 1e-9, 1e-12)),
            *((ham.linear_half(), t) for t in (1e-6, 1e-9, 1e-12)),
            *((ham.quartic_perturbed(1.0), t) for t in (1e-9, 1e-12)),
        ],
        ids=lambda v: v.kind if isinstance(v, ham.HamiltonianSpec) else f"{v:g}",
    )
    def test_tiny_t_resolves(self, spec, t):
        """A weight narrower than x = 1 is integrated on a cutoff halved
        below 1, so its mean meets t instead of being refused."""
        model = gibbs1d.solve_energy(spec, t)
        assert model.x_max < 1.0
        assert abs(model.mu / t - 1.0) <= gibbs1d._MATCH_RTOL

    def test_cancelled_variance_takes_the_bracket(self, monkeypatch):
        """A variance that cancels to 0 leaves the Newton step ``c (t - mu)
        / (t - mu)`` = c, which lands on 0, outside the bracket.  At c = 1
        the quartic's mean is already below t = 1, so the bracket's upper
        end is 1 and the first step halves c; the matching still meets t
        instead of dividing by zero."""
        integrals = gibbs1d._halfline_integrals
        calls = []

        def first_without_variance(*args, **kwargs):
            out = integrals(*args, **kwargs)
            calls.append(args[1])
            if len(calls) > 1:
                return out
            mu = float(out[1] / out[0])
            return np.array([1.0, mu, mu * mu])  # var = mu^2 - mu^2 = 0

        monkeypatch.setattr(gibbs1d, "_halfline_integrals", first_without_variance)
        model = gibbs1d.solve_energy(ham.quartic_perturbed(1.0), 1.0)
        assert calls[:2] == [1.0, 0.5]
        assert abs(model.mu - 1.0) <= gibbs1d._MATCH_RTOL

    @pytest.mark.parametrize("t", [1e100, 1e200, 1e300])
    def test_huge_t_answered_in_few_passes(self, monkeypatch, t):
        """Past t ~ 1e75 the quartic's step from c = 1 lands exactly on 0 at
        every halving a 200-step run can make, which took 200 quadrature
        passes (about 190 ms) to refuse; the start search decides within 10
        passes, and a refusal names t."""
        passes = []
        integrals = gibbs1d._halfline_integrals

        def counted(spec, c, *args, **kwargs):
            passes.append(c)
            return integrals(spec, c, *args, **kwargs)

        monkeypatch.setattr(gibbs1d, "_halfline_integrals", counted)
        try:
            model = gibbs1d.solve_energy(ham.quartic_perturbed(1.0), t)
        except ValueError as exc:
            assert f"t={t!r}" in str(exc)
        else:
            assert abs(model.mu / t - 1.0) <= gibbs1d._MATCH_RTOL
        assert 0 < len(passes) <= 10

    @pytest.mark.parametrize("spec", [ham.quartic_perturbed(1.0), ham.custom(lambda x: x + x**3 / 3.0)],
                             ids=["quartic", "cubic_plus_linear"])
    def test_start_search_keeps_every_c(self, spec):
        """c equals, bit for bit, the c of the plain Newton run from 1 that
        halves c one quadrature pass at a time: on 200 log-spaced t in [1e-3,
        1e3], where no step lands on 0, and on 12 in [1e16, 1e50], where the
        halvings run (both families converge there)."""

        def plain(t):
            def residual(cs, _live):
                c = float(cs[0])
                x_max = gibbs1d._truncation(spec, c)
                mass, first, second = gibbs1d._halfline_integrals(spec, c, lambda f: (np.ones_like(f), f, f * f),
                                                                  x_max)
                mu = float(first / mass)
                var = float(second / mass) - mu * mu
                return np.array([c * (t - mu)]), np.array([t - mu + c * var])

            return float(ham._newton(residual, [1.0], math.inf, gibbs1d._MATCH_CTOL, "energy matching")[0])

        for t in [*np.geomspace(1e-3, 1e3, 200), *np.geomspace(1e16, 1e50, 12)]:
            assert gibbs1d._match_energy(spec, float(t)) == plain(float(t)), t

    def test_unreachable_target_cli(self, capsys):
        assert cli.main(["solve-c", "--kind", "quadratic", "--t", "1e-300"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "t=1e-300" in err


class TestEntryChecks:
    """Bad input to the model layer is refused where it enters."""

    @pytest.mark.parametrize("t", [0.0, -1.0])
    def test_non_positive_target(self, t):
        with pytest.raises(ValueError, match="target energy must be positive"):
            gibbs1d.solve_energy(ham.quadratic(), t)

    def test_y_density_at_zero(self, quad_model):
        with pytest.raises(ValueError, match="y > 0 only"):
            gibbs1d.log_y_density(quad_model, [0.0])

    def test_zero_normaliser(self):
        with pytest.raises(ValueError, match="degenerate model"):
            gibbs1d.GibbsModel(spec=ham.quadratic(), c=0.5, z=0.0, mu=1.0, sigma2=2.0, m3=3.0, x_max=64.0)


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


    def test_density_vanishing_at_zero(self, sqrt_model):
        """An energy density that vanishes at 0 (sqrt(x) + x) gets 0 at node
        0 and no edge model, and its raw mass is within 1e-6 of 1."""
        grid = gibbs1d.y_density(sqrt_model)
        assert gibbs1d._edge_model(sqrt_model).beta == pytest.approx(1.0, abs=1e-6)
        assert grid.values[0] == 0.0 and grid.edge is None
        assert grid.meta["norm_defect"] < 1e-6

    def test_vanishing_edge_fitted_without_inverse(self):
        """Without dfn and ifn the Newton inverse at y = 1e-9 resolves x ~
        y^2 to its own scale, so the fitted exponent is 1, not 1/2."""
        model = gibbs1d.solve_energy(ham.custom(lambda x: np.sqrt(x) + x), 1.0)
        assert gibbs1d._edge_model(model).beta == pytest.approx(1.0, abs=1e-6)


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

    def test_unit_at_zero(self, lin_model, quad_model, quartic_model, sqrt_model):
        for model in (lin_model, quad_model, quartic_model, sqrt_model):
            assert gibbs1d.characteristic_function(model, 0.0) == pytest.approx(1.0, abs=1e-8)

    def test_conjugate_symmetry_and_modulus(self, quartic_model):
        us = np.linspace(0.1, 30.0, 40)
        plus = gibbs1d.characteristic_function(quartic_model, us)
        minus = gibbs1d.characteristic_function(quartic_model, -us)
        np.testing.assert_allclose(minus, np.conj(plus), rtol=1e-12)
        assert np.all(np.abs(plus) <= 1.0 + 1e-12)

    def test_real_sums_match_complex_exponential(self, quartic_model):
        """The remainder's trapezoid transform, summed as a real cosine and a
        real sine sum, is the complex-exponential sum up to round-off."""
        assert quartic_model.spec.homogeneous_degree is None
        grid, rem = gibbs1d._cached_remainder(quartic_model)
        ys = grid.points()[1:]
        weights = np.full(ys.shape, grid.dx)
        weights[-1] *= 0.5
        us = np.array([quartic_model.sigma2 / quartic_model.m3, 0.7, 3.0, -11.0])
        edge = gibbs1d._edge_model(quartic_model).transform(gibbs1d._log_c_minus_iu(quartic_model.c, us))
        reference = edge + np.array([np.sum(rem * weights * np.exp(1j * u * ys)) for u in us])
        got = gibbs1d.characteristic_function(quartic_model, us)
        np.testing.assert_allclose(got, reference, rtol=1e-14, atol=0.0)

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

    @pytest.mark.parametrize(
        "spec,r_used",
        [
            (ham.quadratic(), 3),
            (ham.quartic_perturbed(1.0), 3),
            (ham.power(3), 4),
            (ham.custom(lambda x: x + x**3 / 3.0), 2),
            (ham.power(8), 9),
        ],
        ids=["quadratic", "quartic", "power3", "custom", "power8"],
    )
    def test_order_from_decay_exponent(self, spec, r_used):
        """r is the smallest integer above 1.05/gamma, with no cap: power(8)
        decays like u^(-1/8) and needs r = 9."""
        pre = gibbs1d.clt_prerequisites(gibbs1d.solve_energy(spec, 1.0))
        assert pre.r_used == r_used == math.floor(1.05 / pre.tail_exponent) + 1
        assert pre.tail_exponent * (r_used - 1) <= 1.05 < pre.tail_exponent * r_used

    def test_power8_scan_cli(self, capsys):
        assert cli.main(["clt-scan", "--kind", "power", "--p", "8", "--clt-n-list", "8,16"]) == 0
        assert capsys.readouterr().out.rstrip().endswith("r = 9)")

    def test_nu_strictly_below_one(self, lin_model, quad_model, quartic_model, sqrt_model):
        for model in (lin_model, quad_model, quartic_model, sqrt_model):
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

    def test_edge_grid_against_gamma_entropy(self, lin_model, quad_model):
        """w_1 of the quadratic family is Gamma(1/2, c), singular at 0: the
        edge-aware integral meets its closed-form entropy, and its mean is
        the energy under the linear f."""
        from scipy.special import digamma, gammaln

        from thinshell import sumdensity

        grid = sumdensity.w_exact(quad_model, 1)
        assert grid.edge is not None
        a, c = 0.5, quad_model.c
        oracle = a - math.log(c) + gammaln(a) + (1.0 - a) * digamma(a)
        h, energy = gibbs1d.entropy_energy(lin_model, grid)
        assert h == pytest.approx(oracle, abs=1e-3)
        assert energy == pytest.approx(quad_model.mu, abs=1e-6)

    def test_rejects_unnormalized(self, quad_model):
        from thinshell.grids import make_grid

        xs = np.linspace(-8.0, 8.0, 4096)
        grid = make_grid(xs[0], xs[1] - xs[0], np.full_like(xs, 0.2))
        with pytest.raises(ValueError, match="mass"):
            gibbs1d.entropy_energy(quad_model, grid)
