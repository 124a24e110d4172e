import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammainc, gammaln
from scipy.stats import gamma as gamma_dist

from thinshell import gibbs1d, grids, hamiltonians as ham
from thinshell.grids import DensityGrid, EdgeModel, make_grid


def _gamma_grid(shape: float, rate: float, x_max: float = 60.0, m: int = 2**16) -> DensityGrid:
    dx = x_max / (m - 1)
    xs = dx * np.arange(m)
    values = np.zeros(m)
    values[1:] = gamma_dist.pdf(xs[1:], shape, scale=1.0 / rate)
    edge = None
    if shape < 1.0:
        edge = EdgeModel(shape - 1.0, shape * math.log(rate) - math.lgamma(shape), rate)
    elif shape == 1.0:
        values[0] = rate
    return make_grid(0.0, dx, values, edge=edge)


class TestMass:
    @pytest.mark.parametrize("shape", [0.5, 0.75, 1.0, 2.0, 7.5])
    def test_gamma_mass(self, shape):
        """Unit mass recovered even through the integrable edge singularity."""
        grid = _gamma_grid(shape, 1.0)
        assert grid.mass == pytest.approx(1.0, abs=5e-7)

    def test_negative_values_clipped(self):
        grid = make_grid(0.0, 0.1, np.array([1.0, -0.5, 1.0]))
        assert np.all(grid.values >= 0.0)

    def test_singular_grid_needs_sentinel(self):
        with pytest.raises(ValueError, match="sentinel"):
            make_grid(0.0, 0.1, np.array([3.0, 1.0]), edge=EdgeModel(-0.5, 0.0, 1.0))


class TestLogInterpolation:
    def test_geometric_interpolation(self):
        """Log-space linear interpolation is exact for exponential decay."""
        grid = _gamma_grid(1.0, 1.0)
        xs = np.array([0.05, 1.033, 17.7])
        np.testing.assert_allclose(grid.log_at(xs), -xs, atol=1e-9)

    def test_edge_cell_uses_model(self):
        grid = _gamma_grid(0.5, 1.0)
        x = 0.25 * grid.dx
        expected = gamma_dist.logpdf(x, 0.5, scale=1.0)
        assert grid.log_at(x)[0] == pytest.approx(expected, rel=1e-8)

    def test_outside_is_log_zero(self):
        grid = _gamma_grid(2.0, 1.0)
        assert np.isneginf(grid.log_at(np.array([-1.0, 1e9]))).all()

    def test_log_values_invariant(self):
        grid = _gamma_grid(2.0, 1.0)
        pos = grid.values > 0
        np.testing.assert_allclose(grid.log_values[pos], np.log(grid.values[pos]))
        assert np.isneginf(grid.log_values[~pos]).all()

    def test_log_values_taken_on_first_read(self):
        """Neither ``make_grid`` nor ``normalized`` takes the log; the first
        read does, once."""
        grid = _gamma_grid(0.5, 1.0)
        normed = grid.normalized()
        assert "log_values" not in grid._cache and "log_values" not in normed._cache
        first = normed.log_values
        assert normed.log_values is first and "log_values" not in grid._cache


class TestIntegrate:
    def test_moments_of_singular_gamma(self):
        """Mean and variance of Gamma(1/2, 1) through the edge machinery."""
        grid = _gamma_grid(0.5, 1.0)
        assert grid.mean() == pytest.approx(0.5, abs=5e-7)
        assert grid.var() == pytest.approx(0.5, abs=5e-7)

    def test_weighted_integral_matches_quadrature(self):
        grid = _gamma_grid(0.5, 2.0)
        got = grid.integrate(lambda x: np.cos(x))
        oracle, _ = quad(lambda x: math.cos(x) * gamma_dist.pdf(x, 0.5, scale=0.5), 0, 30, limit=200)
        assert got == pytest.approx(oracle, abs=1e-6)

    @pytest.mark.parametrize("shape", [0.5, 2.0], ids=["edge", "plain"])
    def test_node_values_stand_in_for_fn(self, shape):
        """Given fn's node values, the integral is the one fn alone gives;
        fn is then called only off the nodes, and node values without fn
        are refused."""
        grid = _gamma_grid(shape, 2.0)
        seen = []

        def fn(x):
            seen.append(len(x))
            return np.cos(x)

        want = grid.integrate(np.cos)
        assert grid.integrate(fn, np.cos(grid.points())) == want
        assert len(grid) not in seen and (seen != []) == (grid.edge is not None)
        with pytest.raises(ValueError, match="pointwise fn"):
            grid.integrate(None, np.cos(grid.points()))

    def test_two_term_edge_model(self):
        """Adding the next-order power to the model keeps closed-form mass."""
        m = 2**15
        dx = 40.0 / (m - 1)
        xs = dx * np.arange(m)
        vals = np.zeros(m)
        vals[1:] = (xs[1:] ** -0.5 + 0.25 * xs[1:] ** 0.5) * np.exp(-xs[1:])
        edge = EdgeModel(-0.5, 0.0, 1.0, beta2=0.5, coef2=0.25)
        grid = make_grid(0.0, dx, vals, edge=edge)
        oracle = math.gamma(0.5) + 0.25 * math.gamma(1.5)
        assert grid.mass == pytest.approx(oracle, abs=1e-6)


class TestCdfAndNormalize:
    def test_cdf_matches_gamma(self):
        grid = _gamma_grid(0.5, 1.0)
        idx = np.array([1, 10, 1000, 30000])
        got = grid.cdf_values()[idx]
        oracle = gamma_dist.cdf(grid.points()[idx], 0.5, scale=1.0)
        np.testing.assert_allclose(got, oracle, atol=5e-7)

    def test_cdf_model_part_is_the_pointwise_mass(self):
        """The vectorised model mass in ``cdf_values`` equals, bit for bit,
        the incomplete-gamma formula taken at one node at a time."""
        grid = _gamma_grid(0.5, 1.0)
        edge = EdgeModel(-0.5, -0.5 * math.log(math.pi), 1.0, beta2=0.5, coef2=0.25)
        grid = make_grid(grid.x0, grid.dx, grid.values, edge=edge)
        vs = grid.points()[:257]

        def pointwise(v):
            out = 0.0
            for b, log_a, sign in edge._terms:
                a = b + 1.0
                out += sign * float(np.exp(log_a + gammaln(a) - a * np.log(edge.rate)) * gammainc(a, edge.rate * v))
            return out

        want = np.array([pointwise(v) for v in vs])
        np.testing.assert_array_equal(edge.mass_below(vs), want)
        rem = grid.values[:257] - edge.density(vs)
        rem[0] = 0.0
        np.testing.assert_array_equal(grid.cdf_values()[:257], want + np.concatenate(([0.0], np.cumsum(0.5 * grid.dx * (rem[1:] + rem[:-1])))))

    @pytest.mark.parametrize("rate_shift", [0.4, 1.3, 2.0], ids=["positive", "zero", "negative"])
    def test_mass_below_array_matches_scalars(self, rate_shift):
        edge = EdgeModel(-0.5, 0.3, 1.3, beta2=0.5, coef2=0.25).scaled(0.0, rate_shift)
        vs = 0.0123 * np.arange(257)
        got = edge.mass_below(vs)
        assert got.shape == vs.shape and isinstance(edge.mass_below(1.0), float)
        np.testing.assert_array_equal(got, [edge.mass_below(float(v)) for v in vs])

    def test_normalized_mass_and_defect(self):
        grid = _gamma_grid(0.5, 1.0)
        scaled = make_grid(grid.x0, grid.dx, grid.values * 1.01, edge=EdgeModel(-0.5, math.log(1.01) - 0.5 * math.log(math.pi), 1.0))
        normed = scaled.normalized()
        assert normed.mass == pytest.approx(1.0, abs=1e-12)
        assert normed.meta["norm_defect"] == pytest.approx(0.01, rel=1e-3)

    @pytest.mark.parametrize("shape", [0.5, 1.0, 2.5], ids=["edge", "jump", "plain"])
    def test_normalized_integrates_nothing(self, monkeypatch, shape):
        """The rescaled grid's mass is ``mass * scale``: no second
        integration, and within 2 ulp of 1."""
        grid = _gamma_grid(shape, 1.3)
        scaled = make_grid(grid.x0, grid.dx, grid.values * 1.01, edge=grid.edge and grid.edge.scaled(math.log(1.01)))
        calls = []
        original = grids._integrate
        monkeypatch.setattr(grids, "_integrate", lambda *args: calls.append(args) or original(*args))
        normed = scaled.normalized()
        assert calls == []
        assert abs(normed.mass - 1.0) <= 2 * np.spacing(1.0)
        assert normed.integrate() == pytest.approx(normed.mass, rel=1e-14)


class TestEdgeModelAlgebra:
    """The closed-form operations on an edge model against independent
    oracles: Gamma laws, quadrature of the model's defining formula."""

    @pytest.mark.parametrize("p", [1.5, 3.0])
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_convolution_of_power_edge_is_gamma_lead(self, p, n):
        """|X|^p under exp(-c|x|^p) is Gamma(1/p, c), so the n-fold sum is
        Gamma(n/p, c): exponent n/p - 1, amplitude c^(n/p) / Gamma(n/p)."""
        model = gibbs1d.solve_energy(ham.power(p), 1.0)
        conv = gibbs1d._edge_model(model).convolve(n)
        assert conv.beta == pytest.approx(n / p - 1.0, abs=1e-9)
        assert conv.log_k == pytest.approx((n / p) * math.log(model.c) - math.lgamma(n / p), abs=1e-9)
        assert conv.rate == model.c

    def test_convolution_keeps_terms_below_the_cut(self):
        edge = EdgeModel(-0.5, 0.0, 1.0, beta2=0.5, coef2=0.25)
        assert edge.convolve(3, below=2.0).beta2 == pytest.approx(1.5, abs=1e-15)
        lead_only = edge.convolve(4, below=2.0)
        assert lead_only.beta == pytest.approx(1.0, abs=1e-15) and lead_only.beta2 is None
        assert edge.convolve(6, below=2.0) is None

    @pytest.mark.parametrize("beta, beta2", [(19.0, None), (25.0, None), (-0.5, 19.0), (-0.5, math.inf), (-0.5, math.nan)])
    def test_exponents_past_the_incomplete_gamma_domain_refused(self, beta, beta2):
        """The mass of ``v^b exp(-rate v)`` is an incomplete gamma of shape
        ``b + 1``, which the package evaluates up to shape 20."""
        with pytest.raises(ValueError, match="below 19"):
            EdgeModel(beta, 0.0, 1.0, beta2=beta2, coef2=0.25)

    def test_convolution_past_the_domain_refused(self):
        with pytest.raises(ValueError, match="below 19"):
            EdgeModel(-0.5, 0.0, 1.0).convolve(40)

    def test_largest_exponent_mass(self):
        edge = EdgeModel(18.99, 0.0, 1.3)
        for v in (1.0, 14.6, 30.0, math.inf):
            want = math.gamma(19.99) * 1.3**-19.99 * gammainc(19.99, 1.3 * v)
            assert edge.mass_below(v) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("coef2", [0.25, -0.25])
    @pytest.mark.parametrize("u", [0.0, 0.7, 3.0])
    def test_transform_matches_quadrature(self, coef2, u):
        """``\\int model(v) e^{iuv} dv`` by quadrature, with v = s^2 taking
        the v^(-1/2) singularity out of the integrand."""
        edge = EdgeModel(-0.5, 0.3, 1.3, beta2=0.5, coef2=coef2)

        def part(trig):
            # model(s^2) * 2s = 2 (e^0.3 + coef2 s^2) e^{-1.3 s^2}
            fn = lambda s: 2.0 * (math.exp(0.3) + coef2 * s * s) * math.exp(-1.3 * s * s) * trig(u * s * s)
            return quad(fn, 0.0, math.inf, epsabs=1e-13, epsrel=1e-12, limit=400)[0]

        oracle = complex(part(math.cos), part(math.sin))
        got = complex(edge.transform(np.log(np.asarray([1.3 - 1j * u])))[0])
        assert abs(got - oracle) <= 1e-9 * abs(oracle)

    @pytest.mark.parametrize("coef2", [0.25, -0.25])
    @pytest.mark.parametrize("rate_shift", [0.4, 2.0])
    def test_scaled_density_and_mass(self, coef2, rate_shift):
        """``scaled(f, r)`` is ``exp(f + r v) * model(v)``; its mass below
        v agrees with quadrature, also when the shifted rate turns negative."""
        edge = EdgeModel(-0.5, 0.3, 1.3, beta2=0.5, coef2=coef2)
        f = 0.7
        scaled = edge.scaled(f, rate_shift)
        vs = np.array([1e-3, 0.1, 1.0, 5.0])
        np.testing.assert_allclose(scaled.density(vs), np.exp(f + rate_shift * vs) * edge.density(vs), rtol=1e-12)
        # weight='alg' integrates g(v) v^(-1/2) with the singularity in the rule
        g = lambda v: math.exp(f + rate_shift * v) * (math.exp(0.3) + coef2 * v) * math.exp(-1.3 * v)
        oracle, _ = quad(g, 0.0, 2.0, weight="alg", wvar=(-0.5, 0.0), epsabs=1e-13, epsrel=1e-12)
        assert scaled.mass_below(2.0) == pytest.approx(oracle, rel=1e-9)
