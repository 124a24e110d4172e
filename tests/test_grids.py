import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammainc, gammaln
from scipy.stats import gamma as gamma_dist

from thinshell import gibbs1d, grids, hamiltonians as ham
from thinshell.grids import DensityGrid, EdgeModel, make_grid


def _mass_below(edge: EdgeModel, v) -> np.ndarray:
    """``\\int_0^v model(u) du`` for a positive rate: incomplete gammas."""
    a = [b + 1.0 for b, _, _ in edge._terms]
    return sum(sign * np.exp(log_k + gammaln(s) - s * math.log(edge.rate)) * gammainc(s, edge.rate * np.asarray(v))
               for s, (_, log_k, sign) in zip(a, edge._terms))


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

    @pytest.mark.parametrize("gap", [None, 0.37, 1.0])
    def test_cdf_model_part_against_gammainc(self, gap):
        """On a grid sampled from the model itself the remainder vanishes,
        so ``cdf_values`` at the first 257 nodes is the model's mass below
        each node: incomplete gammas."""
        edge = EdgeModel(-0.5, 0.3, 1.3, beta2=None if gap is None else -0.5 + gap, coef2=-0.25)
        dx = 7.5e-4  # rate * dx < 1e-3
        values = np.zeros(2**12)
        values[1:] = edge.density(dx * np.arange(1, 2**12))
        grid = make_grid(0.0, dx, values, edge=edge)
        vs = grid.points()[:257]
        np.testing.assert_allclose(grid.cdf_values()[:257], _mass_below(edge, vs), rtol=1e-12, atol=0.0)

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

    @pytest.mark.parametrize("beta, beta2", [(math.inf, None), (-0.5, math.inf), (-0.5, -math.inf), (-0.5, math.nan)])
    def test_non_finite_exponents_refused(self, beta, beta2):
        with pytest.raises(ValueError, match="finite"):
            EdgeModel(beta, 0.0, 1.0, beta2=beta2, coef2=0.25)

    @pytest.mark.parametrize("beta", [-1.0, -3.0, math.nan])
    def test_infinite_mass_refused(self, beta):
        with pytest.raises(ValueError, match="exceed -1"):
            EdgeModel(beta, 0.0, 1.0)

    @pytest.mark.parametrize("beta", [18.99, 25.0])
    def test_large_exponent_mass(self, beta):
        """No cap on the exponent: the mass of ``v^b exp(-1.3 v)`` below v."""
        edge = EdgeModel(beta, 0.0, 1.3)
        for v in (1.0, 14.6, 30.0):
            want = math.gamma(beta + 1.0) * 1.3 ** -(beta + 1.0) * gammainc(beta + 1.0, 1.3 * v)
            assert edge.prefix_integral(v / 256, 256, grids._one) == pytest.approx(want, rel=1e-13)

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
        v, over 256 cells, agrees with quadrature, also when the shifted rate
        turns negative."""
        edge = EdgeModel(-0.5, 0.3, 1.3, beta2=0.5, coef2=coef2)
        f = 0.7
        scaled = edge.scaled(f, rate_shift)
        vs = np.array([1e-3, 0.1, 1.0, 5.0])
        np.testing.assert_allclose(scaled.density(vs), np.exp(f + rate_shift * vs) * edge.density(vs), rtol=1e-12)
        # weight='alg' integrates g(v) v^(-1/2) with the singularity in the rule
        g = lambda v: math.exp(f + rate_shift * v) * (math.exp(0.3) + coef2 * v) * math.exp(-1.3 * v)
        oracle, _ = quad(g, 0.0, 2.0, weight="alg", wvar=(-0.5, 0.0), epsabs=1e-13, epsrel=1e-12)
        assert scaled.prefix_integral(2.0 / 256, 256, grids._one) == pytest.approx(oracle, rel=1e-9)


GAPS = [None, 0.37, 1.0]


class TestEdgeIntegrals:
    """One per-cell rule takes every integral of an edge model: each term
    under its own substitution in the first cell, 8-point Gauss-Legendre in
    the others.  Its masses against independent oracles."""

    @pytest.mark.parametrize("coef2", [0.25, -0.25])
    @pytest.mark.parametrize("gap", GAPS)
    @pytest.mark.parametrize("beta", [-0.9, -0.5, -0.1, 0.3, 1.5, 5.0])
    def test_mass_against_gammainc(self, beta, gap, coef2):
        """At ``rate * dx`` up to 1e-3 (the package's edge grids have about
        2.5e-4), over one, seven and 256 cells."""
        edge = EdgeModel(beta, 0.3, 1.3, beta2=None if gap is None else beta + gap, coef2=coef2)
        for rate_dx in (1e-3, 2.5e-4):
            dx = rate_dx / edge.rate
            for cells in (7, 256):
                want = float(_mass_below(edge, cells * dx))
                assert edge.prefix_integral(dx, cells, grids._one) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("gap", GAPS)
    @pytest.mark.parametrize("rate", [0.0, -0.7, -2.0])
    @pytest.mark.parametrize("beta", [-0.9, -0.5, 0.3, 1.5])
    def test_mass_at_non_positive_rate_against_mpmath(self, beta, rate, gap):
        """A tilted model may grow: each term's mass below v is ``a v^s / s
        \\int_0^1 exp(-rate v u^{1/s}) du`` with ``s = b + 1``, taken by
        30-digit quadrature."""
        edge = EdgeModel(beta, 0.3, rate, beta2=None if gap is None else beta + gap, coef2=-0.25)
        for v in (1.0, 12.8):
            with mpmath.workdps(30):
                want = sum(
                    sign * mpmath.exp(log_k) * mpmath.mpf(v) ** (b + 1) / (b + 1)
                    * mpmath.quad(lambda u: mpmath.exp(-rate * v * u ** (1 / mpmath.mpf(b + 1))), [0, 1])
                    for b, log_k, sign in edge._terms
                )
            assert edge.prefix_integral(v / 256, 256, grids._one) == pytest.approx(float(want), rel=1e-11)

    @given(shape=st.floats(0.05, 6.0), rate=st.floats(0.2, 5.0))
    def test_gamma_grid_has_unit_mass(self, shape, rate):
        """A Gamma(shape, rate) density on an edge grid, with its exact
        density as the edge model, has unit mass to the trapezoid error of
        the bulk, and its cumulative mass ends at that mass."""
        m = 2**14
        dx = (shape + 40.0) / rate / (m - 1)
        values = np.zeros(m)
        values[1:] = gamma_dist.pdf(dx * np.arange(1, m), shape, scale=1.0 / rate)
        edge = EdgeModel(shape - 1.0, shape * math.log(rate) - math.lgamma(shape), rate)
        grid = make_grid(0.0, dx, values, edge=edge)
        assert grid.mass == pytest.approx(1.0, abs=1e-6)
        assert grid.cdf_values()[-1] == pytest.approx(grid.mass, rel=1e-12)
