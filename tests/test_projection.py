import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from thinshell import cli, gibbs1d, hamiltonians as ham, projection, sumdensity

# frozen oracles for the two-exponential surface (n=2, k=1, t=1):
# the projected coordinate is uniform on [0, 2], the divergence integrates
# to 1 - log 2 and the L1 distance to 1 - log 2 + 2 e^{-2}
KL_ORACLE = 1.0 - math.log(2.0)
TV_ORACLE = 1.0 - math.log(2.0) + 2.0 * math.exp(-2.0)


@pytest.fixture(scope="module")
def small_ctx(lin_model):
    return projection.make_context(lin_model, 2, 1)


class TestContext:
    def test_rejects_bad_k(self, lin_model):
        with pytest.raises(ValueError):
            projection.make_context(lin_model, 2, 2)
        with pytest.raises(ValueError):
            projection.make_context(lin_model, 2, 0)

    @pytest.mark.parametrize(
        "n,k,name",
        [(50.5, 1.5, "n"), (50.0, 1, "n"), (np.float64(50), 1, "n"), (0, 1, "n"),
         (50, 1.0, "k"), (50, np.float64(1), "k"), (50, 0, "k"), (50, -1, "k"), (50, True, "k")],
        ids=repr,
    )
    def test_rejects_non_integer_counts(self, lin_model, n, k, name):
        with pytest.raises(ValueError, match=rf"^{name} must be an integer >= 1; got "):
            projection.make_context(lin_model, n, k)

    def test_accepts_numpy_integers(self, lin_model):
        ctx = projection.make_context(lin_model, np.int64(50), np.int32(3))
        want = projection.kl_to_gibbs(projection.make_context(lin_model, 50, 3))
        assert projection.kl_to_gibbs(ctx) == pytest.approx(want, rel=1e-15)

    def test_low_order_builds(self, lin_model):
        """n - k below the integrability order still builds a context, and
        its divergences (the exact small cases run there)."""
        ctx = projection.make_context(lin_model, 2, 1)
        assert gibbs1d.clt_prerequisites(lin_model).r_used > ctx.n - ctx.k
        assert 0.0 < projection.tv_to_gibbs(ctx) < 2.0

    def test_energy_matched(self, small_ctx):
        assert small_ctx.t == pytest.approx(1.0, rel=1e-10)

    @staticmethod
    def _count_builds(monkeypatch):
        """Record the n of every w_exact / w_fft grid built from here on."""
        built = {"w_exact": [], "w_fft": []}
        for name in built:
            original = getattr(sumdensity, name)

            def counted(model, n, params=None, _original=original, _log=built[name]):
                _log.append(n)
                return _original(model, n, params)

            monkeypatch.setattr(sumdensity, name, counted)
        return built

    def test_closed_form_builds_only_wk(self, quad_model, monkeypatch):
        """Closed-form contexts evaluate w_n and w_{n-k} exactly, so the only
        grid built is w_k; kl/tv are frozen values from a build that still
        made all three grids."""
        model = dataclasses.replace(quad_model, _cache={})
        for (n, k), (kl, tv) in {
            (100, 3): (0.00038792858788929687, 0.017895031857477997),
            (50, 1): (0.00031234547723868163, 0.014330078602606388),
        }.items():
            built = self._count_builds(monkeypatch)
            ctx = projection.make_context(model, n, k)
            assert projection.kl_to_gibbs(ctx) == pytest.approx(kl, rel=1e-12)
            assert projection.tv_to_gibbs(ctx) == pytest.approx(tv, rel=1e-12)
            assert built == {"w_exact": [k], "w_fft": []}
            monkeypatch.undo()

    def test_fft_context_reads_memoised_grids(self, quartic_model, monkeypatch):
        """A fresh model builds w_k, w_n and w_{n-k} once each; a second
        context for the same cell reuses the memoised w_k and w_n and builds
        its own w_{n-k}, which the memo never holds.  Once the memo holds
        w_{n-k}, a context reads it from there."""
        model = dataclasses.replace(quartic_model, _cache={})
        built = self._count_builds(monkeypatch)
        first = projection.make_context(model, 20, 3)
        kl, tv = projection.kl_to_gibbs(first), projection.tv_to_gibbs(first)
        assert built["w_exact"] == [] and sorted(built["w_fft"]) == [3, 17, 20]
        second = projection.make_context(model, 20, 3)
        assert projection.kl_to_gibbs(second) == kl and projection.tv_to_gibbs(second) == tv
        assert sorted(built["w_fft"]) == [3, 17, 17, 20]
        assert ("w", 17, gibbs1d.GridParams()) not in model._cache
        assert second.wk is sumdensity.w_density(model, 3)
        assert second.log_wn_at_nt == float(sumdensity.w_density(model, 20).log_at(20 * model.mu)[0])
        ss = np.linspace(0.0, 40.0, 9)
        wnk = sumdensity.w_density(model, 17)
        np.testing.assert_array_equal(second.log_wnk(ss), wnk.log_at(ss))
        assert projection.make_context(model, 20, 3).wnk is wnk

    @pytest.mark.parametrize("name,n,k", [("lin_model", 2, 1), ("lin_model", 50, 3), ("quad_model", 4, 2),
                                          ("quartic_model", 20, 3)])
    def test_cell_never_runs_the_scan(self, request, name, n, k):
        """A context and its divergences never run the integrability scan;
        its fields are the cell's own."""
        model = dataclasses.replace(request.getfixturevalue(name), _cache={})
        ctx = projection.make_context(model, n, k)
        projection.kl_to_gibbs(ctx), projection.tv_to_gibbs(ctx), projection.converse_lower_bound(ctx, 1.0)
        assert "prereqs" not in model._cache
        assert [f.name for f in dataclasses.fields(ctx)] == ["model", "n", "k", "t", "wk", "wnk", "log_wn_at_nt",
                                                             "_cache"]

    def test_node_log_ratio_memoised_on_the_context(self, quad_model):
        ctx = projection.make_context(quad_model, 50, 3)
        assert "node_log_ratio" not in ctx._cache
        first = ctx.node_log_ratio
        assert ctx.node_log_ratio is first and "node_log_ratio" in ctx._cache


class TestSetUpLeftOut:
    """A CLI run builds only what it reads: the 2^18-node y-grid and the
    integrability scan stay out of the model's memo where no output needs
    them."""

    @staticmethod
    def _models(monkeypatch, tmp_path, args):
        models = []
        solve = cli.solve_energy
        monkeypatch.setattr(cli, "solve_energy", lambda spec, t: models.append(solve(spec, t)) or models[-1])
        assert cli.main(args + ["--out", str(tmp_path / "out.csv")]) == 0
        return models

    @pytest.mark.parametrize("args", [
        ["bounds", "--kind", "quadratic", "--n-list", "20,40", "--k-list", "1,3", "--alpha-list", "0,0.2",
         "--clt-n-list", "8,16"],
        ["bounds", "--kind", "power", "--p", "3", "--n-list", "20", "--k-list", "1", "--clt-n-list", "8"],
        ["converse", "--kind", "linear_half", "--n-list", "20,40"],
        ["mixture", "--kind", "quadratic", "--n", "20", "--k-list", "2"],
    ], ids=lambda args: " ".join(args[:3]))
    def test_homogeneous_runs_skip_ygrid_and_scan(self, monkeypatch, tmp_path, args):
        models = self._models(monkeypatch, tmp_path, args)
        assert models
        for model in models:
            assert not {"ygrid", "prereqs"} & set(model._cache)

    def test_quartic_bounds_skips_ygrid_and_scan(self, monkeypatch, tmp_path):
        """The remainder of a non-homogeneous f is sampled on each sum grid,
        so its bounds run, CLT scan included, needs no y-grid either."""
        (model,) = self._models(monkeypatch, tmp_path, ["bounds", "--kind", "quartic_perturbed", "--epsilon", "1",
                                                        "--n-list", "20", "--k-list", "1", "--clt-n-list", "8"])
        assert not {"ygrid", "prereqs"} & set(model._cache)

    def test_quartic_clt_scan_builds_ygrid_and_scan(self, monkeypatch, tmp_path):
        """clt-scan prints the integrability order, nu and I, which read
        the y-grid's remainder."""
        (model,) = self._models(monkeypatch, tmp_path, ["clt-scan", "--kind", "quartic_perturbed", "--epsilon", "1",
                                                        "--clt-n-list", "8,16"])
        assert {"ygrid", "prereqs"} <= set(model._cache)

    @pytest.mark.parametrize("spec", [ham.quadratic(), ham.quartic_perturbed(1.0), ham.custom(lambda x: x + x**3 / 3.0)],
                             ids=["quadratic", "quartic", "custom"])
    def test_library_sequence_skips_ygrid_and_scan(self, spec):
        """The README's library route, ``local_clt_scan`` for ``c_hat``,
        then ``make_context`` and ``bound_report``, reads no prerequisite of
        the scan report, so it builds neither the y-grid nor the scan."""
        model = gibbs1d.solve_energy(spec, 1.0)
        scan = sumdensity.local_clt_scan(model, (8, 16))
        report = projection.bound_report(projection.make_context(model, 20, 1), scan.c_hat)
        assert math.isfinite(report.kl_bound)
        assert not {"ygrid", "prereqs"} & set(model._cache)


class TestClosedFormsByDegree:
    """Closed forms are keyed on (homogeneous degree, support), not on the
    constructor: the same model under another name takes the Gamma route
    and gets the same numbers and the same distance bound."""

    @pytest.mark.parametrize(
        "reference,spec",
        [
            ("quad_model", ham.power(2.0, ham.SYMMETRIC)),
            ("quad_model", ham.quartic_perturbed(0.0)),
            ("lin_model", ham.power(1.0, ham.HALF_LINE)),
        ],
        ids=["power2_symmetric", "quartic_eps0", "power1_half_line"],
    )
    def test_same_model_same_numbers(self, request, reference, spec):
        ref_model = request.getfixturevalue(reference)
        model = gibbs1d.model_at(spec, ref_model.c)
        assert spec.closed_form
        assert model.z == pytest.approx(ref_model.z, rel=1e-15)
        assert sumdensity.w_density(model, 3).meta["kind"] == "w_exact"
        for n, k in ((50, 1), (100, 3), (200, 5)):
            want = projection.bound_report(projection.make_context(ref_model, n, k), 2.0)
            got = projection.bound_report(projection.make_context(model, n, k), 2.0)
            assert got.kl == pytest.approx(want.kl, rel=1e-12)
            assert got.tv == pytest.approx(want.tv, rel=1e-12)
            assert got.df_bound is not None
            assert got.df_bound == pytest.approx(want.df_bound, rel=1e-12)

    def test_unlisted_families_take_the_fft_route(self):
        for spec in (ham.power(3.0), ham.quartic_perturbed(1.0), ham.custom(lambda x: x + x**3)):
            assert not spec.closed_form
        model = gibbs1d.model_at(ham.power(3.0), 1.0 / 3.0)
        with pytest.raises(ValueError, match="no closed-form"):
            sumdensity.gamma_shape(model, 4)
        report = projection.bound_report(projection.make_context(model, 50, 1), 2.0)
        assert report.df_bound is None


class TestExactSmallCase:
    def test_projected_density_uniform(self, small_ctx):
        grid = projection.project_uniform_k1(small_ctx)
        ys = grid.points()
        inside = (ys > 1e-9) & (ys < 2.0 - 1e-9)
        assert float(np.max(np.abs(grid.values[inside] - 0.5))) < 1e-6

    def test_conditional_density_uniform(self, small_ctx):
        rk = projection.rk_conditional_density(small_ctx)
        ss = np.linspace(0.05, 1.95, 101)
        np.testing.assert_allclose(rk.at(ss), 0.5, atol=1e-4)
        assert rk.meta["norm_defect"] < 1e-4

    def test_divergence(self, small_ctx):
        assert projection.kl_to_gibbs(small_ctx) == pytest.approx(KL_ORACLE, abs=1e-4)

    def test_total_variation(self, small_ctx):
        got = projection.tv_to_gibbs(small_ctx)
        oracle, _ = quad(lambda y: abs(0.5 * (y <= 2.0) - math.exp(-y)), 0, 40, points=[math.log(2.0), 2.0])
        assert oracle == pytest.approx(TV_ORACLE, abs=1e-9)
        assert got == pytest.approx(TV_ORACLE, abs=1e-4)


class TestGaussianLimit:
    def test_large_n_projection_close_to_normal(self, quad_model):
        """At n = 1000 the projected first coordinate is near standard
        normal: sup deviation of the densities below 0.01."""
        ctx = projection.make_context(quad_model, 1000, 1)
        grid = projection.project_uniform_k1(ctx)
        ys = grid.points()
        normal = np.exp(-0.5 * ys**2) / math.sqrt(2 * math.pi)
        assert float(np.max(np.abs(grid.values - normal))) < 0.01


class TestConditionalDensity:
    def test_mean_is_energy_share(self, quad_model):
        """Exchangeability forces E R_k = (k/n) * nt under the surface law."""
        ctx = projection.make_context(quad_model, 40, 8)
        rk = projection.rk_conditional_density(ctx)
        assert rk.mean() == pytest.approx(8.0 * quad_model.mu, rel=1e-6)

    def test_defect_recorded(self, quad_model):
        ctx = projection.make_context(quad_model, 30, 3)
        assert projection.rk_conditional_density(ctx).meta["norm_defect"] < 1e-4


class TestRkDefectGuard:
    """Every divergence of a cell reads its normalizer from the ``r_k``
    grid, so a cell whose ``r_k`` misses unit mass by 1e-4 or more is
    refused by each of them, untilted distances included.  For the
    quadratic at n - k = 1, ``r_k`` inherits the singular edge of
    ``w_1(nt - s)`` at s = nt, where the grid keeps no edge model."""

    @pytest.mark.parametrize("n,k,defect", [(2, 1, "6.08e-03"), (3, 2, "2.59e-03")])
    @pytest.mark.parametrize("divergence", [
        projection.kl_to_gibbs,
        projection.tv_to_gibbs,
        lambda ctx: projection.converse_lower_bound(ctx, 1.0),
    ], ids=["kl", "tv", "converse"])
    def test_small_quadratic_cells_refused(self, quad_model, n, k, defect, divergence):
        ctx = projection.make_context(quad_model, n, k)
        with pytest.raises(RuntimeError, match=f"^r_k normalization defect {defect} >= 1e-4; grid inadequate$"):
            divergence(ctx)

    def test_passing_cell_reads_the_memoised_grid(self, quad_model):
        """At (4, 2) the defect is 1.6e-5: tv and the converse bound pass and
        read the one ``r_k`` entry kl uses."""
        ctx = projection.make_context(quad_model, 4, 2)
        projection.tv_to_gibbs(ctx)
        entry = ctx._cache[("rk", 0.0)]
        projection.converse_lower_bound(ctx, 1.0)
        projection.kl_to_gibbs(ctx)
        assert ctx._cache[("rk", 0.0)] is entry
        assert 1e-6 < projection.rk_conditional_density(ctx).meta["norm_defect"] < 1e-4


def _pointwise_log_ratio(ctx, ss, alpha=0.0, log_norm=0.0):
    """The log likelihood ratio evaluated afresh at ss, as every integrand
    did before the shared node pass."""
    ss = np.asarray(ss, dtype=float)
    lr = sumdensity.log_w(ctx.model, ctx.n - ctx.k, ctx.n * ctx.t - ss) - ctx.log_wn_at_nt
    finite = np.isfinite(lr)
    return alpha * ss + np.where(finite, lr, 0.0) - log_norm, finite


def _pointwise_ratio(ctx, ss, alpha=0.0, log_norm=0.0):
    lr, finite = _pointwise_log_ratio(ctx, ss, alpha, log_norm)
    with np.errstate(over="ignore"):
        return np.where(finite, np.exp(lr), 0.0)


class TestSharedLogRatioPass:
    """``r_k``, kl, tv and the converse bound read one pass of the log ratio
    on the w_k nodes; each equals, bit for bit, the integral of the
    pointwise integrand."""

    CELLS = [("quad_model", 50, 1), ("quad_model", 100, 3), ("lin_model", 50, 3), ("quartic_model", 20, 1)]

    @pytest.mark.parametrize("name,n,k", CELLS, ids=str)
    def test_equals_pointwise_integrands(self, request, name, n, k):
        ctx = projection.make_context(request.getfixturevalue(name), n, k)
        assert (ctx.wk.edge is not None) == (k == 1)
        wk, nt = ctx.wk, ctx.n * ctx.t
        lr = ctx.log_wnk(nt - wk.points()) - ctx.log_wn_at_nt
        with np.errstate(over="ignore", invalid="ignore"):
            values = np.where(np.isfinite(lr), wk.values * np.exp(lr), 0.0)
        edge = None
        if wk.edge is not None:
            edge = wk.edge.scaled(float(ctx.log_wnk(np.asarray([nt]))[0]) - ctx.log_wn_at_nt)
            values[0] = 0.0
        rk = projection.make_grid(wk.x0, wk.dx, values, edge=edge).normalized()
        np.testing.assert_array_equal(projection.rk_conditional_density(ctx).values, rk.values)

        for alpha in (0.0, 0.2, -0.2):
            tilted, log_norm, _ = projection._tilted_rk(ctx, alpha)
            kl = tilted.integrate(lambda ss: _pointwise_log_ratio(ctx, ss, alpha, log_norm)[0])
            tv = wk.integrate(lambda ss: np.abs(_pointwise_ratio(ctx, ss, alpha, log_norm) - 1.0))
            assert projection.kl_to_gibbs(ctx, alpha) == max(kl, 0.0)
            assert projection.tv_to_gibbs(ctx, alpha) == min(max(tv, 0.0), 2.0)

        half = math.sqrt(ctx.n - ctx.k)
        lo, hi = ctx.k * ctx.t - half, ctx.k * ctx.t + half

        def gain(ss):
            ss = np.asarray(ss, dtype=float)
            return np.where((ss >= lo) & (ss <= hi), np.clip(_pointwise_ratio(ctx, ss) - 1.0, 0.0, None), 0.0)

        assert projection.converse_lower_bound(ctx, 1.0).lower_bound == 2.0 * wk.integrate(gain)

    @pytest.mark.parametrize("k", [1, 3])
    def test_one_full_grid_log_w_pass_per_cell(self, quad_model, monkeypatch, k):
        """A closed-form cell evaluates log w_{n-k} on the whole w_k grid once,
        however many tilts and divergences it reports; only the edge model's
        quadrature points come on top."""
        ctx = projection.make_context(quad_model, 100, k)
        sizes = []
        original = sumdensity.log_w_exact

        def counted(model, n, s):
            sizes.append(np.size(s))
            return original(model, n, s)

        monkeypatch.setattr(sumdensity, "log_w_exact", counted)
        for alpha in (0.0, 0.2, -0.2):
            projection.bound_report(ctx, 2.0, alpha)
        projection.converse_lower_bound(ctx, 1.0)
        projection.rk_conditional_density(ctx)
        assert sizes.count(len(ctx.wk)) == 1
        assert all(size < 4096 for size in sizes if size != len(ctx.wk))
        assert (len(sizes) > 1) == (ctx.wk.edge is not None)


class TestDimensionFreeBounds:
    @pytest.mark.parametrize("n", [50, 100, 200])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_quadratic_family(self, quad_model, n, k):
        ctx = projection.make_context(quad_model, n, k)
        tv = projection.tv_to_gibbs(ctx)
        assert tv <= 2.0 * (k + 3) / (n - k - 3) + 1e-6

    @pytest.mark.parametrize("n", [50, 100, 200])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_exponential_family(self, lin_model, n, k):
        ctx = projection.make_context(lin_model, n, k)
        tv = projection.tv_to_gibbs(ctx)
        assert tv <= 2.0 * (k + 1) / (n - k - 1) + 1e-6


class TestIndependentOracle:
    @pytest.mark.parametrize("n,k", [(10, 2), (50, 1), (100, 5), (40, 20)])
    def test_divergence_against_direct_quadrature(self, quad_model, n, k):
        """Same one-dimensional integral evaluated with no grid machinery at
        all: adaptive quadrature of exact Gamma log-densities."""
        from scipy.stats import gamma as gamma_dist

        c, t = quad_model.c, quad_model.mu
        nt = n * t
        log_wn_nt = gamma_dist.logpdf(nt, 0.5 * n, scale=1.0 / c)

        def integrand(s):
            lr = gamma_dist.logpdf(nt - s, 0.5 * (n - k), scale=1.0 / c) - log_wn_nt
            return math.exp(gamma_dist.logpdf(s, 0.5 * k, scale=1.0 / c) + lr) * lr

        oracle, _ = quad(integrand, 0, nt, limit=400, epsabs=1e-13, epsrel=1e-12, points=[k * t])
        got = projection.kl_to_gibbs(projection.make_context(quad_model, n, k))
        assert got == pytest.approx(oracle, abs=1e-8)

    def test_distance_scale_invariant_in_energy(self):
        """Homogeneous energies: the target level only rescales coordinates,
        so the projected distance is independent of t."""
        values = []
        for t in (0.25, 1.0, 4.0):
            model = gibbs1d.solve_energy(ham.quadratic(), t)
            values.append(projection.tv_to_gibbs(projection.make_context(model, 50, 3)))
        np.testing.assert_allclose(values, values[0], rtol=1e-8)


class TestKlBound:
    @pytest.mark.parametrize("n,k", [(50, 1), (100, 5), (200, 3)])
    def test_uniform_projection(self, quad_model, quad_scan, n, k):
        ctx = projection.make_context(quad_model, n, k)
        kl = projection.kl_to_gibbs(ctx)
        bound = math.log(n / (n - k)) + 2.0 / (math.sqrt(n) / quad_scan.c_hat - 1.0)
        assert 0.0 <= kl <= bound

    def test_monotone_trend(self, quad_model, lin_model):
        for model in (quad_model, lin_model):
            kl_small = projection.kl_to_gibbs(projection.make_context(model, 100, 1))
            kl_large = projection.kl_to_gibbs(projection.make_context(model, 1000, 1))
            assert kl_large < kl_small


class TestTilted:
    def test_identity_tilt(self, quad_model):
        ctx = projection.make_context(quad_model, 100, 1)
        tilted, log_norm, d_surface = projection._tilted_rk(ctx, 0.0)
        assert tilted is projection.rk_conditional_density(ctx)
        assert log_norm == 0.0 and d_surface == 0.0
        assert projection.bound_report(ctx, 2.0).d_surface == 0.0

    def test_small_case_tilt_oracle(self, small_ctx):
        """Exponential tilt of the uniform [0,2] density, all in closed form:
        normalizer (e - 1)/... for alpha = 1/2: E[e^{s/2}]/1 over U[0,2]."""
        d_surface = projection.bound_report(small_ctx, 1.0, alpha=0.5).d_surface
        norm_oracle = math.e - 1.0  # (1/2) int_0^2 e^{s/2} ds
        mean_oracle = (0.5 * 2.0 * math.exp(1.0) - math.e + 1.0) / norm_oracle  # E_tilted[s/2]
        d_oracle = mean_oracle - math.log(norm_oracle)
        assert d_surface == pytest.approx(d_oracle, abs=1e-4)
        # k = 1 of the linear family: the partial energy is the coordinate
        tilted = projection._tilted_rk(small_ctx, 0.5)[0]
        ys = np.linspace(0.05, 1.95, 64)
        np.testing.assert_allclose(tilted.at(ys), 0.5 * np.exp(0.5 * ys) / norm_oracle, rtol=1e-3)

    # (kl, tv, d_surface, kl_bound) at C = 2 from the build that computed
    # tilted rows through their own integrands
    FROZEN = {
        ("quad_model", 100, 0.2): (0.0686814817292509, 0.2452083829485729, 0.07105273745462326, 0.5811030733081248),
        ("quad_model", 100, -0.2): (0.024532502361769536, 0.15724805124737457, 0.025112276148391593, 0.5351626120018931),
        ("lin_model", 100, 0.2): (0.025474666556049352, 0.1657001146723188, 0.025948129832481986, 0.5359984656859835),
        ("lin_model", 100, -0.2): (0.015221151306599278, 0.12963015507836154, 0.015469244800874665, 0.5255195806543762),
        ("quartic_model", 20, 0.2): (0.08154344354846597, 0.29369141296743506, 0.08147761563272576, 1.750804898770171),
        ("quartic_model", 20, -0.2): (0.02461670243251684, 0.13809691160283205, 0.028154502968643774, 1.697481786106089),
    }

    @pytest.mark.parametrize("key", list(FROZEN), ids=lambda key: f"{key[0]}-n{key[1]}-alpha{key[2]:+g}")
    def test_tilted_row_frozen(self, request, monkeypatch, key):
        """Tilted rows go through the same integrand as untilted ones, build
        their tilted r_k once, and keep their values."""
        name, n, alpha = key
        ctx = projection.make_context(request.getfixturevalue(name), n, 1)
        tilts = []
        original = projection.make_grid

        def counted(*args, **kwargs):
            if (kwargs.get("meta") or {}).get("kind") == "rk_tilted":
                tilts.append(kwargs["meta"]["alpha"])
            return original(*args, **kwargs)

        monkeypatch.setattr(projection, "make_grid", counted)
        report = projection.bound_report(ctx, 2.0, alpha=alpha)
        assert tilts == [alpha]
        got = (report.kl, report.tv, report.d_surface, report.kl_bound)
        assert got == pytest.approx(self.FROZEN[key], rel=1e-12)
        assert report.df_bound is None
        assert projection.kl_to_gibbs(ctx, alpha) == report.kl
        assert projection.tv_to_gibbs(ctx, alpha) == report.tv

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_non_finite_tilt_rejected(self, quad_model, alpha):
        ctx = projection.make_context(quad_model, 100, 1)
        with pytest.raises(ValueError, match="alpha must be finite"):
            projection.bound_report(ctx, 2.0, alpha=alpha)

    @pytest.mark.parametrize("alpha", [0.2, -0.2])
    def test_full_inequality(self, quad_model, quad_scan, alpha):
        ctx = projection.make_context(quad_model, 100, 1)
        report = projection.bound_report(ctx, quad_scan.c_hat, alpha=alpha)
        assert report.pass_kl
        assert report.d_surface > 0.0

    def test_strong_tilt_against_quadrature_oracle(self, quad_model):
        """A tilt above the inverse temperature flips the edge model's rate
        sign; the surface divergence must still match direct quadrature."""
        from scipy.stats import gamma as gamma_dist

        ctx = projection.make_context(quad_model, 50, 1)
        d_surface = projection.bound_report(ctx, 2.0, alpha=0.6).d_surface
        c, nt = quad_model.c, 50.0
        log_wn = gamma_dist.logpdf(nt, 25, scale=1 / c)

        def r1(s):
            return math.exp(
                gamma_dist.logpdf(s, 0.5, scale=1 / c) + gamma_dist.logpdf(nt - s, 24.5, scale=1 / c) - log_wn
            )

        norm, _ = quad(lambda s: r1(s) * math.exp(0.6 * s), 0, nt, limit=300)
        m1, _ = quad(lambda s: s * r1(s) * math.exp(0.6 * s), 0, nt, limit=300)
        oracle = 0.6 * m1 / norm - math.log(norm)
        assert d_surface == pytest.approx(oracle, abs=1e-7)

    def test_overflowing_tilt_rejected(self, quad_model):
        ctx = projection.make_context(quad_model, 100, 1)
        with pytest.raises(OverflowError):
            projection.bound_report(ctx, 2.0, alpha=50.0)


class TestCellProperties:
    """Random cells of the closed-form families (``thinshell`` profile;
    25 examples, about 1.6 s)."""

    @settings(max_examples=25)
    @given(
        family=st.sampled_from(["quadratic", "linear_half"]),
        t=st.floats(0.5, 2.0),
        n=st.integers(20, 400),
        data=st.data(),
    )
    def test_divergences_and_ratio_lemma(self, quad_scan, lin_scan, ratio_lemma, family, t, n, data):
        k = data.draw(st.integers(1, min(10, n - 5)), label="k")
        spec, scan = (ham.quadratic(), quad_scan) if family == "quadratic" else (ham.linear_half(), lin_scan)
        ctx = projection.make_context(gibbs1d.solve_energy(spec, t), n, k)
        report = projection.bound_report(ctx, scan.c_hat)
        assert report.kl >= 0.0
        assert 0.0 <= report.tv <= 2.0
        assert report.tv <= math.sqrt(2.0 * report.kl) + 1e-8
        assert projection.rk_conditional_density(ctx).meta["norm_defect"] < 1e-4
        # homogeneous families: t only rescales s, so the scanned C holds
        lhs, rhs = ratio_lemma(ctx, scan.c_hat)
        assert lhs <= rhs


class TestBoundReport:
    def test_first_term_arithmetic(self, quad_model, quad_scan):
        ctx = projection.make_context(quad_model, 100, 10)
        report = projection.bound_report(ctx, quad_scan.c_hat)
        first = math.log(100.0 / 90.0)
        assert first == pytest.approx(0.10536, abs=1e-5)
        assert report.kl_bound == pytest.approx(first + 2.0 / (10.0 / quad_scan.c_hat - 1.0), rel=1e-12)

    def test_df_bound_exponential(self, lin_model, lin_scan):
        ctx = projection.make_context(lin_model, 100, 1)
        report = projection.bound_report(ctx, lin_scan.c_hat)
        assert report.df_bound == pytest.approx(4.0 / 98.0, rel=1e-12)
        assert report.df_bound == pytest.approx(0.040816, abs=1e-6)

    def test_pinsker_relation(self, quad_model, quad_scan):
        for n, k in ((50, 1), (100, 3), (200, 5)):
            ctx = projection.make_context(quad_model, n, k)
            report = projection.bound_report(ctx, quad_scan.c_hat)
            assert report.tv <= report.tv_from_kl + 1e-8

    def test_inapplicable_constant_rejected(self, quad_model):
        ctx = projection.make_context(quad_model, 100, 1)
        with pytest.raises(ValueError):
            projection.bound_report(ctx, C=20.0)

    @pytest.mark.parametrize("C", [math.nan, math.inf, 0.0, -1.0])
    def test_non_finite_or_non_positive_constant_rejected(self, quad_model, C):
        ctx = projection.make_context(quad_model, 100, 1)
        with pytest.raises(ValueError, match="finite and > 0"):
            projection.bound_report(ctx, C=C)


class TestConverse:
    def test_no_convergence_at_constant_ratio(self, quad_model):
        """k = n/2 keeps the distance bounded away from zero."""
        tvs = []
        for n in (20, 40, 80, 160):
            ctx = projection.make_context(quad_model, n, n // 2)
            tvs.append(projection.tv_to_gibbs(ctx))
        assert min(tvs) >= 0.01
        assert min(tvs) >= 0.1 * max(tvs)

    def test_lower_bound_below_distance(self, quad_model):
        ctx = projection.make_context(quad_model, 80, 40)
        rep = projection.converse_lower_bound(ctx, 1.0)
        tv = projection.tv_to_gibbs(ctx)
        assert 0.0 < rep.lower_bound <= tv + 1e-9

    def test_degenerate_interval(self, quad_model):
        ctx = projection.make_context(quad_model, 80, 40)
        rep = projection.converse_lower_bound(ctx, 1e-9)
        assert rep.lower_bound == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize("eps", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_bad_half_width(self, quad_model, eps):
        ctx = projection.make_context(quad_model, 20, 10)
        with pytest.raises(ValueError, match="eps"):
            projection.converse_lower_bound(ctx, eps)

    def test_vanishes_at_fixed_k(self, quad_model):
        small = projection.converse_lower_bound(projection.make_context(quad_model, 50, 2), 1.0)
        large = projection.converse_lower_bound(projection.make_context(quad_model, 800, 2), 1.0)
        assert large.lower_bound < small.lower_bound


class TestMixture:
    def test_single_atom_reduces_to_distance(self, quad_model):
        rep = projection.mixture_bound_check([(quad_model, 1.0, 1.0)], 100, 2)
        ctx = projection.make_context(quad_model, 100, 2)
        assert rep.tv_sum == pytest.approx(projection.tv_to_gibbs(ctx), rel=1e-12)

    def test_two_atoms(self, quad_model):
        m_half = gibbs1d.solve_energy(ham.quadratic(), 0.5)
        rep = projection.mixture_bound_check([(m_half, 0.5, 0.5), (quad_model, 1.0, 0.5)], 100, 2)
        assert rep.bound == pytest.approx(math.sqrt(4.0 / 98.0), rel=1e-12)
        assert rep.passed

    def test_distance_shrinks_with_n(self, quad_model):
        small = projection.mixture_bound_check([(quad_model, 1.0, 1.0)], 50, 2)
        large = projection.mixture_bound_check([(quad_model, 1.0, 1.0)], 800, 2)
        assert large.tv_sum < small.tv_sum

    def test_rejects_bad_weights(self, quad_model):
        with pytest.raises(ValueError):
            projection.mixture_bound_check([(quad_model, 1.0, 0.7)], 100, 2)

    @pytest.mark.parametrize("weights", [(math.nan, 0.5), (math.inf, 0.0), (math.inf, -math.inf), (math.nan, math.nan)])
    def test_rejects_non_finite_weights(self, quad_model, weights):
        entries = [(quad_model, 1.0, w) for w in weights]
        with pytest.raises(ValueError, match="weights"):
            projection.mixture_bound_check(entries, 100, 2)


class TestEntryChecks:
    def test_coordinate_density_needs_k1(self, quad_model):
        ctx = projection.make_context(quad_model, 20, 2)
        with pytest.raises(ValueError, match="built for k = 1"):
            projection.project_uniform_k1(ctx)

    def test_mixture_refuses_unmatched_model(self, quad_model):
        """The quadratic model at t = 1 listed as the mixture's t = 0.5 atom."""
        with pytest.raises(ValueError, match="not energy-matched to t=0.5"):
            projection.mixture_bound_check([(quad_model, 0.5, 1.0)], 100, 2)


class TestMaxEntropy:
    def test_gibbs_maximizes_entropy_at_fixed_energy(self, quad_model):
        """Five tilted, energy-re-matched densities: each has lower entropy
        and the gap equals the divergence."""
        from thinshell.grids import make_grid

        spec = quad_model.spec
        tilts = [
            (0.3, np.cos),
            (0.2, np.abs),
            (0.1, lambda x: x**4),
            (-0.2, lambda x: np.cos(2 * x)),
            (0.15, lambda x: np.sin(x) ** 2),
        ]
        h_g, _ = gibbs1d.entropy_energy(quad_model)
        xs = np.linspace(-12.0, 12.0, 2**17)
        fx = ham.f_values(spec, xs)
        log_g = -quad_model.c * fx - math.log(quad_model.z)
        for alpha, psi in tilts:
            lo, hi = 1e-3, 1e3
            for _ in range(200):
                mid = math.sqrt(lo * hi)
                logq = -mid * fx - alpha * psi(xs)
                q = np.exp(logq - logq.max())
                q /= np.trapezoid(q, xs)
                energy = float(np.trapezoid(q * fx, xs))
                lo, hi = (mid, hi) if energy > 1.0 else (lo, mid)
                if hi / lo < 1 + 1e-14:
                    break
            grid = make_grid(xs[0], xs[1] - xs[0], q)
            h_q, energy = gibbs1d.entropy_energy(quad_model, grid)
            assert energy == pytest.approx(1.0, abs=1e-9)
            with np.errstate(divide="ignore", invalid="ignore"):
                terms = np.where(q > 0, q * (np.log(np.where(q > 0, q, 1.0)) - log_g), 0.0)
            divergence = float(np.trapezoid(terms, xs))
            assert divergence >= 0.0
            assert divergence == pytest.approx(h_g - h_q, abs=1e-6)
            assert h_q <= h_g + 1e-12
