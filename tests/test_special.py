"""The Cephes ports in ``thinshell._special`` against the code they port,
``scipy.special.gammaln`` and ``gammainc``, for equality on every branch,
and against mpmath at 30 digits."""

import math

import mpmath
import numpy as np
import pytest
from scipy import special as sc

from thinshell import _special


def _log_uniform(rng, lo, hi, size):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), size))


def _igam_route(a: float, x: float) -> tuple[str, str]:
    """The branch Cephes' ``igam`` takes for ``a <= 20``, and the form of
    ``igam_fac`` it uses (``igamc_series`` calls neither)."""
    if x > 1.0 and x > a:
        if x <= 1.1:
            return "igamc_series", "none"
        route = "continued_fraction"
    else:
        route = "series"
    return route, "log" if abs(a - x) > 0.4 * a else "lanczos"


class TestGammaln:
    @pytest.mark.parametrize(
        "lo, hi",
        [(1e-300, 1e-6), (1e-6, 13.0), (13.0, 1000.0), (1000.0, 1e8), (1e8, 1e300)],
        ids=["tiny", "recurrence", "stirling-poly", "stirling-short", "stirling-bare"],
    )
    def test_equals_scipy(self, lo, hi):
        """Every branch of ``lgam``: the recurrence onto [2, 3] below 13,
        Stirling's series with the 5-term correction below 1000, the 3-term
        one up to 1e8, and none above."""
        rng = np.random.default_rng(int(math.log10(hi)) + 400)
        xs = np.concatenate((_log_uniform(rng, lo, hi, 3000), [lo, hi]))
        got = np.array([_special.gammaln(x) for x in xs.tolist()])
        np.testing.assert_array_equal(got, sc.gammaln(xs))

    @pytest.mark.parametrize(
        "x", [5e-324, 0.5, 1.0, 2.0, 3.0, 12.999999999999998, 13.0, 1000.0, 1e8, 2.556348e305, 1e306, math.inf]
    )
    def test_branch_ends_equal_scipy(self, x):
        assert _special.gammaln(x) == sc.gammaln(x)

    @pytest.mark.parametrize("x", [0.0, -0.0, -1.0, -2.5, -math.inf, math.nan])
    def test_refuses_outside_domain(self, x):
        with pytest.raises(ValueError, match="x > 0"):
            _special.gammaln(x)


def _igam_samples(route: str, form: str, size: int = 3000) -> list[tuple[float, float]]:
    """Seeded ``(a, x)`` pairs that all take one route and ``igam_fac`` form."""
    rng = np.random.default_rng(sum(map(ord, route + form)))
    if (route, form) == ("series", "log"):
        a = _log_uniform(rng, 1e-4, 20.0, size)
        x = a * rng.uniform(1e-3, 0.59, size)
    elif (route, form) == ("series", "lanczos"):
        a = rng.uniform(0.05, 20.0, size)
        x = a * rng.uniform(0.61, 1.0, size)
    elif (route, form) == ("continued_fraction", "log"):
        a = _log_uniform(rng, 1e-4, 20.0, size)
        x = np.maximum(1.1, 1.4 * a) * _log_uniform(rng, 1.01, 500.0, size)
    elif (route, form) == ("continued_fraction", "lanczos"):
        a = rng.uniform(1.2, 20.0, size)
        x = a * rng.uniform(1.0, 1.39, size)
    else:
        x = rng.uniform(1.0, 1.1, size)
        a = x * rng.uniform(1e-6, 1.0, size)
    return list(zip(a.tolist(), x.tolist()))


class TestGammainc:
    @pytest.mark.parametrize(
        "route, form",
        [
            ("series", "log"),
            ("series", "lanczos"),
            ("continued_fraction", "log"),
            ("continued_fraction", "lanczos"),
            ("igamc_series", "none"),
        ],
    )
    def test_equals_scipy(self, route, form):
        """The power series and the continued fraction, each with the
        logarithmic and the Lanczos form of ``x^a e^-x / Gamma(a)``, and the
        cancellation-free series of ``1 - P`` for ``1 < x <= 1.1``, which
        needs Cephes' own ``expm1``."""
        pairs = _igam_samples(route, form)
        assert {_igam_route(a, x) for a, x in pairs} == {(route, form)}
        a, x = np.array(pairs).T
        got = np.array([_special.gammainc(p, q) for p, q in pairs])
        np.testing.assert_array_equal(got, sc.gammainc(a, x))

    @pytest.mark.parametrize(
        "a, x",
        [(20.0, 20.0), (20.0, 1e-300), (20.0, 800.0), (1e-300, 1.0), (1e-300, 2.0), (5e-324, 0.5), (0.5, 1.1),
         (0.5, 1.1000000000000003), (1.0, 1.0), (1.1, 1.1), (3.0, 0.0), (3.0, math.inf)],
    )
    def test_branch_ends_equal_scipy(self, a, x):
        """Ends of the routes, the underflow to 0 of ``x^a e^-x / Gamma(a)``,
        and the limits at x = 0 and infinity."""
        assert _special.gammainc(a, x) == sc.gammainc(a, x)

    @pytest.mark.parametrize(
        "a, x, match",
        [(0.0, 1.0, "0 < a"), (-1.0, 1.0, "0 < a"), (20.000000000000004, 1.0, "0 < a"), (math.inf, 1.0, "0 < a"),
         (math.nan, 1.0, "0 < a"), (1.0, -1e-300, "x >= 0"), (1.0, -math.inf, "x >= 0"), (1.0, math.nan, "x >= 0")],
    )
    def test_refuses_outside_domain(self, a, x, match):
        """Above a = 20 Cephes may take its Temme branch, which is not ported."""
        with pytest.raises(ValueError, match=match):
            _special.gammainc(a, x)


class TestMpmathOracle:
    """Independent of the ported code: 30-digit values.  The points keep
    ``P`` above 1e-12; deeper in the tail ``exp(log P)`` carries a relative
    error of about ``|log P|`` ulps, in scipy as here."""

    def test_gammaln(self):
        rng = np.random.default_rng(30)
        xs = np.concatenate((_log_uniform(rng, 1e-6, 0.5, 8), rng.uniform(0.5, 13.0, 8), _log_uniform(rng, 13.0, 1e9, 9)))
        with mpmath.workdps(30):
            for x in xs.tolist():
                exact = mpmath.loggamma(x)
                assert abs((_special.gammaln(x) - exact) / exact) <= 1e-14, x

    def test_gammainc(self):
        rng = np.random.default_rng(31)
        a = _log_uniform(rng, 1e-3, 20.0, 20)
        x = a * _log_uniform(rng, 0.2, 5.0, 20)
        band = rng.uniform(1.0, 1.1, 5)
        a, x = np.concatenate((a, band * rng.uniform(0.01, 1.0, 5))), np.concatenate((x, band))
        routes = {_igam_route(p, q)[0] for p, q in zip(a.tolist(), x.tolist())}
        assert routes == {"series", "continued_fraction", "igamc_series"}
        with mpmath.workdps(30):
            for p, q in zip(a.tolist(), x.tolist()):
                exact = mpmath.gammainc(p, 0, q, regularized=True)
                assert exact > 1e-12
                assert abs((_special.gammainc(p, q) - exact) / exact) <= 1e-14, (p, q)
