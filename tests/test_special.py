"""The Cephes port in ``thinshell._special`` against the code it ports,
``scipy.special.gammaln``, for equality on every branch, and against mpmath
at 30 digits."""

import math

import mpmath
import numpy as np
import pytest
from scipy import special as sc

from thinshell import _special


def _log_uniform(rng, lo, hi, size):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), size))


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


class TestMpmathOracle:
    """Independent of the ported code: 30-digit values."""

    def test_gammaln(self):
        rng = np.random.default_rng(30)
        xs = np.concatenate((_log_uniform(rng, 1e-6, 0.5, 8), rng.uniform(0.5, 13.0, 8), _log_uniform(rng, 13.0, 1e9, 9)))
        with mpmath.workdps(30):
            for x in xs.tolist():
                exact = mpmath.loggamma(x)
                assert abs((_special.gammaln(x) - exact) / exact) <= 1e-14, x
