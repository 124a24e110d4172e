"""Closed-form oracle for the Gamma families (Diaconis & Freedman 1987).

When each ``Y_i = f(X_i)`` is Gamma(1/d, rate c), the ratio ``R_k / R_n`` is
Beta(a, b) with ``a = k/d``, ``b = (n-k)/d``, independent of ``R_n``.  On the
surface ``R_n = nt`` the partial energy is therefore ``nt·B``, while its
Gibbs law ``w_k`` is Gamma(a, c).  The divergence, the L1 distance and the
converse bound of the projection then have closed forms, written out here
and not in ``src``, so the grid route in ``projection`` has an independent
oracle.
"""

import functools
import math

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import betainc, betaln, digamma, gammainc, gammaln

from thinshell import gibbs1d, hamiltonians as ham, projection

FAMILIES = {"quadratic": ham.quadratic, "linear_half": ham.linear_half}
CELLS = [(f, n, k) for f in FAMILIES for n in (50, 100, 200, 400, 800, 1600) for k in (1, 3, 5, 10)] + [
    (f, n, n // 2) for f in FAMILIES for n in (20, 40, 80, 160)
]
RTOL = 1e-6
EPS = 1.0  # converse interval half-width, the shipped default

# Grid-route relative errors measured where they exceed RTOL.  Fixing them
# moves cells of bench/reference past its own 1e-6 gate, so each stays a
# strict xfail until those references are recorded again.
KL_EDGE = "grid kl off by {err} at Gamma shape k/d = {shape:g}"
TV_KINK = "grid tv off by {err}: w_k's s^(1/2) kink at k/d = 3/2 is left to the trapezoid rule"
CUT_CELLS = "grid converse bound off by {err}: the interval's ends cut trapezoid cells"
MISSES = {
    "kl": {
        ("quadratic", 50, 1): "4.2e-6", ("quadratic", 100, 1): "9.9e-6", ("quadratic", 200, 1): "2.1e-5",
        ("quadratic", 400, 1): "4.4e-5", ("quadratic", 800, 1): "9.0e-5", ("quadratic", 1600, 1): "1.8e-4",
        ("quadratic", 50, 3): "4.3e-5", ("quadratic", 100, 3): "9.1e-5", ("quadratic", 200, 3): "1.9e-4",
        ("quadratic", 400, 3): "3.8e-4", ("quadratic", 800, 3): "7.6e-4", ("quadratic", 1600, 3): "1.5e-3",
        ("linear_half", 50, 1): "1.9e-6", ("linear_half", 100, 1): "3.9e-6", ("linear_half", 200, 1): "7.9e-6",
        ("linear_half", 400, 1): "1.6e-5", ("linear_half", 800, 1): "3.1e-5", ("linear_half", 1600, 1): "6.2e-5",
    },
    "tv": {
        ("quadratic", 100, 3): "1.04e-6", ("quadratic", 200, 3): "1.06e-6", ("quadratic", 400, 3): "1.07e-6",
        ("quadratic", 800, 3): "1.08e-6", ("quadratic", 1600, 3): "1.08e-6",
    },
    "lower_bound": {
        ("quadratic", 20, 10): "4.0e-5", ("quadratic", 40, 20): "4.1e-5", ("quadratic", 80, 40): "2.7e-5",
        ("quadratic", 160, 80): "1.1e-5", ("linear_half", 20, 10): "1.2e-6",
    },
}
REASONS = {"kl": KL_EDGE, "tv": TV_KINK, "lower_bound": CUT_CELLS}


@functools.lru_cache(maxsize=None)
def _model(family):
    return gibbs1d.solve_energy(FAMILIES[family](), 1.0)


@functools.lru_cache(maxsize=None)
def _grid_route(family, n, k):
    ctx = projection.make_context(_model(family), n, k)
    return {
        "kl": projection.kl_to_gibbs(ctx),
        "tv": projection.tv_to_gibbs(ctx),
        "lower_bound": projection.converse_lower_bound(ctx, EPS).lower_bound,
    }


def _shapes(model, n, k):
    d = model.spec.homogeneous_degree
    return k / d, (n - k) / d


def oracle(model, n, k, eps=EPS):
    """kl, tv (L1 convention) and the converse bound from the Beta/Gamma
    closed forms."""
    a, b = _shapes(model, n, k)
    c, nt = model.c, n * model.mu
    # log r(s) - log w_k(s), with r the density of nt·B
    const = gammaln(a) - betaln(a, b) - a * math.log(c * nt)

    def log_ratio(s):
        return const + (b - 1.0) * math.log1p(-s / nt) + c * s

    kl = const + (b - 1.0) * (digamma(b) - digamma(a + b)) + c * nt * a / (a + b)

    # the log-ratio is concave for b > 1, so {ratio > 1} is one interval
    # [s1, s2] around its maximiser, and it falls to -inf at s = nt
    assert b > 1.0
    mode = nt - (b - 1.0) / c
    s1 = 0.0 if log_ratio(0.0) >= 0.0 else brentq(log_ratio, 0.0, mode, xtol=1e-300, rtol=8.9e-16)
    s2 = brentq(log_ratio, mode, nt * (1.0 - 1e-15), xtol=1e-300, rtol=8.9e-16)

    def excess(lo, hi):
        """2 (P_Beta - P_Gamma) of [lo, hi], the L1 mass r gains over w_k there."""
        p_beta = betainc(a, b, hi / nt) - betainc(a, b, lo / nt)
        p_gamma = gammainc(a, c * hi) - gammainc(a, c * lo)
        return 2.0 * (p_beta - p_gamma)

    half = eps * math.sqrt(n - k)
    lo, hi = max(k * model.mu - half, s1), min(k * model.mu + half, s2)
    lower = excess(lo, hi) if lo < hi else 0.0
    return {"kl": kl, "tv": excess(s1, s2), "lower_bound": lower}


def _cases():
    for quantity in ("kl", "tv", "lower_bound"):
        for family, n, k in CELLS:
            marks = ()
            err = MISSES[quantity].get((family, n, k))
            if err is not None:
                shape = k / FAMILIES[family]().homogeneous_degree
                reason = REASONS[quantity].format(err=err, shape=shape)
                marks = pytest.mark.xfail(strict=True, reason=reason)
            yield pytest.param(quantity, family, n, k, marks=marks, id=f"{quantity}-{family}-n{n}-k{k}")


@pytest.mark.parametrize("quantity,family,n,k", list(_cases()))
def test_grid_route_matches_oracle(quantity, family, n, k):
    want = oracle(_model(family), n, k)[quantity]
    assert _grid_route(family, n, k)[quantity] == pytest.approx(want, rel=RTOL, abs=0.0)


@pytest.mark.parametrize("family,n,k", [("quadratic", 50, 3), ("linear_half", 20, 10)])
def test_oracle_matches_quadrature(family, n, k):
    """The closed forms against adaptive quadrature of the two densities."""
    model = _model(family)
    a, b = _shapes(model, n, k)
    nt = n * model.mu
    r = stats.beta(a, b, scale=nt)
    w = stats.gamma(a, scale=1.0 / model.c)
    got = oracle(model, n, k)
    kl = quad(lambda s: r.pdf(s) * (r.logpdf(s) - w.logpdf(s)), 0.0, nt, limit=200, epsabs=1e-13)[0]
    l1 = quad(lambda s: abs(r.pdf(s) - w.pdf(s)), 0.0, nt, limit=200, epsabs=1e-13)[0] + w.sf(nt)
    assert got["kl"] == pytest.approx(kl, rel=1e-8)
    assert got["tv"] == pytest.approx(l1, rel=1e-8)
    center, half = k * model.mu, EPS * math.sqrt(n - k)
    lo, hi = max(center - half, 0.0), min(center + half, nt)
    gain = quad(lambda s: max(r.pdf(s) - w.pdf(s), 0.0), lo, hi, limit=200, epsabs=1e-13)[0]
    assert got["lower_bound"] == pytest.approx(2.0 * gain, rel=1e-8)
    assert 0.0 < got["lower_bound"] <= got["tv"] <= 2.0 and np.isfinite(got["kl"]) and got["kl"] > 0.0
