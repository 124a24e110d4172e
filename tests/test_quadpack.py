"""The QUADPACK port in ``thinshell._quadpack`` against the code it ports,
scipy's ``quad`` (``dqagse`` on a finite interval): value, error estimate,
return code and number of integrand calls are equal, on the closed
families' mean-energy integrals and on singular and oscillatory integrands
that take the extrapolation (``dqelg``) path."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from thinshell import gibbs1d, hamiltonians as ham
from thinshell._quadpack import dqagse

# quad's full_output message for each nonzero QUADPACK return code
_QUAD_MESSAGES = {
    1: "The maximum number of subdivisions",
    2: "The occurrence of roundoff error",
    3: "Extremely bad integrand behavior",
    4: "The algorithm does not converge",
    5: "The integral is probably divergent",
}


def _quad(f, a, b, epsabs, epsrel, limit):
    """quad's ``(value, abserr, ier, neval)``."""
    out = quad(f, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit, full_output=1)
    if len(out) == 3:
        return out[0], out[1], 0, out[2]["neval"]
    (ier,) = [code for code, msg in _QUAD_MESSAGES.items() if out[3].startswith(msg)]
    return out[0], out[1], ier, out[2]["neval"]


def _port(f, a, b, epsabs, epsrel, limit):
    """The port's ``(value, abserr, ier, neval)``, counting calls of f."""
    calls = []

    def counted(x):
        calls.append(x)
        return f(x)

    return (*dqagse(counted, a, b, epsabs, epsrel, limit), len(calls))


def _mean_energy_integrand(spec, c):
    """The integrand of ``gibbs1d._quadpack_first_moment``."""

    def integrand(x):
        fx = spec.fn(np.asarray([x]))[0]
        return fx * math.exp(-c * fx) if c * fx < 700 else 0.0

    return integrand


class TestClosedFamilies:
    @pytest.mark.parametrize("spec", [ham.quadratic(), ham.linear_half()], ids=lambda s: s.kind)
    def test_mean_energy_equals_quad(self, spec):
        """200 seeded t, log-uniform in [1e-12, 1e12], at the mean energy's
        tolerances; where the code is 0, the model's mean integral is that
        value too."""
        rng = np.random.default_rng(2100 + len(spec.kind))
        for t in np.exp(rng.uniform(math.log(1e-12), math.log(1e12), 200)).tolist():
            c = 1.0 / (spec.homogeneous_degree * t)
            x_max = gibbs1d._truncation(spec, c)
            f = _mean_energy_integrand(spec, c)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                want = _quad(f, 0.0, x_max, 1e-12, 1e-10, 200)
            assert _port(f, 0.0, x_max, 1e-12, 1e-10, 200) == want, t
            if want[2] == 0:
                got = gibbs1d._quadpack_first_moment(spec, c, x_max)
                assert type(got) is float and got == want[0], t


SINGULAR = {
    "x^-1/2 on [0, 1]": (lambda x: x**-0.5, 0.0, 1.0),
    "log x on [0, 1]": (math.log, 0.0, 1.0),
    "x^-0.9 on [0, 1]": (lambda x: x**-0.9, 0.0, 1.0),
    "e^-x x^-1/2 on [0, 40]": (lambda x: math.exp(-x) * x**-0.5, 0.0, 40.0),
    "log x / sqrt x on [0, 1]": (lambda x: math.log(x) / math.sqrt(x), 0.0, 1.0),
    "sqrt x log x on [0, 1]": (lambda x: math.sqrt(x) * math.log(x), 0.0, 1.0),
    "log |x - 1/3| on [0, 1]": (lambda x: math.log(abs(x - 1.0 / 3.0)), 0.0, 1.0),
    "sin(1/x) on [0, 1]": (lambda x: math.sin(1.0 / x), 0.0, 1.0),
    "cos(1000 x) x^-1/2 on [0, 1]": (lambda x: math.cos(1000.0 * x) * x**-0.5, 0.0, 1.0),
    "x^-1/2 on [1, 0]": (lambda x: x**-0.5, 1.0, 0.0),
    # the integral is 0, so the error floor 50 eps \int |f| decides
    "cos(100 x) on [0, pi]": (lambda x: math.cos(100.0 * x), 0.0, math.pi),
}


class TestExtrapolation:
    @pytest.mark.parametrize("epsrel", [1e-6, 1e-10, 1e-13])
    @pytest.mark.parametrize("case", SINGULAR, ids=list(SINGULAR))
    def test_singular_equals_quad(self, case, epsrel):
        f, a, b = SINGULAR[case]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            want = _quad(f, a, b, 0.0, epsrel, 200)
        assert _port(f, a, b, 0.0, epsrel, 200) == want


# (integrand, b, epsrel, limit) on [0, b] with epsabs 0, one per return code
CODES = {
    0: (lambda x: x**-0.5, 1.0, 1e-10, 50),
    1: (lambda x: 1.0 / x, 1.0, 1e-10, 10),
    2: (lambda x: math.cos(100.0 * x), 1.0, 1e-13, 50),
    3: (lambda x: 1.0 / abs(x - 1.0 / 3.0), 1.0, 1e-10, 1000),
    4: (lambda x: math.cos(1.0 / x) / x**2, 1.0, 1e-10, 200),
    5: (lambda x: math.sin(1e6 * x) + math.cos(3e5 * math.sqrt(x)), 1.0, 1e-10, 200),
}


class TestReturnCodes:
    @pytest.mark.parametrize("code", CODES)
    def test_code_equals_quad(self, code):
        f, b, epsrel, limit = CODES[code]
        want = _quad(f, 0.0, b, 0.0, epsrel, limit)
        assert want[2] == code
        assert _port(f, 0.0, b, 0.0, epsrel, limit) == want

    def test_invalid_tolerances(self):
        """epsabs <= 0 with epsrel below 50 eps is refused before any call."""
        assert _port(math.exp, 0.0, 1.0, 0.0, 1e-15, 50) == (0.0, 0.0, 6, 0)

    def test_refused_mean_names_t_without_warning(self, monkeypatch):
        """A nonzero return code of the mean integral (quad only warned
        there) reaches solve_energy as a ValueError that names t."""
        from thinshell import _quadpack

        def code_5(f, a, b, epsabs, epsrel, limit):
            value, abserr, _ = dqagse(f, a, b, epsabs, epsrel, limit)
            return value, abserr, 5

        monkeypatch.setattr(_quadpack, "dqagse", code_5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"t=1\.484390141675982e-07") as info:
                gibbs1d.solve_energy(ham.quadratic(), 1.484390141675982e-07)
        assert "ier=5" in str(info.value)
