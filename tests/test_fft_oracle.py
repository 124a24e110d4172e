"""``w_fft`` at n = 2 and 3 against an oracle outside the code: mpmath
convolutions of the energy density ``g_Y`` (``make_fft_oracle.py``, whose
literals are in ``fft_oracle.py``)."""

import numpy as np
import pytest

from fft_oracle import C, W
from thinshell import gibbs1d, hamiltonians as ham, sumdensity

SPECS = {"quartic": lambda: ham.quartic_perturbed(1.0), "custom": lambda: ham.custom(lambda x: x + x**3 / 3.0)}
RTOL = 1e-7

# w_3 of the quartic keeps no edge model: its convolved lead exponent, 1/2,
# leaves node 0 at 0, and the trapezoid's missed cusp mass is spread over
# every value by the normalisation (ROADMAP item 6(ii))
QUARTIC_W3 = "quartic w_3 off by 3.42e-6 and 3.43e-6, its grid's norm_defect"


def _cases():
    for name, values in W.items():
        for n, s in values:
            marks = ()
            if (name, n) == ("quartic", 3):
                marks = pytest.mark.xfail(strict=True, raises=AssertionError, reason=QUARTIC_W3)
            yield pytest.param(name, n, s, marks=marks, id=f"{name}-w{n}-s{s:g}")


@pytest.fixture(scope="module")
def models():
    return {name: gibbs1d.solve_energy(spec(), 1.0) for name, spec in SPECS.items()}


@pytest.mark.parametrize("name", list(SPECS))
def test_literals_belong_to_the_model(models, name):
    """The literals were written at the model's c; a new c needs new ones."""
    assert models[name].c == pytest.approx(C[name], rel=1e-12)


@pytest.mark.parametrize("name,n,s", list(_cases()))
def test_w_fft_matches_convolution(models, name, n, s):
    got = sumdensity.w_fft(models[name], n).at(np.asarray([s]))[0]
    assert got == pytest.approx(float(W[name][(n, s)]), rel=RTOL, abs=0.0)
