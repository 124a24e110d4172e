"""Write ``fft_oracle.py``: small-n sum densities of two FFT families by
mpmath convolution, the literals ``test_fft_oracle.py`` reads.

For ``Y = f(X)`` under the coordinate density ``exp(-c f(x)) / Z`` the
energy density is ``g_Y(y) = m exp(-c y) / (Z f'(f^{-1}(y)))``, with ``m``
the number of preimages (2 on symmetric support).  ``Z`` is this script's
own integral at the model's ``c``, so a defect of the library's ``Z`` shows
in the comparison.  Then

    w_2(s) = int_0^s g_Y(y) g_Y(s - y) dy,
    w_3(s) = int_0^s g_Y(y) w_2(s - y) dy,

each by tanh-sinh quadrature at 20 digits, which takes the integrable
``y^(-1/2)`` edge of the quartic at either end.  ``f^{-1}`` is solved in
mpmath: in closed form without cancellation for the quartic, by Newton's method
(``mpmath.findroot``) for the custom cubic.

Run from the repository root (a few minutes on one core):

    PYTHONPATH=src python tests/make_fft_oracle.py
"""

from pathlib import Path

import mpmath as mp

from thinshell import gibbs1d, hamiltonians as ham

mp.mp.dps = 20
T = 1.0
POINTS = {2: (0.25, 1.0, 2.0, 4.0), 3: (1.0, 3.0)}


def quartic():
    """``f = x^2 + x^4`` on the whole line."""

    def inverse(y):
        # x^2 solves u^2 + u - y = 0; the stable positive root
        return mp.sqrt(2 * y / (1 + mp.sqrt(1 + 4 * y)))

    return {
        "spec": ham.quartic_perturbed(1.0),
        "f": lambda x: x * x + x**4,
        "df": lambda x: 2 * x + 4 * x**3,
        "inverse": inverse,
        "preimages": 2,
    }


def custom():
    """``f = x + x^3 / 3`` on the half-line, with no inverse supplied."""

    def inverse(y):
        # f is convex and f(y) >= y, so Newton from x = y falls to the root
        return mp.findroot(lambda x: x + x**3 / 3 - y, y, solver="newton", df=lambda x: 1 + x * x)

    return {
        "spec": ham.custom(lambda x: x + x**3 / 3.0),
        "f": lambda x: x + x**3 / 3,
        "df": lambda x: 1 + x * x,
        "inverse": inverse,
        "preimages": 1,
    }


FAMILIES = {"quartic": quartic, "custom": custom}


def oracle(family):
    """The model's ``c`` and ``{(n, s): w_n(s)}`` as 20-digit strings."""
    fam = family()
    c = mp.mpf(gibbs1d.solve_energy(fam["spec"], T).c)
    z = fam["preimages"] * mp.quad(lambda x: mp.exp(-c * fam["f"](x)), [0, 1, mp.inf])

    def g(y):
        return fam["preimages"] * mp.exp(-c * y) / (z * fam["df"](fam["inverse"](y)))

    def w2(s):
        return mp.quad(lambda y: g(y) * g(s - y), [0, s])

    def w3(s):
        return mp.quad(lambda y: g(y) * w2(s - y), [0, s])

    values = {}
    for n, points in POINTS.items():
        for s in points:
            values[(n, s)] = mp.nstr((w2 if n == 2 else w3)(mp.mpf(s)), 20)
            print(family.__name__, n, s, values[(n, s)], flush=True)
    return float(c), values


def main():
    lines = [
        '"""Small-n sum densities of two FFT families at t = 1, by mpmath',
        "convolution; written by make_fft_oracle.py, do not edit.",
        "",
        "``C`` is each model's c when the values were written; ``W`` maps",
        '``(n, s)`` to ``w_n(s)``."""',
        "",
        "C = {",
    ]
    results = {name: oracle(family) for name, family in FAMILIES.items()}
    lines += [f"    {name!r}: {c!r}," for name, (c, _) in results.items()]
    lines += ["}", "", "W = {"]
    for name, (_, values) in results.items():
        lines.append(f"    {name!r}: {{")
        lines += [f"        ({n}, {s!r}): {v!r}," for (n, s), v in values.items()]
        lines.append("    },")
    lines.append("}")
    Path(__file__).with_name("fft_oracle.py").write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
