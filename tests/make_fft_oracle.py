"""Write ``fft_oracle.py``: sum densities of the FFT families by mpmath, the
literals ``test_fft_oracle.py`` reads.

For ``Y = f(X)`` under the coordinate density ``exp(-c f(x)) / Z`` the
energy density is ``g_Y(y) = m exp(-c y) / (Z f'(f^{-1}(y)))``, with ``m``
the number of preimages (2 on symmetric support).  ``Z`` is this script's
own integral at the model's ``c``, so a defect of the library's ``Z`` shows
in the comparison.

Small n, by convolution:

    w_2(s) = int_0^s g_Y(y) g_Y(s - y) dy,
    w_3(s) = int_0^s g_Y(y) w_2(s - y) dy,

each by tanh-sinh quadrature at 20 digits, which takes the integrable
``y^(-1/2)`` edge of the quartic at either end.  ``f^{-1}`` is solved in
mpmath: in closed form without cancellation for the quartics, by Newton's
method (``mpmath.findroot``) for the custom cubic.

Large n, by the Edgeworth expansion at the mean.  ``c`` is matched so that
``E Y = t``, so ``nt`` is the mean of ``w_n`` and the odd terms vanish
(Petrov 1975, ch. VI):

    log w_n(nt) = -1/2 log(2 pi n k_2) + log(1 + A/n + B/n^2),

with ``l_r = k_r / k_2^(r/2)``, ``A = l_4/8 - 5 l_3^2/24`` and
``B = -l_6/48 + 105 (l_3 l_5/720 + l_4^2/1152) - 945 l_3^2 l_4/1728
+ 10395 l_3^4/31104``.  The cumulants ``k_r`` come from the central moments
of Y, integrated at 30 digits.  The remainder is of order ``n^-3``.

Run from the repository root (a few minutes on one core):

    PYTHONPATH=src python tests/make_fft_oracle.py
"""

from pathlib import Path

import mpmath as mp

from thinshell import gibbs1d, hamiltonians as ham

mp.mp.dps = 20
T = 1.0
POINTS = {2: (0.25, 1.0, 2.0, 4.0), 3: (1.0, 3.0)}
EDGEWORTH_NS = (200, 800, 1600)
# breaks of the half-line integrals: every family's weight is negligible
# long before 64
BREAKS = [0, 1, 2, 4, 8, 16, 32, 64, mp.inf]


def quartic(eps):
    """``f = x^2 + eps x^4`` on the whole line."""

    def inverse(y):
        # x^2 solves eps u^2 + u - y = 0; the stable positive root
        return mp.sqrt(2 * y / (1 + mp.sqrt(1 + 4 * eps * y)))

    return {
        "spec": ham.quartic_perturbed(eps),
        "f": lambda x: x * x + eps * x**4,
        "df": lambda x: 2 * x + 4 * eps * x**3,
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


def power3():
    """``f = x^3`` on the half-line: homogeneous, but without a closed-form
    sum density in the library, so its ``w_n`` takes the FFT route."""
    return {"spec": ham.power(3.0), "f": lambda x: x**3, "preimages": 1}


def quadratic():
    """``f = x^2`` on the whole line, whose ``w_n`` is the exact Gamma(n/2)
    density: the Edgeworth literals are checked against it."""
    return {"spec": ham.quadratic(), "f": lambda x: x * x, "preimages": 2}


# name: (family, with convolution literals)
FAMILIES = {
    "quartic": (lambda: quartic(1), True),
    "quartic0.5": (lambda: quartic(0.5), True),
    "custom": (custom, True),
    "power3": (power3, False),
    "quadratic": (quadratic, False),
}


def convolutions(fam, c, z):
    """``{(n, s): w_n(s)}`` as 20-digit strings."""

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
            print(n, s, values[(n, s)], flush=True)
    return values


def edgeworth(fam, c):
    """``{n: log w_n(nt)}`` at 30 digits, as 20-digit strings."""
    with mp.workdps(30):
        c = mp.mpf(c)

        def expect(weight):
            return mp.quad(lambda x: weight(fam["f"](x)) * mp.exp(-c * fam["f"](x)), BREAKS)

        z = expect(lambda y: 1)
        mu = expect(lambda y: y) / z
        m2, m3, m4, m5, m6 = (expect(lambda y, r=r: (y - mu) ** r) / z for r in range(2, 7))
        k3, k4, k5, k6 = m3, m4 - 3 * m2**2, m5 - 10 * m3 * m2, m6 - 15 * m4 * m2 - 10 * m3**2 + 30 * m2**3
        l3, l4, l5, l6 = (k / m2 ** (mp.mpf(r) / 2) for r, k in ((3, k3), (4, k4), (5, k5), (6, k6)))
        a = l4 / 8 - 5 * l3**2 / 24
        b = (-l6 / 48 + 105 * (l3 * l5 / 720 + l4**2 / 1152) - 945 * l3**2 * l4 / 1728
             + 10395 * l3**4 / 31104)
        values = {}
        for n in EDGEWORTH_NS:
            value = -mp.log(2 * mp.pi * n * m2) / 2 + mp.log(1 + a / n + b / n**2)
            values[n] = mp.nstr(value, 20)
            print(n, values[n], flush=True)
        return values


def oracle(name):
    """The model's ``c``, its convolution literals (or None) and its
    Edgeworth literals."""
    family, convolved = FAMILIES[name]
    fam = family()
    print(name, flush=True)
    c = gibbs1d.solve_energy(fam["spec"], T).c
    w = None
    if convolved:
        z = fam["preimages"] * mp.quad(lambda x: mp.exp(-mp.mpf(c) * fam["f"](x)), [0, 1, mp.inf])
        w = convolutions(fam, mp.mpf(c), z)
    return c, w, edgeworth(fam, c)


def main():
    lines = [
        '"""Sum densities of the FFT families at t = 1 by mpmath: convolutions',
        "at small n, the Edgeworth expansion at large n (the quadratic's as its",
        "check); written by make_fft_oracle.py, do not edit.",
        "",
        "``C`` is each model's c when the values were written; ``W`` maps",
        "``(n, s)`` to ``w_n(s)`` by convolution; ``E`` maps ``n`` to the",
        'Edgeworth expansion of ``log w_n(nt)``."""',
        "",
        "C = {",
    ]
    results = {name: oracle(name) for name in FAMILIES}
    lines += [f"    {name!r}: {c!r}," for name, (c, _, _) in results.items()]
    lines += ["}", "", "W = {"]
    for name, (_, values, _) in results.items():
        if values is not None:
            lines.append(f"    {name!r}: {{")
            lines += [f"        ({n}, {s!r}): {v!r}," for (n, s), v in values.items()]
            lines.append("    },")
    lines += ["}", "", "E = {"]
    for name, (_, _, values) in results.items():
        lines.append(f"    {name!r}: {{")
        lines += [f"        {n}: {v!r}," for n, v in values.items()]
        lines.append("    },")
    lines.append("}")
    Path(__file__).with_name("fft_oracle.py").write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
