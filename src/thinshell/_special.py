"""Log-gamma and the regularised lower incomplete gamma function, scalar and
numpy-free.

Both are ports of the Cephes routines ``lgam`` and ``igam`` (S. L. Moshier,
*Methods and Programs for Mathematical Functions*, 1989, in the form scipy
ships them): the same coefficients, branches and operation order, with the
elementary functions taken from :mod:`math`, which calls the same C library
(except ``expm1``, where Cephes has its own and so does this port).
So the values equal scipy's ``gammaln`` and ``gammainc`` bit for bit, and the
package needs no scipy to evaluate its Gamma laws and power-law edges.

The domains are those the package uses: ``gammaln`` takes ``x > 0`` and
``gammainc`` takes ``0 < a <= 20`` and ``x >= 0``.  For ``a <= 20`` Cephes
never takes its uniform asymptotic (Temme) branch, which is not ported.
Other arguments raise :class:`ValueError`.
"""

from __future__ import annotations

import math

__all__ = ["gammaln", "gammainc"]

_MACHEP = 1.11022302462515654042e-16  # 2**-53
_MAXLOG = 7.09782712893383996843e2  # log(DBL_MAX)
_MAXITER = 2000
_GAMMAINC_MAX_A = 20.0  # Cephes' SMALL: above it, a ~ x takes the Temme branch

# ---------------------------------------------------------------------------
# lgam: a rational approximation on [2, 3] below 13 (reached by the recurrence
# Gamma(x+1) = x Gamma(x)), Stirling's series with a Cephes correction above

_LGAM_A = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)
_LGAM_B = (
    -1.37825152569120859100e3,
    -3.88016315134637840924e4,
    -3.31612992738871184744e5,
    -1.16237097492762307383e6,
    -1.72173700820839662146e6,
    -8.53555664245765465627e5,
)
_LGAM_C = (
    1.0,  # Cephes' p1evl: 1.0 * x is x, so Horner's rule with it is exact
    -3.51815701436523470549e2,
    -1.70642106651881159223e4,
    -2.20528590553854454839e5,
    -1.13933444367982507207e6,
    -2.53252307177582951285e6,
    -2.01889141433532773231e6,
)
_LS2PI = 0.91893853320467274178  # log(sqrt(2 pi))
_MAXLGM = 2.556348e305  # lgam overflows above


def _polevl(x: float, coef) -> float:
    """``coef[0] x^N + ... + coef[N]`` by Horner's rule."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _lgam(x: float) -> float:
    """Cephes ``lgam`` for ``x > 0``."""
    if x < 13.0:
        z = 1.0
        p = 0.0
        u = x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            z /= u
            p += 1.0
            u = x + p
        if u == 2.0:
            return math.log(z)
        p -= 2.0
        x = x + p
        return math.log(z) + x * _polevl(x, _LGAM_B) / _polevl(x, _LGAM_C)
    if x > _MAXLGM:
        return math.inf
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        q += ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p + 0.0833333333333333333333) / x
    else:
        q += _polevl(p, _LGAM_A) / x
    return q


def gammaln(x: float) -> float:
    """``log Gamma(x)`` for ``x > 0``, equal to ``scipy.special.gammaln``."""
    x = float(x)
    if not x > 0.0:
        raise ValueError(f"gammaln takes x > 0; got {x!r}")
    return _lgam(x)


# ---------------------------------------------------------------------------
# lgam1p: log Gamma(1 + x) near x = 0 by its Taylor series, whose
# coefficients are Riemann zeta values, summed by Cephes' Euler-Maclaurin
# ``zeta(n, 1)``

_EULER = 0.577215664901532860606512090082402431
_ZETA_A = (  # Euler-Maclaurin: (2k)! / B_2k
    12.0,
    -720.0,
    30240.0,
    -1209600.0,
    47900160.0,
    -1.8924375803183791606e9,
    7.47242496e10,
    -2.950130727918164224e12,
    1.1646782814350067249e14,
    -4.5979787224074726105e15,
    1.8152105401943546773e17,
    -7.1661652561756670113e18,
)


def _zeta1(x: float) -> float:
    """Cephes' Hurwitz ``zeta(x, q)`` at ``q = 1``, for ``x > 1``."""
    s = 1.0
    a = 1.0
    i = 0
    b = 0.0
    while i < 9 or a <= 9.0:
        i += 1
        a += 1.0
        b = math.pow(a, -x)
        s += b
        if abs(b / s) < _MACHEP:
            return s
    w = a
    s += b * w / (x - 1.0)
    s -= 0.5 * b
    a = 1.0
    k = 0.0
    for coef in _ZETA_A:
        a *= x + k
        b /= w
        t = a * b / coef
        s = s + t
        if abs(t / s) < _MACHEP:
            return s
        k += 1.0
        a *= x + k
        b /= w
        k += 1.0
    return s


_ZETA_INT = tuple(_zeta1(float(n)) for n in range(2, 42))  # zeta(n) for the Taylor terms n = 2..41


def _lgam1p_taylor(x: float) -> float:
    if x == 0.0:
        return 0.0
    res = -_EULER * x
    xfac = -x
    for n, zeta in enumerate(_ZETA_INT, start=2):
        xfac *= -x
        coeff = zeta * xfac / n
        res += coeff
        if abs(coeff) < _MACHEP * abs(res):
            break
    return res


def _lgam1p(x: float) -> float:
    """Cephes ``lgam1p``: ``log Gamma(1 + x)``."""
    if abs(x) <= 0.5:
        return _lgam1p_taylor(x)
    if abs(x - 1.0) < 0.5:
        return math.log(x) + _lgam1p_taylor(x - 1.0)
    return _lgam(x + 1.0)


# ---------------------------------------------------------------------------
# igam: the power series, the continued fraction of the complement, and the
# complement's series with cancellation removed, chosen as Cephes chooses

_LANCZOS_G = 6.024680040776729583740234375
_LANCZOS_NUM = (  # Lanczos 13m53 sum times exp(-g), highest power first
    0.006061842346248906525783753964555936883222,
    0.5098416655656676188125178644804694509993,
    19.51992788247617482847860966235652136208,
    449.9445569063168119446858607650988409623,
    6955.999602515376140356310115515198987526,
    75999.29304014542649875303443598909137092,
    601859.6171681098786670226533699352302507,
    3481712.15498064590882071018964774556468,
    14605578.08768506808414169982791359218571,
    43338889.32467613834773723740590533316085,
    86363131.28813859145546927288977868422342,
    103794043.1163445451906271053616070238554,
    56906521.91347156388090791033559122686859,
)
_LANCZOS_DENOM = (  # x (x+1) ... (x+11), highest power first
    1.0,
    66.0,
    1925.0,
    32670.0,
    357423.0,
    2637558.0,
    13339535.0,
    45995730.0,
    105258076.0,
    150917976.0,
    120543840.0,
    39916800.0,
    0.0,
)
_EXPM1_P = (1.2617719307481059087798e-4, 3.0299440770744196129956e-2, 9.9999999999999999991025e-1)
_EXPM1_Q = (
    3.0019850513866445504159e-6,
    2.5244834034968410419224e-3,
    2.2726554820815502876593e-1,
    2.0000000000000000000897e0,
)
_CF_BIG = 4.503599627370496e15  # 2**52
_CF_BIGINV = 2.22044604925031308085e-16  # 2**-52


def _lanczos_sum_expg_scaled(x: float) -> float:
    """Cephes ``ratevl`` of the Lanczos sum: in ``1/x`` above 1, where both
    polynomials have degree 12, so the ``x^(N-M)`` factor is 1."""
    if abs(x) > 1.0:
        y = 1.0 / x
        return _polevl(y, _LANCZOS_NUM[::-1]) / _polevl(y, _LANCZOS_DENOM[::-1])
    return _polevl(x, _LANCZOS_NUM) / _polevl(x, _LANCZOS_DENOM)


def _expm1(x: float) -> float:
    """Cephes' own ``expm1``, ``2 x P(x^2) / (Q(x^2) - x P(x^2))`` on
    ``[-0.5, 0.5]``, which ``igamc_series`` calls; it differs from the C
    library's ``expm1`` in the last bit at many arguments."""
    if x < -0.5 or x > 0.5:
        return math.exp(x) - 1.0
    xx = x * x
    r = x * _polevl(xx, _EXPM1_P)
    r = r / (_polevl(xx, _EXPM1_Q) - r)
    return r + r


def _igam_fac(a: float, x: float) -> float:
    """``x^a exp(-x) / Gamma(a)``: by logarithms away from ``x = a``, by the
    Lanczos approximation near it.  With ``a <= 20`` the Lanczos form sees
    ``x <= 1.4 a < 200``, so Cephes' ``log1pmx`` form for large arguments
    is never reached and is not ported."""
    if abs(a - x) > 0.4 * abs(a):
        ax = a * math.log(x) - x - _lgam(a)
        if ax < -_MAXLOG:
            return 0.0
        return math.exp(ax)
    fac = a + _LANCZOS_G - 0.5
    res = math.sqrt(fac / math.exp(1)) / _lanczos_sum_expg_scaled(a)
    return res * (math.exp(a - x) * math.pow(x / fac, a))


def _igam_series(a: float, x: float) -> float:
    """The lower function by its power series (DLMF 8.11.4)."""
    ax = _igam_fac(a, x)
    if ax == 0.0:
        return 0.0
    r = a
    c = 1.0
    ans = 1.0
    for _ in range(_MAXITER):
        r += 1.0
        c *= x / r
        ans += c
        if c <= _MACHEP * ans:
            break
    return ans * ax / a


def _igamc_continued_fraction(a: float, x: float) -> float:
    """The upper function by its continued fraction (DLMF 8.9.2), for ``x > 1.1``."""
    ax = _igam_fac(a, x)
    if ax == 0.0:
        return 0.0
    y = 1.0 - a
    z = x + y + 1.0
    c = 0.0
    pkm2 = 1.0
    qkm2 = x
    pkm1 = x + 1.0
    qkm1 = z * x
    ans = pkm1 / qkm1
    for _ in range(_MAXITER):
        c += 1.0
        y += 1.0
        z += 2.0
        yc = y * c
        pk = pkm1 * z - pkm2 * yc
        qk = qkm1 * z - qkm2 * yc
        if qk != 0.0:
            r = pk / qk
            t = abs((ans - r) / r)
            ans = r
        else:
            t = 1.0
        pkm2 = pkm1
        pkm1 = pk
        qkm2 = qkm1
        qkm1 = qk
        if abs(pk) > _CF_BIG:
            pkm2 *= _CF_BIGINV
            pkm1 *= _CF_BIGINV
            qkm2 *= _CF_BIGINV
            qkm1 *= _CF_BIGINV
        if t <= _MACHEP:
            break
    return ans * ax


def _igamc_series(a: float, x: float) -> float:
    """The upper function by DLMF 8.7.3, for ``x <= 1.1``: the series of
    :func:`_igam_series` rearranged so that ``1 - P`` does not cancel."""
    fac = 1.0
    total = 0.0
    for n in range(1, _MAXITER):
        fac *= -x / n
        term = fac / (a + n)
        total += term
        if abs(term) <= _MACHEP * abs(total):
            break
    logx = math.log(x)
    term = -_expm1(a * logx - _lgam1p(a))
    return term - math.exp(a * logx - _lgam(a)) * total


def gammainc(a: float, x: float) -> float:
    """Regularised lower incomplete gamma ``P(a, x)`` for ``0 < a <= 20`` and
    ``x >= 0``, equal to ``scipy.special.gammainc``."""
    a, x = float(a), float(x)
    if not 0.0 < a <= _GAMMAINC_MAX_A:
        raise ValueError(f"gammainc takes 0 < a <= {_GAMMAINC_MAX_A:g}; got a={a!r}")
    if not x >= 0.0:
        raise ValueError(f"gammainc takes x >= 0; got x={x!r}")
    if x == 0.0:
        return 0.0
    if x == math.inf:
        return 1.0
    if x > 1.0 and x > a:
        # Cephes' igamc; with a < x its 1 - igam_series branches are dead
        return 1.0 - (_igamc_continued_fraction(a, x) if x > 1.1 else _igamc_series(a, x))
    return _igam_series(a, x)
