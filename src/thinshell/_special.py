"""Log-gamma, scalar and numpy-free.

A port of the Cephes routine ``lgam`` (S. L. Moshier, *Methods and Programs
for Mathematical Functions*, 1989, in the form scipy ships it): the same
coefficients, branches and operation order, with the elementary functions
taken from :mod:`math`, which calls the same C library.  So its values
equal scipy's ``gammaln`` bit for bit, and the package needs no scipy to
evaluate its Gamma laws and the transforms and convolutions of its
power-law edges.  The masses of those edges need no special function: one
quadrature rule takes every edge integral (:mod:`thinshell.grids`).

The domain is ``x > 0``; other arguments raise :class:`ValueError`.
"""

from __future__ import annotations

import math

__all__ = ["gammaln"]

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
