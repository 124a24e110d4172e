"""Uniform-grid numerical densities with log-space evaluation.

A :class:`DensityGrid` stores a one-dimensional density on an equally
spaced grid.  Densities with an integrable power-law blow-up at the left
edge (e.g. energy densities behaving like ``K * y**beta * exp(-rate*y)``
with ``-1 < beta < 0`` near ``y = 0``) carry an :class:`EdgeModel`.
Integration then splits the domain: over a prefix of cells the model is
integrated by one per-cell rule (:meth:`EdgeModel.cell_integrals`), and
only the smooth model remainder goes through the trapezoid rule, so the
power-law part never sees the rule that would diverge on it.  The same
rule gives every edge integral: the mass, the cumulative mass of
``cdf_values`` and each weighted integral.  The model's transform and
convolutions take ``log Gamma`` from :mod:`thinshell._special`, so this
module needs numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._special import gammaln
from .hamiltonians import _memo

__all__ = ["EdgeModel", "DensityGrid", "make_grid"]

# 24-point Gauss-Legendre rule on [-1, 1]: numpy's leggauss nodes, and the
# positive half of the weights rounded from 40-digit values (numpy's
# weights are off by up to 859 ulps)
_GL_NODES = np.polynomial.legendre.leggauss(24)[0]
_GL_HALF = (
    0.12793819534675216, 0.1258374563468283, 0.12167047292780339, 0.1155056680537256,
    0.10744427011596563, 0.09761865210411388, 0.08619016153195327, 0.0733464814110803,
    0.05929858491543678, 0.04427743881741981, 0.028531388628933663, 0.0123412297999872,
)
_GL_WEIGHTS = np.array(_GL_HALF[::-1] + _GL_HALF)
# the same rule on [0, 1], for the first cell, and an 8-point rule on
# [0, 1] for the cells after it
_GL01 = 0.5 * (_GL_NODES + 1.0)
_GLW01 = 0.5 * _GL_WEIGHTS
_GL8_NODES, _GL8_WEIGHTS = np.polynomial.legendre.leggauss(8)
_GL8 = 0.5 * (_GL8_NODES + 1.0)
_GL8W = 0.5 * _GL8_WEIGHTS

# number of leading cells integrated against the edge model
_MODEL_CELLS = 256

_LOG_ZERO = -np.inf


@dataclass(frozen=True)
class EdgeModel:
    """Local model for the density near the left grid edge, ``v = x - x0``:

        exp(log_k) * v**beta * exp(-rate*v)  +  coef2 * v**beta2 * exp(-rate*v)

    The leading term has ``beta > -1`` (finite mass); the optional second
    term captures the next order of the expansion so the sampled remainder
    is smooth enough for the trapezoid rule.  The Fourier transform and the
    self-convolution of every power law ``a v^b exp(-rate v)`` of the model
    are closed forms; every integral of the model, its mass included, comes
    from :meth:`cell_integrals`.
    """

    beta: float
    log_k: float
    rate: float
    beta2: float | None = None
    coef2: float = 0.0

    def __post_init__(self):
        if not self.beta > -1.0:
            raise ValueError(f"edge exponent must exceed -1, got {self.beta}")
        for name, b in (("beta", self.beta), ("beta2", self.beta2)):
            if b is not None and not math.isfinite(b):
                raise ValueError(f"edge exponent {name} must be finite, got {b}")

    @property
    def _terms(self) -> list[tuple[float, float, float]]:
        """``(exponent, log|amplitude|, sign)`` of each power law."""
        terms = [(self.beta, self.log_k, 1.0)]
        if self.beta2 is not None and self.coef2 != 0.0:
            terms.append((self.beta2, math.log(abs(self.coef2)), math.copysign(1.0, self.coef2)))
        return terms

    def log_density(self, v) -> np.ndarray:
        """Leading term only; used for log interpolation inside the first cell."""
        v = np.asarray(v, dtype=float)
        with np.errstate(divide="ignore"):
            return self.log_k + self.beta * np.log(v) - self.rate * v

    def density(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            out = np.exp(self.log_density(v))
            if self.beta2 is not None:
                out = out + self.coef2 * v**self.beta2 * np.exp(-self.rate * v)
        return out

    def edge_value(self) -> float:
        """Height of a jump at the edge: the amplitudes of the terms with
        exponent 0 (within 1e-9); vanishing and singular terms add nothing."""
        return sum((sign * math.exp(log_a) for b, log_a, sign in self._terms if abs(b) <= 1e-9), 0.0)

    def transform(self, base: np.ndarray) -> np.ndarray:
        """``\\int_0^inf model(v) exp(iuv) dv`` given ``base = log(rate - iu)``:
        each ``a v^b exp(-rate v)`` maps to ``a Gamma(b+1) (rate - iu)^{-(b+1)}
        = exp(log(a Gamma(b+1)) - (b+1) base)``."""
        out = 0.0
        for b, log_a, sign in self._terms:
            out = out + sign * np.exp(log_a + gammaln(b + 1.0) - (b + 1.0) * base)
        return out

    def convolve(self, n: int, below: float = math.inf) -> "EdgeModel | None":
        """Leading two terms of the n-fold self-convolution, ``lead^{*n}``
        and ``n lead^{*(n-1)} * next``, from the Beta integral ``v^{a-1} *
        v^{b-1} = B(a, b) v^{a+b-1}`` (all terms share ``exp(-rate v)``).
        Terms with exponent ``>= below`` are dropped; None if the lead is."""
        (beta, log_k, _), *rest = self._terms
        exponent = n * (beta + 1.0) - 1.0
        if not exponent < below:
            return None
        log_lead = log_k + gammaln(beta + 1.0)  # log(K Gamma(beta+1))
        log_a = n * log_lead - gammaln(exponent + 1.0)
        for b, log_b, sign in rest:
            exponent2 = (n - 1) * (beta + 1.0) + b
            if exponent2 < below:
                log_a2 = math.log(n) + (n - 1) * log_lead + log_b + gammaln(b + 1.0) - gammaln(exponent2 + 1.0)
                return EdgeModel(exponent, log_a, self.rate, beta2=exponent2, coef2=sign * math.exp(log_a2))
        return EdgeModel(exponent, log_a, self.rate)

    def scaled(self, log_factor: float, rate_shift: float = 0.0) -> "EdgeModel":
        """The model times ``exp(log_factor + rate_shift * v)``."""
        return EdgeModel(
            self.beta, self.log_k + log_factor, self.rate - rate_shift, self.beta2, self.coef2 * math.exp(log_factor)
        )

    def first_cell_integral(self, dx: float, fn: Callable[[np.ndarray], np.ndarray]) -> float:
        """``\\int_0^dx model(v) fn(v) dv`` for smooth ``fn``.

        Each term ``a v^b exp(-rate v)`` takes its own substitution ``v = dx
        s^{1/(b+1)}``, which absorbs its power-law weight exactly: the term
        becomes ``a dx^{b+1}/(b+1) \\int_0^1 exp(-rate v) fn(v) ds``, and
        Gauss-Legendre sees only ``exp(-rate v) fn(v)``, whose departure from
        a constant is of order ``rate dx`` (and ``dx fn'``).  One call of
        ``fn`` takes the nodes of every term.
        """
        terms = self._terms
        a = np.array([b + 1.0 for b, _, _ in terms])[:, None]
        v = dx * _GL01 ** (1.0 / a)
        scale = np.array([sign * math.exp(log_a + (b + 1.0) * math.log(dx)) / (b + 1.0) for b, log_a, sign in terms])
        return float(scale @ ((np.exp(-self.rate * v) * fn(v)) @ _GLW01))

    def cell_integrals(self, dx: float, cells: int, fn: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """``\\int model(v) fn(v) dv`` over each cell ``[j dx, (j+1) dx]``,
        ``j < cells``: the first by :meth:`first_cell_integral`, the others,
        away from the singular endpoint, by 8-point Gauss-Legendre."""
        out = np.empty(cells)
        out[0] = self.first_cell_integral(dx, fn)
        if cells > 1:
            starts = dx * np.arange(1, cells)[:, None]
            v = starts + dx * _GL8[None, :]
            out[1:] = dx * ((self.density(v) * fn(v)) @ _GL8W)
        return out

    def prefix_integral(self, dx: float, cells: int, fn: Callable[[np.ndarray], np.ndarray]) -> float:
        """``\\int_0^{cells*dx} model(v) fn(v) dv``."""
        return float(np.sum(self.cell_integrals(dx, cells, fn)))


@dataclass(frozen=True)
class DensityGrid:
    """Nonnegative density sampled on ``x0 + dx * arange(len(values))``.

    ``mass`` is the integral over the grid; when ``edge`` is set the node at
    ``x0`` is a 0 sentinel and integrals are edge-aware.  Values derived from
    the grid are built once, through ``hamiltonians._memo`` on ``_cache``.
    """

    x0: float
    dx: float
    values: np.ndarray
    mass: float
    edge: EdgeModel | None = None
    meta: dict | None = field(default=None, compare=False)
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def x_end(self) -> float:
        return self.x0 + self.dx * (len(self.values) - 1)

    def points(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(len(self.values))

    @property
    def log_values(self) -> np.ndarray:
        """``log(values[i])`` where positive and ``-inf`` otherwise, taken on
        first read: most grids are only integrated and never need it."""
        return _memo(self._cache, "log_values", self._log_values)

    def _log_values(self) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.where(self.values > 0, np.log(np.where(self.values > 0, self.values, 1.0)), _LOG_ZERO)

    def log_at(self, x) -> np.ndarray:
        """Log-density at arbitrary points: linear interpolation of the log
        values (geometric interpolation of the density), the edge model
        inside the first cell, ``-inf`` outside the grid or next to a zero
        node."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.full(x.shape, _LOG_ZERO)
        pos = (x - self.x0) / self.dx
        inside = (pos >= 0.0) & (pos <= len(self.values) - 1)
        if self.edge is not None:
            cell = inside & (pos < 1.0) & (pos > 0.0)
            out[cell] = self.edge.log_density(x[cell] - self.x0)
            inside &= pos >= 1.0
        idx = np.clip(np.floor(pos[inside]).astype(int), 0, len(self.values) - 2)
        frac = pos[inside] - idx
        lo = self.log_values[idx]
        hi = self.log_values[idx + 1]
        with np.errstate(invalid="ignore"):
            interp = lo + frac * (hi - lo)
        interp[~np.isfinite(lo) | ~np.isfinite(hi)] = _LOG_ZERO
        exact = frac == 0.0
        interp[exact] = lo[exact]
        out[inside] = interp
        return out

    def at(self, x) -> np.ndarray:
        with np.errstate(over="ignore"):
            return np.exp(self.log_at(x))

    def integrate(
        self, fn: Callable[[np.ndarray], np.ndarray] | None = None, at_nodes: np.ndarray | None = None
    ) -> float:
        """``\\int fn(x) density(x) dx`` over the grid (``fn=None`` -> mass).

        ``at_nodes`` is ``fn`` already evaluated at :meth:`points`; given it,
        ``fn`` is called only where the edge model needs points between the
        nodes.
        """
        return _integrate(self.dx, self.x0, self.values, self.edge, fn, at_nodes)

    def mean(self) -> float:
        return self.integrate(lambda x: x) / self.mass

    def var(self) -> float:
        m = self.mean()
        return self.integrate(lambda x: (x - m) ** 2) / self.mass

    def cdf_values(self) -> np.ndarray:
        """Cumulative mass at the grid nodes; over the model's cells, the
        model part is the running sum of its per-cell integrals."""
        inc = 0.5 * self.dx * (self.values[1:] + self.values[:-1])
        out = np.concatenate(([0.0], np.cumsum(inc)))
        if self.edge is not None:
            m = min(_MODEL_CELLS, len(self.values) - 1)
            vs = self.points()[: m + 1] - self.x0
            model_cum = np.concatenate(([0.0], np.cumsum(self.edge.cell_integrals(self.dx, m, _one))))
            rem = self.values[: m + 1] - self.edge.density(vs)
            rem[0] = 0.0
            rem_inc = 0.5 * self.dx * (rem[1:] + rem[:-1])
            out[: m + 1] = model_cum + np.concatenate(([0.0], np.cumsum(rem_inc)))
            out[m + 1 :] = out[m] + np.cumsum(inc[m:])
        return out

    def normalized(self) -> "DensityGrid":
        """Rescaled copy with unit mass; the defect is kept in ``meta``.

        Integration is linear in the values, so the copy's mass is
        ``mass * scale`` and is not integrated again."""
        scale = 1.0 / self.mass
        meta = dict(self.meta or {})
        meta["norm_defect"] = abs(self.mass - 1.0)
        edge = None if self.edge is None else self.edge.scaled(math.log(scale))
        return DensityGrid(self.x0, self.dx, self.values * scale, self.mass * scale, edge=edge, meta=meta)


def _one(v: np.ndarray) -> np.ndarray:
    return np.ones(np.shape(v))


def _integrate(dx, x0, values, edge, fn, at_nodes=None):
    if fn is None and at_nodes is not None:
        raise ValueError("node values need the pointwise fn they sample")
    if fn is not None and at_nodes is None:
        at_nodes = fn(x0 + dx * np.arange(len(values)))
    weighted = values if fn is None else values * at_nodes
    if edge is None:
        return float(np.trapezoid(weighted, dx=dx))
    # model part by the per-cell rule over the leading cells, trapezoid on
    # the model remainder (smooth near the edge) and on the rest of the grid
    m = min(_MODEL_CELLS, len(values) - 1)
    shifted = _one if fn is None else (lambda v: fn(x0 + v))
    model_part = edge.prefix_integral(dx, m, shifted)
    vs = (x0 + dx * np.arange(m + 1)) - x0  # rounded as points() - x0 rounds them
    with np.errstate(invalid="ignore"):
        rem = weighted[: m + 1] - edge.density(vs) * (1.0 if fn is None else at_nodes[: m + 1])
    rem[0] = 0.0  # sentinel node: the model term is singular there
    rem_part = float(np.trapezoid(rem, dx=dx))
    bulk = float(np.trapezoid(weighted[m:], dx=dx))
    return model_part + rem_part + bulk


def make_grid(
    x0: float,
    dx: float,
    values: np.ndarray,
    edge: EdgeModel | None = None,
    meta: dict | None = None,
) -> DensityGrid:
    values = np.asarray(values, dtype=float)
    if np.any(values < 0):
        values = np.clip(values, 0.0, None)
    if edge is not None and values[0] != 0.0:
        raise ValueError("singular-edge grids use a 0 sentinel at node 0")
    mass = _integrate(dx, x0, values, edge, None)
    return DensityGrid(x0=x0, dx=dx, values=values, mass=float(mass), edge=edge, meta=meta)
