"""Norms and multiplication bounds of weighted l^p coefficient spaces.

The (p, w) norm of a polynomial sums |a_k|^p w_k (sup of |a_k| w_k at
p = infinity).  Exponents live in [1, inf]; infinity is represented by
``math.inf``, never by a large float, and the Hoelder conjugate follows the
conventions q = inf at p = 1 and q = 1 at p = inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .poly import Poly
from .weights import Weight, doubling_constant_for, power_weight

INF = math.inf


@dataclass(frozen=True)
class SpaceParams:
    """Exponent p in [1, inf] together with the weight defining the norm."""

    p: float
    weight: Weight

    def __post_init__(self):
        if not (self.p >= 1):
            raise ValueError("p must satisfy p >= 1")
        object.__setattr__(self, "p", float(self.p))

    @property
    def q(self) -> float:
        """Hoelder conjugate of p, with 1/p + 1/q = 1 under the edge conventions."""
        if self.p == INF:
            return 1.0
        if self.p == 1.0:
            return INF
        return self.p / (self.p - 1.0)

    @property
    def is_flat(self) -> bool:
        """True for the non-uniformly-convex endpoints p = 1 and p = inf."""
        return self.p == 1.0 or self.p == INF

    @property
    def alpha(self) -> float | None:
        """Power-weight exponent when the weight is of power kind, else None."""
        return self.weight.alpha if self.weight.kind == "power" else None

    @classmethod
    def power(cls, p: float, alpha: float) -> "SpaceParams":
        return cls(p, power_weight(alpha))

    def __repr__(self):
        return f"SpaceParams(p={self.p}, weight={self.weight!r})"


def _row_norms(a: np.ndarray, w: np.ndarray, p: float) -> np.ndarray:
    """(p, w) norms along the last axis of an array of coefficient moduli."""
    if p == INF:
        return (a * w).max(axis=-1)
    return (a ** p * w).sum(axis=-1) ** (1.0 / p)


def norm(g: Poly, sp: SpaceParams) -> float:
    """Weighted p-norm of the polynomial's coefficients (always finite)."""
    c = g.coeffs
    if c.size == 0:
        return 0.0
    return float(_row_norms(np.abs(c), sp.weight.values_up_to(c.size - 1), sp.p))


@dataclass(frozen=True)
class MultiplicationBound:
    lhs: float
    rhs: float
    constant: float
    holds: bool


def multiplication_constant(sp: SpaceParams) -> float:
    """Constant in the product estimate, derived from the weight's doubling.

    One doubling step covers the index shift created by the convolution
    split (s + t <= 2s + 1), giving C_w; it enters inside the p-th root for
    finite p and directly at p = inf.
    """
    c = doubling_constant_for(sp.weight)
    return c if sp.p == INF else c ** (1.0 / sp.p)


def multiplication_bound_batch(F, G, sp: SpaceParams) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the product estimate for k pairs (f_i, g_i) at once.

    ``F`` and ``G`` are (k, m) arrays, m >= 1, whose row i holds the
    coefficients of f_i and g_i zero-padded to length m.  Returns the arrays
    ``lhs[i] = norm(f_i g_i)`` and
    ``rhs[i] = C * (|f_i|_1 norm(g_i) + norm(f_i) |g_i|_1)`` with
    C = :func:`multiplication_constant`.  The products are the anti-diagonal
    sums of the outer products, added one coefficient of f at a time (m
    steps over all k rows, O(k m) memory); the weights are evaluated once,
    up to index 2m - 2.  An all-zero row gives 0 on both sides.
    """
    F = np.asarray(F, dtype=np.complex128)
    G = np.asarray(G, dtype=np.complex128)
    if F.ndim != 2 or F.shape != G.shape or F.shape[1] == 0:
        raise ValueError("F and G must be (k, m) arrays of the same shape with m >= 1")
    k, m = F.shape
    fg = np.zeros((k, 2 * m - 1), dtype=np.complex128)
    for i in range(m):
        fg[:, i:i + m] += F[:, i, None] * G
    w = sp.weight.values_up_to(2 * m - 2)
    fa, ga = np.abs(F), np.abs(G)
    lhs = _row_norms(np.abs(fg), w, sp.p)
    rhs = multiplication_constant(sp) * (fa.sum(axis=1) * _row_norms(ga, w[:m], sp.p)
                                         + _row_norms(fa, w[:m], sp.p) * ga.sum(axis=1))
    return lhs, rhs


def multiplication_bound_check(f: Poly, g: Poly, sp: SpaceParams) -> MultiplicationBound:
    """Check norm(f*g) <= C * (|f|_1 norm(g) + norm(f) |g|_1) for one pair.

    The one-row case of :func:`multiplication_bound_batch`.  Returns both
    sides, the constant used, and the boolean verdict; the bound provably
    holds for admissible weights, so ``holds`` should only be False on a
    genuine implementation or admissibility bug.  A zero factor gives
    ``lhs = rhs = 0`` and ``holds = True``.
    """
    m = max(f.coeffs.size, g.coeffs.size, 1)
    lhs, rhs = multiplication_bound_batch(f.padded(m)[None], g.padded(m)[None], sp)
    lhs, rhs = float(lhs[0]), float(rhs[0])
    return MultiplicationBound(lhs=lhs, rhs=rhs, constant=multiplication_constant(sp),
                               holds=lhs <= rhs)

