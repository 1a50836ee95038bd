"""Complex polynomial arithmetic, circle-root specifications and signed powers.

Polynomials are finite complex coefficient sequences indexed by degree, with
structural trailing zeros trimmed.  The zero polynomial has degree ``None``.
All arithmetic is exact in the coefficient model up to floating rounding.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import DegreeCapError, InexactDivisionError

# Degree cap bounds memory in sweeps; anything larger is almost surely a bug.
MAX_DEGREE = 1 << 16

TWO_PI = 2.0 * math.pi
_BLOCK = 64              # columns per np.linalg.qr call in lstsq_div
_SOLVE_BLOCK = 32        # unknowns per np.linalg.solve call in its back substitution


def signed_powers(values, s: float) -> np.ndarray:
    """The signed powers |z|**s * exp(-i arg z) of a complex array; 0 maps to 0.

    s = 1 is plain complex conjugation.  Computed from modulus and argument:
    the negated-argument convention is not a holomorphic branch, so
    exp-of-log of the complex value would be wrong.
    """
    if s < 0:
        raise ValueError("signed power needs s >= 0")
    a = np.asarray(values, dtype=np.complex128)
    out = np.zeros_like(a)
    mask = a != 0
    am = a[mask]
    out[mask] = np.abs(am) ** s * np.exp(-1j * np.angle(am))
    return out


class Poly:
    """Immutable complex polynomial; ``coeffs[k]`` multiplies z**k."""

    __slots__ = ("_c",)

    def __init__(self, coeffs=()):
        c = np.asarray(coeffs, dtype=np.complex128).reshape(-1)
        if c.size and c[-1] == 0:           # trim trailing zeros
            nz = np.flatnonzero(c)
            c = c[: nz[-1] + 1] if nz.size else c[:0]
        c = c.copy()
        if c.size > MAX_DEGREE + 1:
            raise ValueError(f"degree {c.size - 1} exceeds cap {MAX_DEGREE}")
        if not np.isfinite(c).all():
            raise ValueError("polynomial coefficients must be finite")
        c.flags.writeable = False
        self._c = c

    @property
    def coeffs(self) -> np.ndarray:
        return self._c

    @property
    def degree(self) -> int | None:
        """Index of the last nonzero coefficient; None for the zero polynomial."""
        return None if self._c.size == 0 else self._c.size - 1

    @property
    def is_zero(self) -> bool:
        return self._c.size == 0

    def coeff(self, k: int) -> complex:
        """Coefficient of z**k (0 beyond the stored degree)."""
        if 0 <= k < self._c.size:
            return complex(self._c[k])
        return 0j

    def padded(self, length: int) -> np.ndarray:
        """Coefficients zero-padded (or identical) to the requested length."""
        if length < self._c.size:
            raise ValueError("padded length below polynomial size")
        out = np.zeros(length, dtype=np.complex128)
        out[: self._c.size] = self._c
        return out

    def __call__(self, z: complex) -> complex:
        return eval_derivative(self, z)

    def __add__(self, other):
        other = _as_poly(other)
        n = max(self._c.size, other._c.size)
        return Poly(self.padded(n) + other.padded(n))

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_poly(other)
        n = max(self._c.size, other._c.size)
        return Poly(self.padded(n) - other.padded(n))

    def __rsub__(self, other):
        return _as_poly(other).__sub__(self)

    def __neg__(self):
        return Poly(-self._c)

    def __mul__(self, other):
        if np.isscalar(other):
            return Poly(self._c * other)
        other = _as_poly(other)
        if self.is_zero or other.is_zero:
            return Poly()
        return Poly(np.convolve(self._c, other._c))

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self._c.shape == other._c.shape and bool(np.all(self._c == other._c))

    def __hash__(self):
        return hash(self._c.tobytes())

    def __repr__(self):
        if self.is_zero:
            return "Poly(0)"
        return f"Poly(degree={self.degree}, coeffs={np.array2string(self._c, precision=6)})"


def _as_poly(x) -> Poly:
    if isinstance(x, Poly):
        return x
    if np.isscalar(x):
        return Poly([x])
    return Poly(x)


ONE = Poly([1.0])


def lstsq_div(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """Division with the quotient chosen to minimize the remainder 2-norm.

    Column j of the multiplication-by-den matrix is nonzero in rows j..j+e
    only (e = deg den), so its Householder QR runs by blocks: one
    ``np.linalg.qr`` of the ``_BLOCK`` + e rows a block of columns touches,
    with the next e columns and num appended (the triangle then holds
    Q^H num), leaves e rows for the next block.  R has upper bandwidth e and
    is kept as its e + 1 diagonals.  Back substitution runs by blocks of
    ``_SOLVE_BLOCK`` unknowns, last first: a block's rows of R, a
    ``_SOLVE_BLOCK`` x (``_SOLVE_BLOCK`` + e) strip, are rebuilt from the
    diagonals, and ``np.linalg.solve`` takes its leading square against
    Q^H num less the coupling columns times the next block's first e
    unknowns.  The QR pass takes O(n (_BLOCK + e)^2) time, the substitution
    O(n _SOLVE_BLOCK^2), and both O(n e) memory; blocks of 1 are plain
    column-by-column QR and substitution.  Unlike long division it is
    stable for zeros of den outside the disc; for exactly divisible inputs
    the remainder is at rounding level.  den enters the QR divided by 2^k,
    the least power of two above its largest coefficient modulus (k >= 0),
    and the quotient is divided by 2^k: exact, where the QR of
    den = 1e308 (1 - z) would overflow.
    """
    if den.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if num.is_zero or num.degree < den.degree:
        return Poly(), num
    e, cols = den.degree, num.degree - den.degree + 1
    scale = 2.0 ** -max(math.frexp(float(np.abs(den.coeffs).max()))[1], 0)
    size = min(_BLOCK, cols) + e
    fresh = np.zeros((size, size), dtype=np.complex128)     # a block's columns, untouched
    for k in range(e + 1):
        fresh.reshape(-1)[k * size:: size + 1] = den.coeffs[k] * scale
    band = np.zeros((e + 1, cols + e), dtype=np.complex128)  # band[e + i - j, j] = R[i, j]
    rhs = np.zeros(cols, dtype=np.complex128)
    upper = np.triu(np.ones((e, e + 1), dtype=bool))
    for j in range(0, cols, _BLOCK):
        width = min(_BLOCK, cols - j)
        work = np.zeros((width + e, width + e + 1), dtype=np.complex128)
        work[:, :-1], work[:, -1] = fresh[: width + e, : width + e], num.coeffs[j: j + width + e]
        work[:, cols - j: -1] = 0.0                         # no columns past the last
        if j:                                               # the rows the block before left
            work[:e, :e], work[:e, -1] = carry[:, :-1], carry[:, -1]
        # mode "raw" leaves reflectors below R's diagonal; the carry is the
        # only read there and masks them, cheaper than mode "r"'s triu
        r = np.linalg.qr(work, mode="raw")[0].T
        for k in range(e + 1):
            band[e - k, j + k: j + k + width] = np.diagonal(r, k)[:width]
        rhs[j: j + width], carry = r[:width, -1], np.where(upper, r[width:, width:], 0)
    x = np.zeros(cols + e, dtype=np.complex128)             # the quotient, then e zeros
    for j in range((cols - 1) // _SOLVE_BLOCK * _SOLVE_BLOCK, -1, -_SOLVE_BLOCK):
        width = min(_SOLVE_BLOCK, cols - j)
        tri = np.zeros((width, width + e), dtype=np.complex128)  # R[j:j+width, j:j+width+e]
        flat = tri.reshape(-1)
        for k in range(e + 1):
            flat[k:: width + e + 1] = band[e - k, j + k: j + k + width]
        x[j: j + width] = np.linalg.solve(
            tri[:, :width], rhs[j: j + width] - tri[:, width:] @ x[j + width: j + width + e])
    quotient = Poly(x[:cols] * scale)
    return quotient, num - quotient * den


def exact_div(num: Poly, den: Poly, tol: float = 1e-9) -> Poly:
    """Quotient num/den, accepted only when the remainder is negligible.

    The quotient is that of :func:`lstsq_div`, whose remainder r = num - q*den
    is the least, in the 2-norm, that any quotient leaves.  It must satisfy
    max|r| <= tol * max|num| in the coefficient sup norm; otherwise
    InexactDivisionError is raised (a large remainder signals that den
    genuinely does not divide num).
    """
    q, r = lstsq_div(num, den)
    scale = max(float(np.abs(num.coeffs).max(initial=0.0)), 1e-300)
    rmax = float(np.abs(r.coeffs).max(initial=0.0))
    if rmax <= tol * scale:
        return q
    raise InexactDivisionError(
        f"remainder {rmax:.3e} exceeds {tol:.1e} * |num| (relative {rmax / scale:.3e})",
        remainder=r, relative=rmax / scale)


def eval_derivative(p: Poly, z0: complex, order: int = 0) -> complex:
    """Value of the order-th derivative at z0 (order 0 is plain evaluation)."""
    if order < 0:
        raise ValueError("derivative order must be >= 0")
    c = p.coeffs
    if order >= c.size:
        return 0j
    d = np.array(c[order:])
    # falling factorial k! / (k - order)! for k = order, order+1, ...
    for i in range(1, order + 1):
        d *= np.arange(i, d.size + i)
    val = 0j
    for ck in d[::-1]:
        val = val * z0 + ck
    return complex(val)


@dataclass(frozen=True)
class CircleZeroSpec:
    """Zero set on the unit circle: (angle, multiplicity) pairs plus a leading coefficient.

    Roots are specified by angle so |z_i| = 1 holds by construction; a
    floating root value would drift off the circle.  Angles are normalized
    into [0, 2*pi) and must be finite and pairwise distinct; a degree above
    the cap raises DegreeCapError before anything expands the product.
    """

    roots: tuple[tuple[float, int], ...]
    leading_coefficient: complex = 1.0 + 0j

    def __post_init__(self):
        norm = []
        for angle, mult in self.roots:
            if int(mult) != mult or mult < 1:
                raise ValueError("multiplicity must be a positive integer")
            if not math.isfinite(float(angle)):
                raise ValueError(f"root angle must be finite, got {angle!r}")
            norm.append((float(angle) % TWO_PI, int(mult)))
        if len({a for a, _ in norm}) != len(norm):
            raise ValueError("duplicate root angles")
        lead = complex(self.leading_coefficient)
        if lead == 0 or not np.isfinite(lead):
            raise ValueError("leading coefficient must be finite and nonzero")
        object.__setattr__(self, "roots", tuple(norm))
        object.__setattr__(self, "leading_coefficient", lead)
        if self.degree > MAX_DEGREE:
            raise DegreeCapError(f"circle zero spec of degree {self.degree} "
                                 f"exceeds the degree cap {MAX_DEGREE}")

    @property
    def degree(self) -> int:
        return sum(m for _, m in self.roots)

    @property
    def max_multiplicity(self) -> int:
        return max(m for _, m in self.roots)

    def with_simple_roots(self) -> "CircleZeroSpec":
        """Same zero set, all multiplicities reduced to 1, leading 1."""
        return CircleZeroSpec(tuple((a, 1) for a, _ in self.roots))


def expand(spec: CircleZeroSpec) -> Poly:
    """Coefficient expansion of leading * prod (z - exp(i*theta_i))**b_i.

    One convolution per unit of multiplicity; the first one whose product
    leaves the float range raises the ValueError of a non-finite Poly, so
    a single root of multiplicity 20000 (its coefficients overflow from
    about 1030 on) is refused at once rather than after 20000 convolutions.
    """
    c = np.array([spec.leading_coefficient], dtype=np.complex128)
    for angle, mult in spec.roots:
        root = complex(math.cos(angle), math.sin(angle))
        factor = np.array([-root, 1.0], dtype=np.complex128)
        for _ in range(mult):
            c = np.convolve(c, factor)
            if not np.isfinite(c).all():
                raise ValueError("polynomial coefficients must be finite")
    return Poly(c)


_ANGLE_RE = re.compile(r"^([+-]?\d*\.?\d*)\s*pi\s*(?:/\s*(\d+\.?\d*))?$")


def parse_angle(text: str) -> float:
    """Parse an angle given as a rational multiple of pi, normalized to [0, 2*pi).

    Accepts forms like ``0``, ``pi``, ``2pi``, ``pi/2``, ``3pi/4``, ``-pi/3``,
    or a plain float literal.
    """
    s = text.strip().lower().replace(" ", "")
    m = _ANGLE_RE.match(s)
    try:
        if not m:
            return float(s) % TWO_PI
        num = m.group(1)
        coeff = 1.0 if num in ("", "+") else -1.0 if num == "-" else float(num)
        return coeff * math.pi / float(m.group(2) or 1) % TWO_PI
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"cannot parse angle {text!r}") from None

