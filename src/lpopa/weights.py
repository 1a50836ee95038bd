"""Admissible weight sequences for weighted analytic sequence spaces.

A weight is a sequence of positive reals w_0 = 1, w_1, w_2, ... subject to
two growth conditions: a doubling bound C^-1 w_k <= w_{k+t} <= C w_k for
0 <= t <= k+1, and consecutive ratios w_{k+1}/w_k -> 1.  Two kinds are
supported:

* ``power``: w_k = (k+1)**alpha, the standard scale of spaces,
* ``table``: explicit values plus a tail rule for indices past the table.

:func:`table_weight` checks that the values are finite and positive with
w_0 = 1, and :func:`doubling_constant_for` reads C off the values; no
finite check certifies the ratio limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AdmissibilityError

_TAIL_RULES = ("constant", "power")


@dataclass(frozen=True)
class Weight:
    """Immutable positive weight sequence with w_0 = 1.

    Use the :func:`power_weight` and :func:`table_weight` constructors
    rather than instantiating directly.
    """

    kind: str
    alpha: float | None = None
    values_table: tuple[float, ...] | None = None
    tail: str = "constant"
    declared_doubling: float | None = field(default=None, compare=False)

    def at_indices(self, idx) -> np.ndarray:
        """Weight values at an integer index array (vectorized)."""
        idx = np.asarray(idx, dtype=np.int64)
        if idx.size and idx.min() < 0:
            raise ValueError("weight index must be >= 0")
        # inf past the float range: a norm that reads it is not finite, never certified
        with np.errstate(over="ignore"):
            if self.kind == "power":
                return (idx + 1.0) ** self.alpha
            vals = np.asarray(self.values_table, dtype=float)
            length = len(vals)
            out = np.empty(idx.shape, dtype=float)
            inside = idx < length
            out[inside] = vals[idx[inside]]
            if not inside.all():
                k = idx[~inside]
                if self.tail == "constant":
                    out[~inside] = vals[-1]
                else:
                    out[~inside] = vals[-1] * ((k + 1.0) / length) ** self._tail_alpha()
            return out

    def _tail_alpha(self) -> float:
        """The exponent of the last two values; their ratio may underflow, their logs do not."""
        vals = self.values_table
        length = len(vals)
        return (math.log(vals[-1]) - math.log(vals[-2])) / math.log(length / (length - 1))

    def at(self, k: int) -> float:
        return float(self.at_indices(np.array([k]))[0])

    def values_up_to(self, last_index: int) -> np.ndarray:
        """Values w_0 .. w_last as an array of length last_index + 1."""
        return self.at_indices(np.arange(last_index + 1))

    def pointwise_power(self, exponent: float) -> "Weight":
        """The weight k -> w_k**exponent (w_0 stays 1)."""
        if self.kind == "power":
            return power_weight(self.alpha * exponent)
        vals = tuple(v ** exponent for v in self.values_table)
        return Weight(kind="table", values_table=vals, tail=self.tail)

    def __repr__(self) -> str:
        if self.kind == "power":
            return f"Weight(power, alpha={self.alpha})"
        return f"Weight(table, len={len(self.values_table)}, tail={self.tail!r})"


def power_weight(alpha: float) -> Weight:
    """The weight w_k = (k+1)**alpha; alpha must be finite."""
    if not math.isfinite(float(alpha)):
        raise ValueError(f"alpha must be finite, got {alpha!r}")
    return Weight(kind="power", alpha=float(alpha))


def table_weight(values, tail: str = "constant",
                 declared_doubling: float | None = None) -> Weight:
    """Weight from explicit values with a tail rule past the table.

    ``tail="constant"`` freezes the last value; ``tail="power"`` extrapolates
    with the exponent implied by the last two values (needs >= 2 entries).
    An optional declared doubling constant is validated lazily by
    :func:`doubling_constant_for`.
    """
    vals = tuple(float(v) for v in values)
    if not vals:
        raise ValueError("table weight needs at least one value")
    if not all(0 < v < math.inf for v in vals):
        raise ValueError("weight values must be finite and strictly positive")
    if abs(vals[0] - 1.0) > 1e-12:
        raise ValueError("weight must start at w_0 = 1")
    if tail not in _TAIL_RULES:
        raise ValueError(f"unknown tail rule {tail!r}; expected one of {_TAIL_RULES}")
    if tail == "power" and len(vals) < 2:
        raise ValueError("power tail needs at least two table values")
    if declared_doubling is not None and declared_doubling <= 0:
        raise ValueError("doubling constant must be positive")
    return Weight(kind="table", values_table=vals, tail=tail,
                  declared_doubling=declared_doubling)


def _doubling_ratio(vals: np.ndarray, k: int) -> float:
    """Max of w_{k+t}/w_k and w_k/w_{k+t} over 0 <= t <= k+1; at least 1 (t = 0)."""
    window = vals[k:2 * k + 2]
    return max(window.max() / vals[k], vals[k] / window.min())


def doubling_constant_for(w: Weight) -> float:
    """A valid doubling constant C for the weight, computed on every call.

    Power weights get the sharp 2**|alpha|; a table weight its declared
    constant, else the largest :func:`_doubling_ratio` over k <= max(256,
    twice the table length), and AdmissibilityError if its values exceed
    the declared constant there.
    """
    if w.kind == "power":
        return 2.0 ** abs(w.alpha)
    k_max = max(256, 2 * len(w.values_table))
    vals = w.values_up_to(2 * k_max + 1)
    empirical = max(_doubling_ratio(vals, k) for k in range(k_max + 1))
    if w.declared_doubling is not None and empirical > w.declared_doubling * (1 + 1e-12):
        raise AdmissibilityError(
            f"weight violates its declared doubling constant "
            f"{w.declared_doubling} on the explicit range (observed {empirical:.6g})")
    return w.declared_doubling if w.declared_doubling is not None else empirical


def weight_from_config(spec: dict) -> Weight:
    """Build a weight from its JSON form.

    ``{"kind": "power", "alpha": 0.5}`` or
    ``{"kind": "table", "values": [...], "tail": "power"}`` with an optional
    ``"doubling_constant"`` entry for table weights.  Malformed entries raise
    ValueError.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError("weight config must be an object with a 'kind' entry")
    kind = spec["kind"]
    try:
        if kind == "power":
            return power_weight(float(spec["alpha"]))
        if kind == "table":
            return table_weight(spec["values"], tail=spec.get("tail", "constant"),
                                declared_doubling=spec.get("doubling_constant"))
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed {kind} weight config: {exc!r}") from None
    raise ValueError(f"unknown weight kind {kind!r}")
