"""Outside-in span tracer for lpopa's layers.

The tracer wraps each layer's public functions from outside the program: it
rebinds every global of an ``lpopa`` module that is bound to a traced
function object (so ``lpopa.opa.norm``, ``lpopa.rates.solve_convex`` and
``lpopa.cli._dispatch`` are caught as well as the defining names), patches
``Poly.__mul__`` and ``Weight.values_up_to`` on their classes, and patches
``scipy.optimize.minimize`` on its module, which is how ``lpopa.opa`` calls
it.  ``uninstall`` restores every original.

A span is (name, start, end, parent, request id).  Spans stay in memory and
are written out when the run ends.  A function that calls itself records
only its outermost call.  A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import types
from collections import defaultdict
from time import perf_counter

# span name -> (module, attribute path).  Names are the metric prefixes.
TARGETS = {
    "cli.main": ("lpopa.cli", "main"),
    "rates.run_sweep": ("lpopa.rates", "run_sweep"),
    "rates.dispatch": ("lpopa.rates", "_dispatch"),
    "rates.lower_bound": ("lpopa.rates", "lower_bound"),
    "rates.fit_rates": ("lpopa.rates", "fit_rates"),
    "opa.solve_hilbert": ("lpopa.opa", "solve_hilbert"),
    "opa.closed_form_one_minus_zd": ("lpopa.opa", "closed_form_one_minus_zd"),
    "opa.solve_convex": ("lpopa.opa", "solve_convex"),
    "opa.solve_flat": ("lpopa.opa", "solve_flat"),
    "opa.solve_structural": ("lpopa.opa", "solve_structural"),
    "opa.bj_certificate": ("lpopa.opa", "bj_certificate"),
    "scipy.cholesky_banded": ("lpopa.opa", "cholesky_banded"),
    "scipy.minimize": ("scipy.optimize", "minimize"),
    "space.norm": ("lpopa.space", "norm"),
    "space.multiplication_bound_check": ("lpopa.space", "multiplication_bound_check"),
    "poly.Poly.mul": ("lpopa.poly", "Poly.__mul__"),
    "poly.signed_powers": ("lpopa.poly", "signed_powers"),
    "poly.exact_div": ("lpopa.poly", "exact_div"),
    "poly.expand": ("lpopa.poly", "expand"),
    "weights.values_up_to": ("lpopa.weights", "Weight.values_up_to"),
    "verification.run_verification": ("lpopa.verification", "run_verification"),
}

# Routes whose result carries iterations and a converged flag.
ITERATIVE = ("opa.solve_convex", "opa.solve_flat", "opa.solve_structural")
MARK = "__perfbench_original__"


def _resolve(module: str, path: str):
    obj = importlib.import_module(module)
    owner = obj
    for part in path.split("."):
        owner, obj = obj, getattr(obj, part)
    return owner, path.split(".")[-1], obj


def _max_iters(args, kwargs) -> int:
    from lpopa.opa import SolverOpts

    for value in (*args, *kwargs.values()):
        if isinstance(value, SolverOpts):
            return value.max_iters
    return SolverOpts().max_iters


class Tracer:
    """Install wrappers, record spans, and restore the originals."""

    def __init__(self):
        self.spans: list[list] = []        # [name, start, end, parent, request]
        self.outcome: dict[int, tuple] = {}  # span -> (iterations, converged, budget hit)
        self.raised: set[int] = set()
        self.request = None
        self._stack: list[int] = []
        self._active: set[str] = set()
        self._patches: list[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for name, (module, path) in TARGETS.items():
            owner, attr, original = _resolve(module, path)
            wrappers[id(original)] = self._wrap(name, original)
            if isinstance(owner, type) or owner.__name__.split(".")[0] != "lpopa":
                self._patch(owner, attr, original, wrappers[id(original)])
        # rebind every lpopa global and class attribute bound to a target
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod_name.split(".")[0] != "lpopa":
                continue
            for owner in [mod] + [v for v in vars(mod).values()
                                  if isinstance(v, type) and v.__module__ == mod_name]:
                for attr, value in list(vars(owner).items()):
                    wrapper = wrappers.get(id(value))
                    if wrapper is not None and getattr(owner, attr) is value:
                        self._patch(owner, attr, value, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        if any(o is owner and a == attr for o, a, _ in self._patches):
            return
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        spans, stack, active = self.spans, self._stack, self._active
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name in active:             # recursive call: outermost only
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else None, tracer.request]
            spans.append(span)
            stack.append(idx)
            active.add(name)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.raised.add(idx)
                raise
            finally:
                span[1], span[2] = start, perf_counter()
                stack.pop()
                active.discard(name)
            if name in ITERATIVE:
                res = result[0] if isinstance(result, tuple) else result
                tracer.outcome[idx] = (res.iterations, res.converged,
                                       res.iterations >= _max_iters(args, kwargs))
            return result

        setattr(wrapper, MARK, fn)
        return wrapper

    # -- results ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of every span, in seconds."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] is not None:
                own[s[3]] -= s[2] - s[1]
        return own

    def metrics(self, requests: int) -> dict[str, float]:
        """Per-layer metrics, with counts and times per request."""
        own = self.self_times()
        calls = defaultdict(int)
        self_ms = defaultdict(float)
        for s, t in zip(self.spans, own):
            calls[s[0]] += 1
            self_ms[s[0]] += t * 1e3
        children = defaultdict(set)
        for s in self.spans:
            if s[3] is not None:
                children[s[3]].add(s[0])
        requests = max(requests, 1)
        out = {}
        for name in TARGETS:
            out[f"{name}.calls"] = calls[name] / requests
            out[f"{name}.self_ms"] = self_ms[name] / requests
        out["cli.self_ms"] = out.pop("cli.main.self_ms")
        idx_of = defaultdict(list)
        for i, s in enumerate(self.spans):
            idx_of[s[0]].append(i)
        out["opa.solve_hilbert.raised"] = sum(
            1 for i in idx_of["opa.solve_hilbert"] if i in self.raised) / requests
        out["opa.solve_hilbert.seed_calls"] = sum(
            1 for i in idx_of["opa.solve_hilbert"]
            if self.spans[i][3] is not None
            and self.spans[self.spans[i][3]][0] in ITERATIVE) / requests
        for name in ITERATIVE:
            done = [self.outcome[i] for i in idx_of[name] if i in self.outcome]
            out[f"{name}.iterations"] = (sum(o[0] for o in done) / len(done)) if done else 0.0
            out[f"{name}.unconverged"] = sum(1 for o in done if not o[1]) / requests
            out[f"{name}.budget_hit_frac"] = (sum(1 for o in done if o[2]) / len(done)
                                              if done else 0.0)
        structural = idx_of["opa.solve_structural"]
        out["opa.solve_structural.fallback_frac"] = (
            sum(1 for i in structural if "opa.solve_convex" in children[i]) / len(structural)
            if structural else 0.0)
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def installed_wrappers() -> int:
    """Number of tracer wrappers bound anywhere the tracer patches."""
    owners = set()
    for mod_name, mod in list(sys.modules.items()):
        if mod is not None and mod_name.split(".")[0] == "lpopa":
            owners.add(mod)
            owners.update(v for v in vars(mod).values() if isinstance(v, type))
    owners.update(sys.modules[m] for m, _ in TARGETS.values() if m in sys.modules)
    return sum(1 for owner in owners for v in vars(owner).values()
               if isinstance(v, types.FunctionType) and MARK in v.__dict__)
