"""Workload definitions: the request grids and the seeded request generator.

A request is the argument list of one ``lpopa`` command line, run in-process
through ``lpopa.cli.main``.  The ``(f, p, n)`` grid of every workload is
fixed; the workload seed draws the order in which each cell takes the
alphas of its workload (one per pass) and shuffles the order of every pass.
A ``verify`` pass runs a fixed battery of seeds in that shuffled order.

``FULL_GRIDS`` is the grid each workload was designed around.  The requests
in it that lpopa 0.1.0 fails on, or answers wrongly, are listed in
``KNOWN_FAILURES`` and left out of the timed grid, because every request of
a benchmark run has to succeed; ``known_failures.py`` re-runs them.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

# CLI spellings of the five problem polynomials.
POLYS = {
    "1-z": ["--coeffs", "1,-1"],                          # 1 - z
    "z1sq_zp1": ["--roots", "0:2,pi:1"],                  # (z-1)^2 (z+1)
    "three": ["--roots", "0:1,pi/2:1,3pi/2:1"],           # (1-z)(1+z^2)
    "z1_4": ["--roots", "0:4"],                           # (z-1)^4
    "cplx": ["--coeffs", "1,0.5-1i,-0.5i"],               # (1-iz)(1+z/2)
}

# Ascending coefficients of the same polynomials, for the reference
# computations, which must not go through lpopa.  They match the --roots
# spelling, which normalizes f(0) = 1.
COEFFS = {
    "1-z": [1, -1],
    "z1sq_zp1": [1, -1, -1, 1],
    "three": [1, -1, 1, -1],
    "z1_4": [1, -4, 6, -4, 1],
    "cplx": [1, 0.5 - 1j, -0.5j],
}

SWEEP_ORDERS = (64, 128, 256, 512, 1024, 2048, 4096)
VERIFY_SEED_POOL = 64          # known_failures.py checks range(64)
VERIFY_BATTERY = tuple(range(8))   # the battery seeds of every verify pass
SWEEP_COPIES = 3               # each sweep (f, p) pair runs 3 times per pass

WORKLOADS = ("sweep_large_n", "smooth_mid_n", "flat_endpoints", "verify")


@dataclass(frozen=True)
class Request:
    """One command plus what the checker needs to know about it."""

    workload: str
    f: str | None
    p: str | None
    alpha: str | None
    n: int | None              # None for sweeps and verify
    argv: tuple[str, ...]

    @property
    def orders(self) -> tuple[int, ...]:
        return SWEEP_ORDERS if self.argv[0] == "sweep" else (self.n,)


def make_request(workload: str, f: str | None, p: str | None, alpha: str | None,
                 n: int | None, battery_seed: int | None = None) -> Request:
    if workload == "verify":
        argv = ["verify", "--quick", "--seed", str(battery_seed)]
    elif workload == "sweep_large_n":
        argv = ["sweep", *POLYS[f], "--p", p, "--alpha", alpha,
                "--n", f"{SWEEP_ORDERS[0]}..{SWEEP_ORDERS[-1]}", "--solver", "auto"]
    else:
        argv = ["compute", *POLYS[f], "--p", p, "--alpha", alpha, "--n", str(n),
                "--solver", "auto"]
    return Request(workload, f, p, alpha, n, tuple(argv))


_A3 = ("-0.5", "0", "0.5")
_F3 = ("0", "0.5", "1")

# workload -> (cells (f, p, n), alpha set).  n is None for sweeps.
FULL_GRIDS = {
    "sweep_large_n": (
        [*itertools.product(["z1sq_zp1", "three", "z1_4", "cplx"], ["2"], [None]),
         *itertools.product(["1-z"], ["1.2", "1.5", "2", "3"], [None])], _A3),
    "smooth_mid_n": (
        [*itertools.product(["z1sq_zp1", "three", "z1_4", "cplx"], ["1.2", "1.5", "3"], [16, 32])],
        _A3),
    "flat_endpoints": (
        [*itertools.product(["1-z", "z1sq_zp1", "three", "cplx"], ["1", "inf"], [16, 64, 128])],
        _F3),
}

# The cheapest request of each workload, (f, p, alpha, n, battery seed); it
# is sent first by every fresh worker and ends the set-up interval.
SETUP_REQUESTS = {
    "sweep_large_n": ("1-z", "2", "0", None),
    "smooth_mid_n": ("cplx", "3", "0", 16),
    "flat_endpoints": ("1-z", "1", "0", 16),
    "verify": (None, None, None, None, 0),
}

# (workload, f, p, n, alpha) -> why lpopa 0.1.0 fails the request, as
# reported by known_failures.py; README.md has the details.
_HILBERT = "solve_hilbert raises IllConditionedError from n=1024 on; exit 3"
_LBFGS = "solve_convex uses its whole 10,000-iteration L-BFGS budget; exit 3"
_SUBGRADIENT = "solve_flat uses its whole 10,000-step budget; exit 3"
_ABOVE_ONE = "solve_flat returns a norm above the zero approximant's 1"


def _fails(workload, fs, ps, ns, alphas, reason):
    return {(workload, f, p, n, a): reason
            for f, p, n, a in itertools.product(fs, ps, ns, alphas)}


KNOWN_FAILURES: dict[tuple, str] = {
    **_fails("sweep_large_n", ["z1_4"], ["2"], [None], _A3, _HILBERT),
    **_fails("smooth_mid_n", ["z1sq_zp1"], ["1.2"], [32], _A3, _LBFGS),
    **_fails("smooth_mid_n", ["z1_4"], ["1.2"], [16, 32], _A3, _LBFGS),
    **_fails("smooth_mid_n", ["z1_4"], ["1.5", "3"], [32], _A3, _LBFGS),
    **_fails("flat_endpoints", ["1-z", "cplx"], ["1"], [16, 64, 128], ("0.5", "1"),
             _SUBGRADIENT),
    **_fails("flat_endpoints", ["z1sq_zp1", "three"], ["1", "inf"], [16, 64, 128], _F3,
             _SUBGRADIENT),
    **_fails("flat_endpoints", ["cplx"], ["1"], [16, 64, 128], ["0"], _ABOVE_ONE),
    **_fails("flat_endpoints", ["cplx"], ["inf"], [64], ["0", "0.5"], _SUBGRADIENT),
    **_fails("flat_endpoints", ["cplx"], ["inf"], [128], _F3, _SUBGRADIENT),
}


def timed_cells(workload: str) -> list[tuple[str, str, int | None, tuple[str, ...]]]:
    """Cells of the timed grid, each with the alphas it may be drawn with."""
    cells, alphas = FULL_GRIDS[workload]
    out = []
    for f, p, n in cells:
        ok = tuple(a for a in alphas
                   if (workload, f, p, n, a) not in KNOWN_FAILURES)
        if ok:
            out.append((f, p, n, ok))
    return out


def full_grid_requests(workload: str) -> list[Request]:
    """Every distinct request of a workload's full grid (one per cell and alpha)."""
    if workload == "verify":
        return [make_request("verify", None, None, None, None, s)
                for s in range(VERIFY_SEED_POOL)]
    cells, alphas = FULL_GRIDS[workload]
    return [make_request(workload, f, p, a, n) for f, p, n in cells for a in alphas]


class RequestStream:
    """Seeded source of passes over a workload's timed grid.

    Each cell visits its alphas in a seeded order, one per pass, so every
    block of ``block`` consecutive passes holds each (cell, alpha) request
    of the timed grid equally often; a sweep pair's SWEEP_COPIES requests in
    one pass take its three alphas.  The order within a pass is shuffled.
    """

    def __init__(self, workload: str, seed: int):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
        self.workload, self.seed = workload, seed
        self.rng = random.Random(f"{workload}:{seed}")
        self.cells = [] if workload == "verify" else timed_cells(workload)
        self.copies = SWEEP_COPIES if workload == "sweep_large_n" else 1
        self.alpha_orders = [self.rng.sample(alphas, len(alphas))
                             for _, _, _, alphas in self.cells]
        self.block = math.lcm(*(len(o) // math.gcd(len(o), self.copies)
                                for o in self.alpha_orders))
        self.passes = 0

    def setup_request(self) -> Request:
        """The workload's smallest request, which ends the set-up interval."""
        return make_request(self.workload, *SETUP_REQUESTS[self.workload])

    def block_requests(self) -> list[Request]:
        """Every request of one block, as often as the block sends it.

        The list does not depend on the seed, which only orders it.
        """
        if self.workload == "verify":
            return [make_request("verify", None, None, None, None, s)
                    for s in VERIFY_BATTERY]
        per_block = self.block * self.copies
        return [make_request(self.workload, f, p, a, n)
                for f, p, n, alphas in self.cells
                for a in alphas for _ in range(per_block // len(alphas))]

    def next_pass(self) -> list[Request]:
        """One pass: every cell once (a sweep pair SWEEP_COPIES times), shuffled."""
        if self.workload == "verify":
            reqs = self.block_requests()
        else:
            k = self.passes * self.copies
            reqs = [make_request(self.workload, f, p, order[(k + i) % len(order)], n)
                    for (f, p, n, _), order in zip(self.cells, self.alpha_orders)
                    for i in range(self.copies)]
        self.passes += 1
        self.rng.shuffle(reqs)
        return reqs
