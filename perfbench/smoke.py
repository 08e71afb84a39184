"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload on a scaled-down case list (three passes, one of them
traced) and builds its reports.  Then swaps one library function at a time
for a wrong one and requires the benchmark's checks to catch it: an oracle
value below the expected table, an oracle node count that changes from pass
to pass, a rainbow copy in a certified-free coloring, a missed planted copy
and a wrong q_j.  Exits 0 when every run passes and every planted fault is
caught.
"""

from __future__ import annotations

import dataclasses
import itertools
import sys

from reference import CheckFailed
from run import end_to_end, per_layer, run_passes, setup
from workloads import WORKLOADS

SEED = 1


class Planted:
    """The library module with one public function replaced."""

    def __init__(self, lib, name: str, fn):
        self._lib, self._name, self._fn = lib, name, fn

    def __getattr__(self, attr):
        return self._fn if attr == self._name else getattr(self._lib, attr)


def one_color_short(lib):
    def fault(n, g, budget):
        r = lib.max_rainbow_free(n, g, budget)
        k = r.max_rainbow_free_colors
        if not r.conclusive or k < 2:
            return r
        # merging two colors keeps the witness rainbow-free, so only the
        # expected table can tell that the value is one too low
        merged = lib.EdgeColoring(n, tuple(min(c, k - 2) for c in r.witness.colors))
        return dataclasses.replace(r, max_rainbow_free_colors=k - 1, ar_exact=k, witness=merged)
    return fault


def drifting_nodes(lib):
    calls = itertools.count()

    def fault(n, g, budget):
        r = lib.max_rainbow_free(n, g, budget)
        return dataclasses.replace(r, nodes_explored=r.nodes_explored + next(calls))
    return fault


def q_one_less(lib):
    def fault(g, j):
        q = lib.q_cover(g, j)
        return dataclasses.replace(q, value=q.value - 1, witness=q.witness[:-1]) if q.value else q
    return fault


# (what is planted, workload, library function replaced, maker of the replacement)
FAULTS = [
    ("oracle value one too low", "oracle-exact", "max_rainbow_free", one_color_short),
    ("oracle node count drifts between passes", "oracle-exact", "max_rainbow_free",
     drifting_nodes),
    ("rainbow copy reported in a cover coloring", "rainbow-certify", "find_rainbow",
     lambda lib: lambda coloring, g: lib.Embedding(tuple(range(g.n)))),
    ("planted rainbow copy missed", "rainbow-find", "find_rainbow",
     lambda lib: lambda coloring, g: None),
    ("q_j one too low", "qcover-unions", "q_cover", q_one_less),
]


def main() -> int:
    bad = 0
    for name, cls in WORKLOADS.items():
        lib, inputs, setup_s = setup(cls, SEED, small=True)
        workload = cls(lib)
        passes = run_passes(workload, inputs, 0, trace=True)
        failed = sum(p["failed"] for p in passes)
        end_to_end(passes, setup_s)
        per_layer(passes, workload.input_counts(inputs))
        ok = failed == 0 and len(passes) == 3
        bad += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {len(inputs)} cases x {len(passes)} passes, "
              f"{failed} raised")

    for label, name, fn_name, make_fault in FAULTS:
        cls = WORKLOADS[name]
        lib, inputs, _ = setup(cls, SEED, small=True)
        try:
            run_passes(cls(Planted(lib, fn_name, make_fault(lib))), inputs, 0, trace=False)
        except CheckFailed as exc:
            print(f"ok   {name}: caught {label}: {exc}")
        else:
            bad += 1
            print(f"FAIL {name}: {label} went unnoticed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
