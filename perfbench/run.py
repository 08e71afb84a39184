"""Benchmark of the antiramsey library: one workload, one process, one thread.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the library is imported from its
``src/`` directory, never from an installed copy.  The workload's fixed
case list is made from the seed and run as a closed loop with one caller,
pass after pass, for about ``--seconds`` (at least three passes).
Every answer is checked outside the timed calls and a wrong answer aborts
the run with exit code 1.  The passes must agree exactly: same answers,
node counts and witnesses.

stdout carries a readable report and, as its last line, one JSON object:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
The traced run alternates untraced and traced passes, writes every span of
the traced ones to ``perfbench/out/`` and derives each layer's self time.
See perfbench/README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import random
import resource
import statistics
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

from reference import CheckFailed
from spans import Recorder, self_times, write_spans
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

SETUP_TRIALS = 7
MIN_PASSES = 3
LAYERS = ("graphs", "colorings", "formulas", "qcover", "constructions", "rainbow", "oracle")


def load_library():
    """Import ``antiramsey`` afresh from this checkout's ``src/``."""
    init = SRC / "antiramsey" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: no library source at {init}")
    for name in [m for m in sys.modules if m == "antiramsey" or m.startswith("antiramsey.")]:
        del sys.modules[name]
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    lib = importlib.import_module("antiramsey")
    if Path(lib.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported antiramsey from {lib.__file__}, not {init}")
    return lib


def setup(workload_cls, seed: int, small: bool = False):
    """Import the library and make the inputs, several times over; returns
    the last library and inputs with the median set-up time."""
    times = []
    for _ in range(SETUP_TRIALS):
        t0 = perf_counter()
        lib = load_library()
        inputs = workload_cls.make_inputs(random.Random(seed), small)
        times.append(perf_counter() - t0)
    return lib, inputs, statistics.median(times)


def run_pass(workload, inputs, traced: bool) -> dict:
    """Run and check every case once."""
    rec = Recorder(traced)
    tally: Counter = Counter()
    digest = hashlib.sha256()
    case_s = []
    failed = 0
    t_pass = perf_counter()
    for case_id, case in enumerate(inputs):
        span = rec.open("bench.case", case_id)
        t0 = perf_counter()
        try:
            answer = workload.run(rec, case)
        except Exception:  # a case that raises is counted and reported, not checked
            case_s.append(perf_counter() - t0)
            failed += 1
            if failed == 1:
                print(f"perfbench: case {case_id} {case!r:.200} raised:\n{traceback.format_exc()}",
                      file=sys.stderr)
            rec.close(span)
            continue
        case_s.append(perf_counter() - t0)
        check = rec.open("bench.check", case_id)
        digest.update(repr(workload.check(case, answer, tally)).encode())
        rec.close(check)
        rec.close(span)
    return {"wall": perf_counter() - t_pass, "case_s": case_s, "failed": failed,
            "tally": tally, "digest": digest.hexdigest(), "spans": rec.spans}


def run_passes(workload, inputs, seconds: float, trace: bool) -> list[dict]:
    """Pass after pass until ``seconds`` have gone by, starting no pass that
    would end past them once MIN_PASSES are done.  With ``trace`` every
    second pass is traced.  Raises CheckFailed when a pass's answers, node
    counts or witnesses differ from the first pass's."""
    passes = []
    t_start = perf_counter()
    while True:
        passes.append(run_pass(workload, inputs, trace and len(passes) % 2 == 1))
        if passes[-1]["digest"] != passes[0]["digest"] or passes[-1]["tally"] != passes[0]["tally"]:
            raise CheckFailed(f"pass {len(passes)} gave other answers than pass 1")
        elapsed = perf_counter() - t_start
        if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def percentile(values, q: float) -> float:
    """Inclusive-method quantile ``q`` of the values (0 for no values)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def end_to_end(passes, setup_s: float) -> dict:
    """Each case's time is its 90th percentile over the passes; wall_s sums
    these times (checks excluded) and the percentiles are taken over them.

    On a shared machine a pass runs up to 1.9x slower while a neighbour
    shares the core.  That slow state shows up in nearly every run, at a
    steady level, and a high per-case quantile tracks it; the fast spells
    come and go, so medians and minima jump between runs.  Across ten seeds
    the quartile spread of wall_s was 0.05-0.11 this way, against 0.13-0.26
    for per-case medians."""
    per_case = [statistics.quantiles(ts, n=10, method="inclusive")[-1]
                for ts in zip(*(p["case_s"] for p in passes))]
    return {
        "wall_s": (sum(per_case), "s"),
        "case_p50_ms": (1000 * percentile(per_case, 0.50), "ms"),
        "case_p95_ms": (1000 * percentile(per_case, 0.95), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def failed_frac(p) -> float:
    """Share of cases that raised or ran out of their node budget."""
    return (p["failed"] + p["tally"]["oracle.inconclusive"]) / len(p["case_s"])


def per_layer(passes, input_counts) -> dict:
    """Per-layer counts and self times from the traced passes (times are
    medians over the traced passes, latency percentiles pool their calls).
    ``input_counts`` holds untimed properties of the inputs."""
    traced = [p for p in passes if p["spans"] is not None]
    plain = [p for p in passes if p["spans"] is None]
    rows = []
    calls: dict[str, list[float]] = {}
    for p in traced:
        row = Counter()
        for (name, t0, t1, _, _, none), own in zip(p["spans"], self_times(p["spans"])):
            layer = name.split(".", 1)[0]
            if layer == "bench":
                row[f"{name}_s"] += own  # bench.check_s; bench.case_s is harness overhead
                continue
            row[f"{layer}.calls"] += 1
            row[f"{layer}.self_s"] += own
            if name == "rainbow.find_rainbow":
                row["rainbow.none_s" if none else "rainbow.found_s"] += t1 - t0
                row["rainbow.none" if none else "rainbow.found"] += 1
            if layer in ("rainbow", "qcover"):
                calls.setdefault(layer, []).append(1000 * (t1 - t0))
        row["bench.traced_wall_s"] = p["wall"]
        rows.append(row)

    def med(key):
        return statistics.median(r[key] for r in rows)

    tally = passes[0]["tally"]
    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = (rows[0][f"{layer}.calls"], "count")
        m[f"{layer}.self_s"] = (med(f"{layer}.self_s"), "s")
    for key in ("rainbow.found", "rainbow.none"):
        m[key] = (rows[0][key], "count")
    for key in ("rainbow.found_s", "rainbow.none_s"):
        m[key] = (med(key), "s")
    for layer in ("rainbow", "qcover"):
        m[f"{layer}.call_p50_ms"] = (percentile(calls.get(layer, []), 0.50), "ms")
        m[f"{layer}.call_p95_ms"] = (percentile(calls.get(layer, []), 0.95), "ms")
    m["qcover.call_max_ms"] = (max(calls.get("qcover", [0.0])), "ms")
    oracle_s = m["oracle.self_s"][0]
    m["oracle.nodes"] = (tally["oracle.nodes"], "count")
    m["oracle.nodes_per_s"] = (tally["oracle.nodes"] / oracle_s if oracle_s else 0.0, "1/s")
    m["oracle.inconclusive"] = (tally["oracle.inconclusive"], "count")
    m["oracle.placements"] = (input_counts["oracle.placements"], "count")
    m["colorings.bytes"] = (tally["colorings.bytes"], "bytes")
    m["formulas.mismatches"] = (tally["formulas.mismatches"], "count")
    m["bench.failed_frac"] = (failed_frac(passes[0]), "fraction")
    m["bench.check_s"] = (med("bench.check_s"), "s")
    m["bench.traced_wall_s"] = (med("bench.traced_wall_s"), "s")
    m["bench.accounted_frac"] = (statistics.median(
        (sum(r[f"{layer}.self_s"] for layer in LAYERS) + r["bench.check_s"]) / r["bench.traced_wall_s"]
        for r in rows), "fraction")
    m["bench.trace_overhead_frac"] = (  # timed case work only, so check set-up does not count
        statistics.median(sum(p["case_s"]) for p in traced)
        / statistics.median(sum(p["case_s"]) for p in plain) - 1, "fraction")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    cls = WORKLOADS[args.workload]
    lib, inputs, setup_s = setup(cls, args.seed)
    workload = cls(lib)
    try:
        passes = run_passes(workload, inputs, args.seconds, bool(args.trace))
    except CheckFailed as exc:
        print(f"perfbench: WRONG ANSWER on {args.workload} (seed {args.seed}): {exc}",
              file=sys.stderr)
        return 1

    first = passes[0]
    attempted = sum(len(p["case_s"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)}  cases/pass {len(inputs)}  answers {first['digest'][:16]}")
    print("  pass_s " + " ".join(f"{sum(p['case_s']):.4f}" for p in passes))
    print(f"  oracle_nodes {first['tally']['oracle.nodes']} count  "
          f"failed_frac {failed_frac(first):.6f}  "
          f"formula_mismatches {first['tally']['formulas.mismatches']} count")
    if args.trace:
        metrics = per_layer(passes, workload.input_counts(inputs))
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{args.workload}-seed{args.seed}.tsv"
        write_spans(path, [p["spans"] for p in passes if p["spans"] is not None])
        print(f"  spans written to {path.relative_to(HERE.parent)}")
    else:
        metrics = end_to_end(passes, setup_s)
    for name, (value, unit) in metrics.items():
        shown = f"{value:.6g}" if isinstance(value, float) else value
        samples = f"  ({len(inputs)} cases)" if name.startswith("case_p") else ""
        print(f"  {name} {shown} {unit}{samples}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
