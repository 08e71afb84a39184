"""The pinned oracle results in data/oracle_pins.json, and their re-pin tool.

``PYTHONPATH=src python tests/repin.py`` checks the ci rows and exits 1,
printing old -> new, on any drift.  With --write it reruns every row and
rewrites the node counts only: a sound bound never moves a maximum or the
witness (the first optimum in search order), so if an AR or a witness moves,
or a row goes inconclusive, it writes nothing and exits 1.  README.md
describes the table's columns.
"""

import argparse
import json
import sys
from functools import cache
from pathlib import Path

from antiramsey import find_rainbow, max_rainbow_free, oracle, parse_family

PINS = Path(__file__).resolve().parent / "data" / "oracle_pins.json"


def load(path=PINS):
    return json.loads(path.read_text(encoding="utf-8"))


def dump(rows):
    return "[\n" + ",\n".join(f"  {json.dumps(row)}" for row in rows) + "\n]\n"


def label(row):
    return f"{row['family']}-{row['n']}"


def pinned(name):
    return next(row for row in load() if label(row) == name)


def run(row):
    # cached, so tests share one run per case; a test that caps the memo
    # gets a run of its own
    return _run(row["family"], row["n"], row["budget"], oracle._MEMO_CAP)


@cache
def _run(family, n, budget, _memo_cap):
    ceiling = oracle.HARD_CEILING
    oracle.HARD_CEILING = max(ceiling, n)
    try:
        return max_rainbow_free(n, parse_family(family), node_budget=budget)
    finally:
        oracle.HARD_CEILING = ceiling


def observed(row):
    """The row as the oracle gives it today, AR None if inconclusive; the
    witness must have AR - 1 colors and no rainbow copy."""
    r = run(row)
    w = r.witness
    assert w.num_colors == r.max_rainbow_free_colors, label(row)
    assert find_rainbow(w, parse_family(row["family"])) is None, label(row)
    return {**row, "ar": r.ar_exact, "nodes": r.nodes_explored,
            "witness": "".join("0123456789abcdefghijklmnopqrstuvwxyz"[c] for c in w.colors)}


def main(argv=None, path=PINS):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="rerun every row and rewrite the node counts")
    write = parser.parse_args(argv).write
    rows = load(path)
    drifted = moved = False
    for i, row in enumerate(rows):
        if write or row["ci"]:
            now = observed(row)
            print(f"{label(row)}: AR {now['ar']} in {now['nodes']:,} nodes, "
                  f"{run(row).elapsed:.1f} s")
            for key in ("ar", "nodes", "witness"):
                if now[key] != row[key]:
                    print(f"  {key} {row[key]} -> {now[key]}")
            drifted |= now != row
            moved |= (now["ar"], now["witness"]) != (row["ar"], row["witness"])
            rows[i] = {**row, "nodes": now["nodes"]}
    if write and moved:
        print("an AR or a witness moved, or a row went inconclusive: nothing written")
    elif write:
        path.write_text(dump(rows), encoding="utf-8")
    return int(moved if write else drifted)


if __name__ == "__main__":
    sys.exit(main())
