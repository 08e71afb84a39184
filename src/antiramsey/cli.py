"""Command-line surface: every capability scriptable, JSON on stdout.

Subcommands: formula, qcover, construct, rainbow, oracle, verify.  Human
logs go to stderr only; stdout carries a single JSON document so outputs are
byte-stable.  Only ``oracle`` emits a timing field; its --no-meta drops it.
``oracle`` logs its progress to stderr as JSON lines, one object
``{"nodes": N, "best": B, "nodes_per_s": R}`` every
``oracle.PROGRESS_INTERVAL`` nodes and one more when the search ends: the
nodes explored, the most colors found so far, and the nodes per second
since the command started, rounded to an integer.

One renderer turns results into JSON: a pattern becomes its family name
(``C3+2P2``, ``custom(n=3,m=2)``), an ``EdgeColoring`` its coloring text, a
``Fraction`` its exact string (``"70/3"``), any other dataclass an object
keyed by its field names, and a tuple a list.  Keys are sorted.

Exit codes: 0 success, 1 usage or input error, 2 infeasible host or
exhausted search budget (for verify: any row ``inconclusive`` or
``skipped-infeasible``, or no row ``ok``; ``skipped-small`` rows beside an
``ok`` row pass), 3 (verify) the exhaustive search breaks a closed form
flagged valid - an exact value it disagrees with, or a lower or upper bound
it falls outside - ahead of 2.  ``oracle`` and ``verify`` search each host
under ``--budget`` nodes (``oracle.DEFAULT_BUDGET`` if not given), and check
it before the host ceiling: a ``--budget`` below 1 exits 1 on any host, one
above the ceiling included.  A reversed range (``formula --grid 9..5``,
``verify --n-from 6 --n-to 3``) and a negative ``verify`` host
(``--n-from -3``) are input errors and exit 1, and so is a ``construct``
flag of the other mode (``--m`` with ``--mode lemma``, ``--r1`` or ``--s``
with ``--mode clique``), which writes no file.  A reader that closes
stdout early (``| head -c 100``) ends the command quietly with 141, the
code a shell gives a process that SIGPIPE ends (128 + 13), and no
``error:`` line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import fields, is_dataclass
from fractions import Fraction

from .colorings import EdgeColoring, parse_coloring, serialize_coloring
from .constructions import clique_coloring, cover_coloring
from .formulas import UnrecognizedFamilyError, ar_family
from .graphs import PatternSpec, family_name, parse_family, parse_graph
from .oracle import DEFAULT_BUDGET, InfeasibleHost, max_rainbow_free, verify_range
from .qcover import q_cover
from .rainbow import find_rainbow

USAGE_ERROR = 1
INFEASIBLE = 2
MISMATCH = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(USAGE_ERROR)


def _plain(x):
    """``x`` in JSON types, by the rules in the module docstring."""
    # pattern specs and colorings are dataclasses too, so they go first
    if isinstance(x, PatternSpec):
        return family_name(x)
    if isinstance(x, EdgeColoring):
        return serialize_coloring(x)
    if isinstance(x, Fraction):
        return str(x)
    if is_dataclass(x):
        return {f.name: _plain(getattr(x, f.name)) for f in fields(x)}
    if isinstance(x, (tuple, list)):
        return [_plain(v) for v in x]
    if isinstance(x, dict):
        return {k: _plain(v) for k, v in x.items()}
    return x


def _emit(obj) -> None:
    print(json.dumps(_plain(obj), sort_keys=True))


def _load_pattern(args):
    if getattr(args, "family", None):
        return parse_family(args.family)
    with open(args.graph, encoding="utf-8") as fh:
        return parse_graph(fh.read())


def _cmd_formula(args) -> int:
    spec = parse_family(args.family)
    if args.grid is not None:
        lo, _, hi = args.grid.partition("..")
        try:
            ns = range(int(lo), int(hi) + 1)
        except ValueError:
            ns = None
        if not ns:
            print(f"bad grid {args.grid!r}, expected 'N1..N2' with N1 <= N2",
                  file=sys.stderr)
            return USAGE_ERROR
        _emit([ar_family(n, spec) for n in ns])
    else:
        _emit(ar_family(args.n, spec))
    return 0


def _cmd_qcover(args) -> int:
    _emit(q_cover(_load_pattern(args), args.j))
    return 0


def _cmd_construct(args) -> int:
    lemma = args.mode == "lemma"
    given = {f"--{k}" for k in ("r1", "s", "m") if getattr(args, k) is not None}
    needs = {"--r1", "--s"} if lemma else {"--m"}
    if not needs <= given:
        print(f"--mode {args.mode} needs {' and '.join(sorted(needs))}",
              file=sys.stderr)
        return USAGE_ERROR
    if given - needs:
        print(f"--mode {args.mode} takes no {' or '.join(sorted(given - needs))}",
              file=sys.stderr)
        return USAGE_ERROR
    coloring = (cover_coloring(args.n, args.r1, args.s) if lemma
                else clique_coloring(args.n, args.m))
    text = serialize_coloring(coloring)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    _emit({"mode": args.mode, "n": args.n,
           "colors": coloring.num_colors, "out": args.out})
    return 0


def _cmd_rainbow(args) -> int:
    with open(args.coloring, encoding="utf-8") as fh:
        coloring = parse_coloring(fh.read())
    emb = find_rainbow(coloring, _load_pattern(args))
    _emit({"found": emb is not None, "map": None if emb is None else emb.map})
    return 0


def _cmd_oracle(args) -> int:
    spec = parse_family(args.family)
    start = time.perf_counter()

    def log_progress(nodes, best):
        rate = round(nodes / max(time.perf_counter() - start, 1e-9))
        print(json.dumps({"nodes": nodes, "best": best, "nodes_per_s": rate}),
              file=sys.stderr)

    result = max_rainbow_free(args.n, spec, args.budget, on_progress=log_progress)
    log_progress(result.nodes_explored, result.max_rainbow_free_colors)
    out = _plain(result)
    if args.no_meta:
        del out["elapsed"]
    _emit(out)
    return 0 if result.conclusive else INFEASIBLE


def _cmd_verify(args) -> int:
    spec = parse_family(args.family)
    report = verify_range(spec, args.n_from, args.n_to, args.budget)
    _emit(report)
    if report.mismatches:
        return MISMATCH
    statuses = {r.status for r in report.rows}
    if "ok" not in statuses or statuses - {"ok", "skipped-small"}:
        return INFEASIBLE
    return 0


def main(argv=None) -> int:
    parser = _Parser(prog="antiramsey",
                     description="anti-Ramsey bounds, colorings, and exact search")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("formula", help="evaluate the closed form for a family")
    p.add_argument("--family", required=True,
                   help="family text, e.g. P5, C4, 3P2, C3+2P2")
    hosts = p.add_mutually_exclusive_group(required=True)
    hosts.add_argument("--n", type=int)
    hosts.add_argument("--grid", help="evaluate over a range, e.g. 10..20")
    p.set_defaults(func=_cmd_formula)

    p = sub.add_parser("qcover", help="minimum vertices incident with all but <= j edges")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--family")
    src.add_argument("--graph", help="edge-list file")
    p.add_argument("--j", type=int, required=True)
    p.set_defaults(func=_cmd_qcover)

    p = sub.add_parser("construct", help="emit an extremal coloring file")
    p.add_argument("--mode", choices=["lemma", "clique"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r1", type=int, help="cover size (lemma mode)")
    p.add_argument("--s", type=int, help="inner color count (lemma mode)")
    p.add_argument("--m", type=int, help="clique size (clique mode)")
    p.add_argument("--out", required=True, help="output coloring file")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("rainbow", help="search a coloring for a rainbow pattern copy")
    p.add_argument("--coloring", required=True, help="coloring file")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--family")
    src.add_argument("--graph", help="edge-list file")
    p.set_defaults(func=_cmd_rainbow)

    budget_help = f"search node budget per host (default: {DEFAULT_BUDGET:,})"

    p = sub.add_parser("oracle", help="exact anti-Ramsey value by exhaustive search")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--budget", type=int, help=budget_help)
    p.add_argument("--no-meta", action="store_true",
                   help="drop the timing field for byte-stable output")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("verify", help="oracle vs closed form over an n range")
    p.add_argument("--family", required=True)
    p.add_argument("--n-from", type=int, required=True)
    p.add_argument("--n-to", type=int, required=True)
    p.add_argument("--budget", type=int, help=budget_help)
    p.set_defaults(func=_cmd_verify)

    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader has gone: send what is left in the buffer, which the
        # interpreter flushes at exit, nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except InfeasibleHost as exc:  # a ValueError, but not an input error
        print(exc, file=sys.stderr)
        return INFEASIBLE
    except (UnrecognizedFamilyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
