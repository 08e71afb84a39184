"""Coloring text format: every reader error with its message, the layouts
the reader accepts, each way out of the reader's exact-match check, and the
table-driven reader, writer and color matrix against their per-edge
references in ``brute``."""

import random
import re
import tracemalloc
from math import comb

import pytest

from antiramsey import EdgeColoring, all_edges, edge_index, parse_coloring, serialize_coloring
from antiramsey.colorings import _parse_written

from brute import (
    naive_color_matrix,
    naive_parse_coloring,
    naive_serialize_coloring,
    random_surjective_coloring,
)


@pytest.mark.parametrize("text, message", [
    ("", "empty coloring text"),
    ("3", "bad header line '3', expected 'n c'"),
    ("2 1 0", "bad header line '2 1 0', expected 'n c'"),
    ("2 x", "bad header line '2 x', expected integers"),
    ("3 1\n0 1 0\n0 2 0", "expected 3 edge lines, found 2"),
    ("2 1\n0 1 0\n1 0 0", "expected 1 edge lines, found 2"),
    ("2 1\n0 1", "bad coloring line '0 1'"),
    ("2 1\n0 1 0 0", "bad coloring line '0 1 0 0'"),
    ("2 1\n0 1 x", "bad coloring line '0 1 x'"),
    ("2 1\n0 1 5", "color 5 outside 0..0"),
    ("2 1\n0 1 -1", "color -1 outside 0..0"),
    ("2 1\n0 2 0", "(0,2) is not an edge of K_2"),
    ("2 1\n-1 1 0", "(-1,1) is not an edge of K_2"),
    ("2 1\n2 0 0", "(0,2) is not an edge of K_2"),
    ("3 1\n0 0 0\n0 1 0\n1 2 0", "(0,0) is not an edge of K_3"),
    ("3 2\n0 1 0\n1 0 1\n1 2 0", "edge (1,0) colored twice"),
    ("2 2\n0 1 0", "header says 2 colors, coloring uses 1"),
    ("3 3\n0 1 0\n0 2 2\n1 2 2", "color ids must be exactly 0..c-1, all used"),
])
def test_each_error_has_its_message(text, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_coloring(text)


@pytest.mark.parametrize("text, message", [
    # a bad color before a bad edge, and the reverse
    ("3 1\n0 1 7\n0 9 0\n1 2 0", "color 7 outside 0..0"),
    ("3 1\n0 9 0\n0 1 7\n1 2 0", "(0,9) is not an edge of K_3"),
    # a duplicate before a short line, and the reverse
    ("3 1\n0 1 0\n1 0 0\n1 2", "edge (1,0) colored twice"),
    ("3 1\n1 2\n0 1 0\n1 0 0", "bad coloring line '1 2'"),
    # within a line: fields, then color, then edge, then repeat
    ("2 1\n0 2 x", "bad coloring line '0 2 x'"),
    ("2 1\n0 2 5", "color 5 outside 0..0"),
    ("3 1\n0 1 0\n1 0 3\n1 2 0", "color 3 outside 0..0"),
])
def test_first_bad_line_wins(text, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_coloring(text)


def test_header_alone_sizes_nothing_by_n():
    # the line count is checked against C(n,2) before anything is sized by
    # n; a table for K_2000 would take tens of MB
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^expected 1999000 edge lines, found 0$"):
            parse_coloring("2000 1\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_color_count_must_match_the_host():
    with pytest.raises(ValueError, match=r"^need 3 colors for K_3, got 1$"):
        EdgeColoring(3, (0,))


def test_negative_host_is_rejected():
    with pytest.raises(ValueError):
        parse_coloring("-1 0\n")


K4 = EdgeColoring(4, (0, 1, 2, 2, 1, 0))


@pytest.mark.parametrize("text", [
    "4 3\n0 1 0\n0 2 1\n0 3 2\n1 2 2\n1 3 1\n2 3 0\n",
    "4 3\n2 3 0\n0 2 1\n1 3 1\n0 1 0\n1 2 2\n0 3 2\n",  # shuffled lines
    "4 3\n1 0 0\n2 0 1\n3 0 2\n2 1 2\n3 1 1\n3 2 0\n",  # v u orientation
    "  4\t 3 \n0  1\t0\n 0 2 1 \n0\t\t3  2\n1 2 2\n1 3 1\n2 3 0",  # runs of blanks
    "4 3\n\n0 1 0\n   \n0 2 1\n0 3 2\n\t\n1 2 2\n1 3 1\n2 3 0\n\n\n",  # blank lines
    "4 3\r\n0 1 0\r\n0 2 1\r\n0 3 2\r\n1 2 2\r\n1 3 1\r\n2 3 0\r\n",  # CRLF
], ids=["canonical", "shuffled", "reversed", "whitespace", "blank-lines", "crlf"])
def test_accepted_layouts(text):
    assert parse_coloring(text) == K4


@pytest.mark.parametrize("n", [0, 1])
def test_edgeless_hosts(n):
    coloring = parse_coloring(f"{n} 0\n")
    assert coloring == EdgeColoring(n, ())
    assert coloring.num_colors == 0
    assert serialize_coloring(coloring) == f"{n} 0\n"
    assert coloring.color_matrix() == [[-1]] * n


def test_serialized_text_is_canonical():
    assert serialize_coloring(K4) == "4 3\n0 1 0\n0 2 1\n0 3 2\n1 2 2\n1 3 1\n2 3 0\n"


def _two_set_test(colors):
    """The surjectivity test ``EdgeColoring`` made with a second set."""
    used = set(colors)
    return min(used) >= 0 and used == set(range(max(used) + 1))


def test_surjectivity_check_equals_the_two_set_test():
    rng = random.Random(2525)
    kinds = set()
    for _ in range(3000):
        n = rng.randrange(2, 8)
        lo = rng.choice([0, 0, 0, -1, -3])
        hi = lo + rng.choice([0, 1, 2, 3, comb(n, 2) + 1])
        colors = tuple(rng.randint(lo, hi) for _ in range(comb(n, 2)))
        used = set(colors)
        kinds.add("negative" if min(used) < 0 else
                  "gap" if max(used) >= len(used) else "surjective")
        kinds.add("repeat" if len(used) < len(colors) else "distinct")
        if _two_set_test(colors):
            assert EdgeColoring(n, colors).num_colors == len(used)
        else:
            with pytest.raises(ValueError, match=r"^color ids must be exactly 0\.\.c-1, all used$"):
                EdgeColoring(n, colors)
    assert kinds == {"negative", "gap", "surjective", "repeat", "distinct"}


def _written(text):
    """What the exact-match check reads from ``text``: None means the text
    goes on to the per-line reader."""
    try:
        return _parse_written(text)
    except (IndexError, ValueError):
        return None


_NON_ASCII = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                                         "\u0665\u0666\u0667\u0668\u0669")


def _exact_match_exits(rng, coloring):
    """A written text of ``coloring`` with one thing damaged, one text for
    each way out of the exact-match check that fits K_n."""
    n, c = coloring.n, coloring.num_colors
    lines = serialize_coloring(coloring).splitlines()
    texts = {}

    def put(kind, i, line):
        texts[kind] = "".join(f"{ln}\n" for ln in (*lines[:i], line, *lines[i + 1:]))

    def recolor(kind, col):
        i = rng.randrange(1, len(lines))
        u, v, _ = lines[i].split()
        put(kind, i, f"{u} {v} {col}")

    def respell(kind, spell, fits=lambda field: True):
        spots = [(i, j) for i, ln in enumerate(lines)
                 for j, field in enumerate(ln.split()) if fits(field)]
        if spots:
            i, j = rng.choice(spots)
            fields = lines[i].split()
            fields[j] = spell(fields[j])
            put(kind, i, " ".join(fields))

    if len(lines) > 1:
        recolor("color -1", -1)
        recolor("color c", c)
    put("header c+1", 0, f"{n} {c + 1}")
    put("header c-1", 0, f"{n} {c - 1}")
    respell("+3", lambda field: "+" + field)
    respell("03", lambda field: "0" + field)
    respell("1_0", "_".join, lambda field: len(field) > 1)
    respell("non-ASCII digit", lambda field: field.translate(_NON_ASCII))
    text = "".join(f"{ln}\n" for ln in lines)
    texts["no final newline"] = text[:-1]
    texts["CRLF"] = text.replace("\n", "\r\n")
    i = rng.randrange(len(lines))
    put("trailing space", i, lines[i] + " ")
    i = rng.randrange(1, len(lines) + 1)  # a blank first line is no header
    texts["extra blank line"] = "".join(f"{ln}\n" for ln in (*lines[:i], "", *lines[i:]))
    if len(lines) > 2:
        i, j = sorted(rng.sample(range(1, len(lines)), 2))
        swapped = [*lines]
        swapped[i], swapped[j] = lines[j], lines[i]
        texts["two lines swapped"] = "".join(f"{ln}\n" for ln in swapped)
    return texts


def test_each_exit_of_the_exact_match_check():
    # every damaged text leaves the exact-match check, and then reads as the
    # per-edge reference reads it: the same coloring or the same message
    rng = random.Random(2525)
    outcomes = {}
    for coloring in _random_colorings():
        for kind, text in _exact_match_exits(rng, coloring).items():
            assert _written(text) is None, (kind, text)
            try:
                expected = naive_parse_coloring(text)
            except ValueError as exc:
                with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                    parse_coloring(text)
                outcomes.setdefault(kind, set()).add("error")
            else:
                assert parse_coloring(text) == expected, (kind, text)
                outcomes.setdefault(kind, set()).add("ok")
    assert outcomes == {
        "color -1": {"error"}, "color c": {"error"},
        "header c+1": {"error"}, "header c-1": {"error"},
        "+3": {"ok"}, "03": {"ok"}, "1_0": {"ok"}, "non-ASCII digit": {"ok"},
        "no final newline": {"ok"}, "CRLF": {"ok"}, "trailing space": {"ok"},
        "extra blank line": {"ok"}, "two lines swapped": {"ok"},
    }


def _random_colorings():
    rng = random.Random(2424)
    return [random_surjective_coloring(rng, n, rng.randrange(1, 2 * n + 3))
            for n in range(25) for _ in range(4)]


def _damage(rng, n, lines):
    """One random edit, in place, to the lines of a coloring text of K_n."""
    if not lines:
        return
    i = rng.randrange(len(lines))
    fields = lines[i].split()
    edit = rng.randrange(0 if fields else 2, 6)  # a blank line has no field to edit
    if edit == 0:  # one field changed
        fields[rng.randrange(len(fields))] = rng.choice(
            ["x", "-1", str(n), str(n + 1), *map(str, range(4))])
        lines[i] = " ".join(fields)
    elif edit == 1:  # one field dropped or one added
        if rng.random() < 0.5:
            fields.pop(rng.randrange(len(fields)))
        else:
            fields.insert(rng.randrange(len(fields) + 1), str(rng.randrange(3)))
        lines[i] = " ".join(fields)
    elif edit == 2:  # one line overwritten by another
        lines[i] = lines[rng.randrange(1, len(lines))] if len(lines) > 1 else ""
    elif edit == 3:  # one line dropped or repeated
        if rng.random() < 0.5:
            lines.pop(i)
        else:
            lines.insert(i, lines[i])
    elif edit == 4:  # one edge line reversed
        lines[i] = " ".join([*fields[1::-1], *fields[2:]]) if i else lines[i]
    else:  # lines shuffled, a blank line added
        body = lines[1:]
        rng.shuffle(body)
        lines[1:] = [*body, "  "]


class TestAgainstPerEdgeReferences:
    def test_edge_index_is_the_rank(self):
        for n in range(41):
            for r, (u, v) in enumerate(all_edges(n)):
                assert edge_index(n, u, v) == edge_index(n, v, u) == r, (n, u, v)

    def test_round_trip(self):
        for coloring in _random_colorings():
            text = serialize_coloring(coloring)
            assert text == naive_serialize_coloring(coloring)
            assert _written(text) == coloring  # read by the exact-match check
            assert parse_coloring(text) == coloring == naive_parse_coloring(text)
            assert coloring.color_matrix() == naive_color_matrix(coloring)

    def test_damaged_text_gets_the_reference_answer(self):
        # one or two random edits to a valid text; either both readers raise
        # the same message, or both read the same coloring
        rng = random.Random(77)
        outcomes = set()
        for trial in range(4000):
            n = rng.randrange(0, 7)
            coloring = random_surjective_coloring(rng, n, rng.randrange(1, 6))
            lines = serialize_coloring(coloring).splitlines()
            for _ in range(1 + trial % 2):
                _damage(rng, n, lines)
            text = "\n".join(lines)
            try:
                expected = naive_parse_coloring(text)
            except ValueError as exc:
                with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                    parse_coloring(text)
                outcomes.add(str(exc).split()[0])
            else:
                assert parse_coloring(text) == expected, text
                outcomes.add("ok")
        # every check is reached
        assert outcomes >= {"ok", "empty", "bad", "expected", "color", "edge", "header"}
        assert any(o.startswith("(") for o in outcomes)
