"""Coloring text format: every reader error with its message, the layouts
the reader accepts, and the table-driven reader, writer and color matrix
against their per-edge references in ``brute``."""

import random
import re
import tracemalloc

import pytest

from antiramsey import EdgeColoring, all_edges, edge_index, parse_coloring, serialize_coloring

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
