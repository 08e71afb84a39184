"""The oracle pin table's layout and the re-pin tool's safety rule."""

import pytest

import repin

# two cheap rows, run once for these tests and the pin tests alike
P4, MATCHING = repin.pinned("P4-7"), repin.pinned("2P2-7")


def test_table_is_in_the_written_layout():
    # so that --write leaves it byte-identical when no node count moved
    rows = repin.load()
    assert repin.dump(rows) == repin.PINS.read_text(encoding="utf-8")
    assert len({repin.label(row) for row in rows}) == len(rows)


def _table(tmp_path, **changed):
    path = tmp_path / "pins.json"
    path.write_text(repin.dump([P4, {**MATCHING, **changed}]), encoding="utf-8")
    return path


@pytest.mark.parametrize("changed", [{"ar": 4}, {"witness": "1" * 21}])
def test_write_refuses_a_moved_ar_or_witness(tmp_path, changed):
    path = _table(tmp_path, nodes=0, **changed)
    before = path.read_bytes()
    assert repin.main(["--write"], path) == 1
    assert path.read_bytes() == before


def test_write_repins_a_moved_node_count_and_nothing_else(tmp_path):
    path = _table(tmp_path, nodes=0)
    assert repin.main(["--write"], path) == 0
    assert path.read_text(encoding="utf-8") == repin.dump([P4, MATCHING])


def test_check_reports_drift_in_the_ci_rows_only(tmp_path, capsys):
    assert repin.main([], _table(tmp_path, nodes=0)) == 0
    assert repin.main([], _table(tmp_path, nodes=0, ci=True)) == 1
    assert f"nodes 0 -> {MATCHING['nodes']}" in capsys.readouterr().out
