"""tools/same_numbers.py: the summary comparison that decides a violation."""

import pytest

from conftest import load_by_path


@pytest.fixture(scope="module")
def compare_summaries():
    return load_by_path("tools/same_numbers.py")["compare_summaries"]


def summary(distances, ratios, **extra):
    return {"timestamp": "t", "picard": {"distances": distances, "ratios": ratios}, **extra}


def test_ratio_of_round_off_distances_may_move(compare_summaries, capsys):
    # two Picard distances near 1e-12, inside the 10 tol = 1e-9 band each is
    # allowed: their ratio is round-off, and moved 2.7e-6 relative in a
    # change that only reordered a dense factorization
    d = [2.0e-6, 3.0e-11, 1.1e-12]
    r = [d[1] / d[0], d[2] / d[1]]
    moved = [r[0], r[1] * (1 + 2.7e-6)]
    assert abs(moved[1] - r[1]) > 10 * 1e-10  # beyond the plain float bound
    assert compare_summaries(summary(d, r), summary(d, moved), 1e-10) == []
    assert "moved picard.ratios[1]" in capsys.readouterr().out


def test_ratio_of_resolved_distances_may_not_move(compare_summaries):
    d = [1.0e-2, 5.0e-4]
    violations = compare_summaries(summary(d, [0.05]), summary(d, [0.5]), 1e-10)
    assert violations == ["picard.ratios[0] moved"]


def test_removed_key_is_a_violation(compare_summaries):
    parent = summary([1.0, 0.1], [0.1], status="ok")
    change = summary([1.0, 0.1], [0.1])
    assert compare_summaries(parent, change, 1e-10) == ["status removed"]


def test_new_key_is_not_a_violation(compare_summaries, capsys):
    parent = summary([1.0, 0.1], [0.1])
    change = summary([1.0, 0.1], [0.1], grid={"lambda_min_t1": 0.5})
    assert compare_summaries(parent, change, 1e-10) == []
    assert "new grid.lambda_min_t1: 0.5" in capsys.readouterr().out


def margins(gap):
    return {"timestamp": "t", "spectrum": {"margins": {"max_merged_gap_rel": gap}}}


def test_round_off_measurement_may_move_by_round_off(compare_summaries, capsys):
    # a merged eigenvalue gap that moved at picard.tol 1e-30, where the
    # plain float bound is 1e-8 relative: it is round-off either way
    assert compare_summaries(margins(4.1e-16), margins(5.4e-16), 1e-30) == []
    assert "moved spectrum.margins.max_merged_gap_rel" in capsys.readouterr().out


def test_round_off_measurement_may_not_move_beyond_round_off(compare_summaries):
    violations = compare_summaries(margins(4.1e-16), margins(4.1e-16 + 1e-12), 1e-30)
    assert violations == ["spectrum.margins.max_merged_gap_rel moved"]


def test_summary_that_is_not_strict_json_is_a_violation(tmp_path, capsys):
    # json.loads alone reads the Infinity literal that json.dumps writes
    # for an overflowed float
    compare_case = load_by_path("tools/same_numbers.py")["compare_case"]
    for side, value in (("parent", "1.0e+308"), ("change", "Infinity")):
        (tmp_path / side).mkdir()
        (tmp_path / side / "summary.json").write_text(f'{{"gate": {{"threshold": {value}}}}}\n')
    same_inputs, same_codes = {"parent": {}, "change": {}}, {"parent": 0, "change": 0}
    assert compare_case(tmp_path, same_inputs, same_codes) == ["change summary.json is not JSON"]
    assert "change summary.json is not JSON: Infinity is not a JSON number" in capsys.readouterr().out
