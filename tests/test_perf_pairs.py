"""The summary that scripts/perf_pairs.py prints for alternated perfbench pairs."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "perf_pairs", Path(__file__).parents[1] / "scripts" / "perf_pairs.py")
perf_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_pairs)

METRICS = [{"name": "wall_s", "better": "lower"}, {"name": "trials_per_s", "better": "higher"}]


def _result(wall, rate, correct=True, failed=0):
    return {"correct": correct, "failed": failed,
            "metrics": {"wall_s": {"value": wall}, "trials_per_s": {"value": rate}}}


def test_wins_follow_each_metrics_direction():
    """A lower wall_s and a higher trials_per_s count as the change's wins,
    an equal value as neither side's; the IQR is the parent's."""
    runs = {"parent": [_result(1.0, 10), _result(2.0, 20), _result(3.0, 30), _result(4.0, 40)],
            "change": [_result(0.5, 5), _result(2.5, 25), _result(2.0, 35), _result(4.0, 40)]}
    first, header, wall, rate = perf_pairs.summary(runs, METRICS)
    assert first.split(";")[0].split() == ["4", "pairs,", "4", "complete"]
    assert first.endswith("every run correct with failed 0: yes")
    assert header.split()[0] == "metric"
    assert wall.split() == ["wall_s", "2.5", "2.25", "2", "of", "4", "2.5"]
    assert rate.split() == ["trials_per_s", "25", "30", "2", "of", "4", "25"]


@pytest.mark.parametrize("bad", [None, _result(1.0, 10, correct=False),
                                 _result(1.0, 10, failed=1)],
                         ids=["no-result", "incorrect", "failed-run"])
def test_a_bad_run_is_reported(bad):
    """A run without a result line, or one not correct or with a failed run,
    turns the flag to NO; a pair missing a result is left out of the medians."""
    runs = {"parent": [_result(1.0, 10), _result(2.0, 20)],
            "change": [_result(0.5, 15), bad]}
    first, _, wall, _ = perf_pairs.summary(runs, METRICS)
    assert first.endswith("every run correct with failed 0: NO")
    complete = 1 if bad is None else 2
    assert first.split(";")[0].split() == ["2", "pairs,", str(complete), "complete"]
    assert wall.split()[4:6] == ["of", str(complete)]


def _bar(line):
    """The met and unmet metric names of a gain_bar line."""
    met, unmet = line.split(": ", 1)[1].split("; ")
    return met.removeprefix("met by "), unmet.removeprefix("unmet by ")


def test_gain_bar_met():
    """trials_per_s higher in all 10 pairs by more than the parent's IQR meets
    the bar; a wall_s lower in 9 of 10 by that much meets it too."""
    parent = [_result(1.0 + i / 100, 100 + i) for i in range(10)]
    change = [_result(0.5 if i else 1.5, 200 + i) for i in range(10)]
    line = perf_pairs.gain_bar({"parent": parent, "change": change}, METRICS)
    assert line.startswith("  gain bar (better in >= 9 of 10 pairs, median gap > parent IQR)")
    assert _bar(line) == ("wall_s, trials_per_s", "none")


def test_gain_bar_unmet():
    """Better in 8 of 10 pairs is short of 9, however wide the gap; better in
    10 of 10 by less than the parent's IQR is short too."""
    parent = [_result(1.0, 100 + 10 * i) for i in range(10)]
    change = [_result(0.5 if i > 1 else 2.0, 101 + 10 * i) for i in range(10)]
    assert _bar(perf_pairs.gain_bar({"parent": parent, "change": change}, METRICS)) == (
        "none", "wall_s, trials_per_s")
