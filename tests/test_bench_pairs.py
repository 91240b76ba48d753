"""Tests for the summary that tools/bench_pairs.py writes into BENCH_<pr>.json."""

import importlib.util
import statistics
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

END_TO_END = [{"name": "items_per_s", "better": "higher", "bound": 0.25},
              {"name": "call_p50_ms", "better": "lower", "bound": 0.25}]


def _run(items, p50, failed=0, attempted=100):
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {"items_per_s": items, "call_p50_ms": p50}, "seed": 0}


def test_a_tie_counts_for_neither_side():
    runs = {"parent": [_run(10, 5), _run(20, 5), _run(30, 5), _run(40, 5)],
            "change": [_run(11, 4), _run(20, 5), _run(29, 6), _run(40, 5)]}
    summary = bench_pairs.summarize(runs, END_TO_END)
    # won, tied, lost, tied: by `better`, higher items and lower latency
    assert summary["items_per_s"]["change_better_pairs"] == "1/4"
    assert summary["call_p50_ms"]["change_better_pairs"] == "1/4"
    runs["change"][1] = _run(21, 4.9)
    summary = bench_pairs.summarize(runs, END_TO_END)
    assert summary["items_per_s"]["change_better_pairs"] == "2/4"
    assert summary["call_p50_ms"]["change_better_pairs"] == "2/4"


def test_each_side_gets_its_median_and_quartiles():
    items = [33.0, 29.0, 41.0, 35.0, 30.0]
    runs = {"parent": [_run(x, 1.0) for x in items], "change": [_run(x + 1, 1.0) for x in items]}
    summary = bench_pairs.summarize(runs, END_TO_END)
    q1, median, q3 = statistics.quantiles(items, n=4)
    assert summary["items_per_s"]["parent"] == {"median": median, "q1": q1, "q3": q3}
    assert summary["items_per_s"]["parent"]["median"] == 33.0
    assert summary["items_per_s"]["change"]["median"] == 34.0
    assert summary["items_per_s"]["change_better_pairs"] == "5/5"
    assert summary["call_p50_ms"]["change_better_pairs"] == "0/5"
    # one run is its own median and quartiles
    assert bench_pairs.quartiles([2.5]) == {"median": 2.5, "q1": 2.5, "q3": 2.5}


def test_operations_are_summed_per_side():
    runs = {"parent": [_run(1, 1, failed=0, attempted=90), _run(1, 1, failed=2, attempted=80)],
            "change": [_run(1, 1, failed=1, attempted=70), _run(1, 1, failed=0, attempted=60)]}
    assert bench_pairs.operations(runs) == {"parent": {"attempted": 170, "failed": 2},
                                            "change": {"attempted": 130, "failed": 1}}


@pytest.mark.parametrize("text, plan", [("sweep:10:30", ("sweep", 10, 30.0)),
                                        ("bulk:4:7.5", ("bulk", 4, 7.5))])
def test_plans_parse(text, plan):
    assert bench_pairs.parse_plan(text) == plan


PARENT = [100.0, 90.0, 110.0, 95.0, 105.0, 98.0, 102.0, 93.0, 107.0, 100.0]


def _verdict(change, parent=PARENT, better="higher", bound=0.25):
    return bench_pairs.verdict(parent, change, better, bound)


def test_a_gain_wins_nine_in_ten_pairs_by_more_than_the_parents_spread():
    assert _verdict([x * 1.3 for x in PARENT]) == "gain"
    # a tie counts for neither side: 9 wins and a tie are 9/10, 8 and 2 are not
    nine = [x * 1.3 for x in PARENT[:9]] + [PARENT[9]]
    assert _verdict(nine) == "gain"
    assert _verdict(nine[:8] + PARENT[8:]) == "within bound"
    # better is lower: the same runs are a gain when they fall
    assert _verdict([x / 1.3 for x in PARENT], better="lower") == "gain"
    assert _verdict([x * 1.3 for x in PARENT], better="lower") == "worse"


def test_ties_are_within_bound():
    assert _verdict(PARENT) == "within bound"
    assert _verdict([5.0] * 10, parent=[5.0] * 10) == "within bound"


def test_a_ten_in_ten_win_inside_the_parents_spread_is_no_gain():
    q = bench_pairs.quartiles(PARENT)
    change = [x + 1.0 for x in PARENT]  # 10/10, but 1 < q3 - q1
    assert 1.0 < q["q3"] - q["q1"]
    assert _verdict(change) == "within bound"


def test_a_median_worse_by_more_than_the_bound_is_worse():
    assert _verdict([x * 0.7 for x in PARENT]) == "worse"
    assert _verdict([x * 0.8 for x in PARENT]) == "within bound"


def test_a_spread_wider_than_the_bound_is_unresolved():
    wide = [50.0, 150.0, 60.0, 140.0, 55.0, 145.0, 100.0, 100.0, 70.0, 130.0]
    assert _verdict(wide) == "unresolved"  # against itself
    assert _verdict(PARENT, parent=wide) == "unresolved"
    assert _verdict(wide, parent=PARENT) == "unresolved"
    # unless every change run beats every parent run
    assert _verdict([151.0 + i for i in range(10)], parent=wide) == "within bound"


def test_the_summary_holds_each_metrics_verdict():
    runs = {"parent": [_run(x, 1.0) for x in PARENT],
            "change": [_run(x * 1.3, 1.0) for x in PARENT]}
    summary = bench_pairs.summarize(runs, END_TO_END)
    assert summary["items_per_s"]["verdict"] == "gain"
    assert summary["call_p50_ms"]["verdict"] == "within bound"
