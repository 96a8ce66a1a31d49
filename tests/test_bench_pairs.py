"""tools/bench_pairs.py runs ten alternating parent/change pairs per
workload and summarises them by each metric's direction: medians, their
ratio, pairs won and the parent's quartile gap."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import bench_pairs  # noqa: E402


def _run(failed, **values):
    return {"failed": failed,
            "metrics": {name: {"unit": "", "value": v} for name, v in values.items()}}


def test_summary_counts_pairs_by_the_metric_direction():
    parent = [10.0, 11.0, 12.0, 13.0]
    change = [14.0, 10.5, 15.0, 13.0]
    runs = {str(seed): {"parent": _run(0, tasks_per_s=p, task_p50_s=1 / p),
                        "change": _run(1 if seed == 2 else 0, tasks_per_s=c,
                                       task_p50_s=1 / c)}
            for seed, (p, c) in enumerate(zip(parent, change))}
    out = bench_pairs.summarize(runs, {"tasks_per_s": "higher", "task_p50_s": "lower"})
    assert out["failed"] == {"change": 1, "parent": 0}
    rate = out["tasks_per_s"]
    assert rate["parent_median"] == 11.5 and rate["change_median"] == 13.5
    assert rate["change_over_parent"] == round(13.5 / 11.5, 3)
    # a tie (13.0 both sides) counts for neither side
    assert rate["pairs"] == 4 and rate["pairs_won_by_change"] == 2
    assert rate["parent_iqr"] == 2.5          # quartiles 10.25 and 12.75
    assert out["task_p50_s"]["pairs_won_by_change"] == 2


def test_every_workload_runs_ten_alternating_pairs(tmp_path, monkeypatch):
    """main runs PAIRS = 10 pairs per workload named, on distinct seeds, with
    the side that runs first alternating, then one traced run per side on
    the first pair's seed; a NAME=PAIRS count is refused."""
    calls, traced = [], []

    def fake_run(tree, workload, seed, seconds, trace):
        if trace:
            traced.append((workload, seed, tree))
            return _run(0, **{"bundle.h0.calls": 3.0})
        calls.append((workload, seed, tree))
        return _run(0, **{name: 1.0 for name in ("tasks_per_s", "task_p50_s",
                                                  "task_tail_s", "peak_rss_mb",
                                                  "setup_s")})

    monkeypatch.setattr(bench_pairs, "export", lambda rev, dest: ("abc1234", "PARENT"))
    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    out = tmp_path / "bench.json"
    names = ["threshold-verify", "projection-scan"]
    assert bench_pairs.main(["--workloads", *names, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert bench_pairs.PAIRS == 10 and len(calls) == 2 * 10 * len(names)
    for name in names:
        assert len(doc["runs"][name]) == 10
        assert doc["summary"][name]["tasks_per_s"]["pairs"] == 10
        firsts = [tree for workload, _, tree in calls[::2] if workload == name]
        assert firsts == ["PARENT", bench_pairs.ROOT] * 5
        first_seed = min(int(seed) for seed in doc["runs"][name])
        assert [(seed, tree) for workload, seed, tree in traced if workload == name] \
            == [(first_seed, "PARENT"), (first_seed, bench_pairs.ROOT)]
        assert doc["traced"][name]["seed"] == first_seed
        for side in ("parent", "change"):
            assert doc["traced"][name][side]["bundle.h0.calls"]["value"] == 3.0
    assert len(traced) == 2 * len(names)
    with pytest.raises(SystemExit):
        bench_pairs.main(["--workloads", "threshold-verify=6", "--out", str(out)])
