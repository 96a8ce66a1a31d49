"""tools/bench_pairs.py summarises parent/change pairs by each metric's
direction: medians, their ratio, pairs won and the parent's quartile gap."""

import sys
from pathlib import Path

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
