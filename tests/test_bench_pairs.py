import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

MACHINE = {"nproc": 2, "numpy": "2.4.6", "sgemm_gflops": 100.0}


def result_file(path, nominal_s, wall_s, items, setup_s, rss, failed=0, trace=False):
    # a result file as perfbench/run.py writes one: each call counts
    # ``items``; the nominal rate is the median of items / nominal seconds
    rates = sorted(items / s for s in nominal_s)
    mid = len(rates) // 2
    median = rates[mid] if len(rates) % 2 else (rates[mid - 1] + rates[mid]) / 2
    metrics = ({"tensor.conv2d.bwd_s": 1.0 + setup_s, "wall.items_per_s": 30.0} if trace else
               {"nominal_items_per_s": median, "setup_s": setup_s, "peak_rss_mb": rss})
    path.write_text(json.dumps({
        "result": {"correct": failed == 0, "attempted": 3, "failed": failed,
                   "metrics": {k: {"value": v, "unit": ""} for k, v in metrics.items()}},
        "machine": MACHINE, "problems": [], "call_wall_seconds": wall_s,
        "call_nominal_seconds": nominal_s, "probe_slowdowns": [1.0], "setup_nominal_seconds": []}))
    return str(path)


def test_merge_reads_two_result_files_per_pair(tmp_path):
    # one workload, two seeds: the change faster at nominal speed in both
    # pairs, by the wall clock in one
    pairs = {"tripod-train": [
        (1, result_file(tmp_path / "p1.json", [4.0, 5.0], [3.0, 3.2], 128, 0.05, 1000.0),
         result_file(tmp_path / "c1.json", [4.0, 4.0, 3.0], [2.0, 2.5, 2.6], 128, 0.04, 1010.0,
                     failed=1)),
        (2, result_file(tmp_path / "p2.json", [4.0, 4.0], [2.0, 2.0], 128, 0.06, 1002.0),
         result_file(tmp_path / "c2.json", [3.5, 3.5], [2.5, 2.5], 128, 0.07, 1004.0))]}
    traced = {"tripod-train": [(9, result_file(tmp_path / "pt.json", [4.0], [3.0], 128, 0.5, 0,
                                               trace=True),
                                result_file(tmp_path / "ct.json", [4.0], [3.0], 128, 0.25, 0,
                                            trace=True))]}
    record = bench_pairs.merge(pairs, traced, parent="abc1234")
    assert record["parent"] == "abc1234" and record["machine"] == MACHINE
    entry = record["pairs"]["tripod-train"]
    assert entry["seeds"] == [1, 2]
    parent, change = entry["parent"], entry["change"]
    assert parent["nominal_items_per_s"]["runs"] == pytest.approx([(32 + 25.6) / 2, 32.0])
    assert change["nominal_items_per_s"]["runs"] == pytest.approx([32.0, 128 / 3.5])
    assert parent["wall_items_per_s"]["runs"] == pytest.approx([(128 / 3 + 40) / 2, 64.0])
    assert change["wall_items_per_s"]["runs"] == pytest.approx([128 / 2.5, 128 / 2.5])
    assert parent["setup_s"] == pytest.approx({"median": 0.055, "q1": 0.0525, "q3": 0.0575,
                                               "runs": [0.05, 0.06]})
    assert change["peak_rss_mb"]["runs"] == [1010.0, 1004.0]
    assert change["peak_rss_mb"]["median"] == pytest.approx(1007.0)
    assert (parent["failed_operations"], change["failed_operations"]) == (0, 1)
    assert (entry["change_faster_nominal"], entry["change_faster_wall"]) == (2, 1)
    # lower setup_s and peak_rss_mb win: setup 0.04 < 0.05 and 0.07 > 0.06
    assert entry["change_won"] == {"nominal_items_per_s": 2, "wall_items_per_s": 1,
                                   "setup_s": 1, "peak_rss_mb": 0}
    assert entry["median_ratio"] == pytest.approx({
        "nominal_items_per_s": (32.0 / 28.8 + (128 / 3.5) / 32.0) / 2,
        "wall_items_per_s": (51.2 / ((128 / 3 + 40) / 2) + 51.2 / 64.0) / 2,
        "setup_s": (0.04 / 0.05 + 0.07 / 0.06) / 2,
        "peak_rss_mb": (1010.0 / 1000.0 + 1004.0 / 1002.0) / 2})
    assert record["traced"]["parent"]["tripod-train"] == {
        "seeds": [9], "per_op": {"tensor.conv2d.bwd_s": [1.5], "wall.items_per_s": [30.0]}}
    assert record["traced"]["change"]["tripod-train"]["per_op"]["tensor.conv2d.bwd_s"] == [1.25]


def test_memory_claim_is_won_by_the_lower_peak(tmp_path):
    # the change holds every rate and setup time and peaks lower in two of
    # three pairs: a tie wins nothing, in either direction
    def pair(seed, rss):
        return tuple([seed] + [result_file(tmp_path / f"{side}{seed}.json", [4.0], [3.0], 128,
                                           0.05, mb) for side, mb in zip("pc", rss)])
    entry = bench_pairs.merge({"tripod-train": [pair(1, (1100.0, 690.0)),
                                                pair(2, (1096.0, 1096.0)),
                                                pair(3, (1098.0, 700.0))]})["pairs"]["tripod-train"]
    assert entry["change_won"] == {"nominal_items_per_s": 0, "wall_items_per_s": 0,
                                   "setup_s": 0, "peak_rss_mb": 2}
    assert (entry["change_faster_nominal"], entry["change_faster_wall"]) == (0, 0)
    assert entry["median_ratio"]["peak_rss_mb"] == pytest.approx(700.0 / 1098.0)
    assert entry["median_ratio"]["nominal_items_per_s"] == 1.0


def test_seed_ranges():
    assert bench_pairs.seeds("tripod-eval=3-5,9") == ("tripod-eval", [3, 4, 5, 9])
