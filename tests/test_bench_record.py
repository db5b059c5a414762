"""Tests for the benchmark record collator in ``tools/bench_record.py``."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
spec = importlib.util.spec_from_file_location("bench_record", TOOL)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)


def record(path: Path, ops: float, seed: int = 1, trace: int = 0, workload: str = "bulk") -> str:
    if trace:
        metrics = {
            "core.Election.calls": {"value": 4}, "core.Election.self_s": {"value": 0.5},
            "reduction.vc_exact.calls": {"value": 0}, "reduction.vc_exact.self_s": {"value": 0},
            "trace.overhead_ratio": {"value": 0.9},
        }
    else:
        metrics = {
            "ops_per_s": {"value": ops}, "op_p50_ms": {"value": 1000 / ops},
            "peak_rss_mb": {"value": 50.0}, "setup_s": {"value": 0.1},
        }
    stamp = {"workload": workload, "seed": seed, "seconds": 25.0, "trace": trace,
             "python": "3.11.7", "nproc": 2, "commit": "unknown"}
    path.write_text(json.dumps({"stamp": stamp, "correct": True, "attempted": 10,
                                "failed": 0, "metrics": metrics}))
    return str(path)


def test_collates_pairs_held_out_seeds_and_traces(tmp_path):
    parent = [record(tmp_path / f"p{i}.json", ops) for i, ops in enumerate((3.0, 3.2, 3.1))]
    change = [record(tmp_path / f"c{i}.json", ops) for i, ops in enumerate((8.0, 3.1, 7.5))]
    parent += [record(tmp_path / "p7.json", 3.3, seed=7), record(tmp_path / "pt.json", 0, trace=1)]
    change += [record(tmp_path / "c7.json", 8.1, seed=7), record(tmp_path / "ct.json", 0, trace=1)]
    out = tmp_path / "BENCH.json"
    assert bench_record.main([
        "--seed", "1", "--parent-commit", "abc", "--change", "lazy names", "--out", str(out),
        "--parent", *parent, "--change-records", *change,
    ]) == 0
    bench = json.loads(out.read_text())
    assert bench["python"] == "3.11.7" and bench["nproc"] == 2
    assert bench["command"].endswith("--seed 1 --seconds 25 --trace 0")
    bulk = bench["workloads"]["bulk"]
    assert bulk["ops_per_s_pairs_won_by_change"] == "2/3"
    assert [run["ops_per_s"] for run in bulk["parent"]["runs"]] == [3.0, 3.2, 3.1]
    assert bulk["parent"]["summary"]["ops_per_s"] == {"median": 3.1, "q1": 3.0, "q3": 3.2}
    assert bench["held_out_seed_7_bulk_ops_per_s"] == {"parent": [3.3], "change": [8.1]}
    assert bench["traced_seed_1_per_layer"]["bulk"]["change"] == {
        "core.Election.calls": 4, "core.Election.self_s": 0.5,
    }
