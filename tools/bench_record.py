"""Collate perfbench run records into one ``BENCH_<n>.json`` file.

Every ``python3 perfbench/run.py --workload W --seed S --seconds T --trace X``
writes its record to ``.perfbench_out/W-seedS-traceX.json`` in the checkout it
runs from, replacing the previous run's record.  Copy each record elsewhere
after its run, keeping parent and change records apart, then collate them:

    python3 tools/bench_record.py --seed 1 --parent-commit <sha> \\
        --change "what the change does" --out BENCH_10.json \\
        --parent parent/*.json --change-records change/*.json

Untraced records at ``--seed`` give each workload's runs and quartile
summaries.  Within a workload, the i-th parent record and the i-th change
record, in the order given, form pair i of the ``ops_per_s`` win count.
Untraced records at any other seed are held-out runs, and traced records
give the per-layer calls and self times.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

END_TO_END = ("ops_per_s", "op_p50_ms", "peak_rss_mb", "setup_s")


def load(paths: list[str]) -> list[dict]:
    return [json.loads(Path(p).read_text()) for p in paths]


def run_entry(record: dict) -> dict:
    metrics = record["metrics"]
    return {
        "attempted": record["attempted"],
        "failed": record["failed"],
        "correct": record["correct"],
        **{name: round(metrics[name]["value"], 4) for name in END_TO_END},
    }


def summary(runs: list[dict]) -> dict:
    out = {}
    for name in END_TO_END:
        values = [run[name] for run in runs]
        if len(values) > 1:
            q1, median, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = median = q3 = values[0]
        out[name] = {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}
    return out


def wins(parent: list[dict], change: list[dict]) -> str:
    """Pairs in which the change had more ops/s; ties count for neither side."""
    won = sum(c["ops_per_s"] > p["ops_per_s"] for p, c in zip(parent, change))
    return f"{won}/{min(len(parent), len(change))}"


def layers(record: dict) -> dict:
    """Per-layer calls and self times, leaving out layers the run never reached."""
    metrics = record["metrics"]
    return {
        name: round(m["value"], 4)
        for name, m in metrics.items()
        if name != "trace.overhead_ratio" and metrics[name.rsplit(".", 1)[0] + ".calls"]["value"]
    }


def only(values: set, what: str):
    if len(values) != 1:
        sys.exit(f"bench_record: records disagree on {what}: {sorted(map(str, values))}")
    return values.pop()


def collate(args, sides: dict[str, list[dict]]) -> dict:
    stamps = [r["stamp"] for records in sides.values() for r in records]
    seconds = only({s["seconds"] for s in stamps if not s["trace"]}, "--seconds")
    out = {
        "change": args.change,
        "command": f"python3 perfbench/run.py --workload <name> --seed {args.seed} "
        f"--seconds {seconds:g} --trace 0",
        "parent_commit": args.parent_commit,
        "python": only({s["python"] for s in stamps}, "the Python version"),
        "nproc": only({s["nproc"] for s in stamps}, "nproc"),
        "source": f".perfbench_out/<workload>-seed{args.seed}-trace0.json of each run, "
        "parent and change alternating which runs first",
        "workloads": {},
    }
    runs: dict[str, dict[str, list[dict]]] = {}
    for side, records in sides.items():
        for record in records:
            stamp = record["stamp"]
            workload, seed = stamp["workload"], stamp["seed"]
            if stamp["trace"]:
                key = f"traced_seed_{seed}_per_layer"
                out.setdefault(key, {}).setdefault(workload, {})[side] = layers(record)
            elif seed == args.seed:
                runs.setdefault(workload, {}).setdefault(side, []).append(run_entry(record))
            else:
                key = f"held_out_seed_{seed}_{workload}_ops_per_s"
                value = round(record["metrics"]["ops_per_s"]["value"], 4)
                out.setdefault(key, {"parent": [], "change": []})[side].append(value)
    for workload, by_side in sorted(runs.items()):
        entry = {side: {"runs": r, "summary": summary(r)} for side, r in by_side.items()}
        if len(by_side) == 2:
            entry["ops_per_s_pairs_won_by_change"] = wins(by_side["parent"], by_side["change"])
        out["workloads"][workload] = entry
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="collate perfbench records")
    parser.add_argument("--seed", type=int, required=True, help="seed of the claimed runs")
    parser.add_argument("--parent-commit", required=True)
    parser.add_argument("--change", required=True, help="one line saying what changed")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--parent", nargs="+", required=True, help="parent run records")
    parser.add_argument("--change-records", nargs="+", required=True, help="change run records")
    args = parser.parse_args(argv)
    sides = {"parent": load(args.parent), "change": load(args.change_records)}
    record = collate(args, sides)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
