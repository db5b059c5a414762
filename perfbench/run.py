"""Benchmark entry point: one workload, one seed, one fresh worker interpreter.

    python3 perfbench/run.py --workload reduction --seed 1 --seconds 25 --trace 0

``--workload all`` runs the four workloads one after another.

Run from anywhere; the library is loaded from ``src/`` beside this
directory and nothing is installed.  With ``--trace 0`` the run measures
set-up time (fresh ``python -m votedist.cli fixture thm35`` launches) and
then one untraced worker, and reports the end-to-end metrics.  With
``--trace 1`` it runs a fixed op list three times, each in a fresh
interpreter: untraced, then traced twice.  It reports per-layer call counts
and self times from the first traced run, checks that the second one
repeats every call count, and reports the tracing overhead.  Human-readable
lines come first; the last line of stdout is the JSON result.  A full
record, stamped with the Python version, nproc, git commit and seed, is
written to ``.perfbench_out/`` at the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEADLINE_S = 170
SETUP_LAUNCHES = 15
# Op time of one round at reference speed, used only to size the fixed op
# list of traced runs at about a third of --seconds untraced.
ROUND_ESTIMATE_S = {"reduction": 3.1, "search": 0.55, "oracle": 0.2, "bulk": 12.0}
# Layers that the prediction table in README.md ties to each workload; a
# traced run fails if one of them records no calls.
REQUIRED_LAYERS = {
    "reduction": (
        "core.pairwise_tally",
        "scores.replacement_score",
        "reduction.vc_exact",
        "reduction.build_election",
        "profiles.serialize_profile",
    ),
    "search": (
        "core.pairwise_tally",
        "scores.replacement_score",
        "scores.deletion_score",
        "scores.dodgson_score",
    ),
    "oracle": (
        "core.Election",
        "core.condorcet_winner",
        "distances.election_distance",
        "oracle.dr_winners_oracle",
        "oracle.dr_score_oracle",
    ),
    "bulk": ("profiles.parse_profile", "core.Election", "core.pairwise_tally"),
}
FIXTURE_VOTERS = 29


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _remaining(started: float) -> float:
    left = DEADLINE_S - (time.monotonic() - started)
    if left <= 0:
        raise BenchError(f"ran past the {DEADLINE_S} s deadline")
    return left


def _check_fixture(text: str) -> None:
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    voters = sum(int(line.split(":")[0]) for line in lines[2:])
    if lines[:2] != ["4", "a b c d"] or voters != FIXTURE_VOTERS:
        raise BenchError(f"fixture thm35 printed an unexpected profile: {text[:200]!r}")


def measure_setup(started: float) -> tuple[list[float], list[float]]:
    """Seconds from launching ``python -m votedist.cli fixture thm35`` to its
    first byte of output, per launch, and the speed factor around each.
    One unmeasured launch goes first so that bytecode is compiled, as it is
    for an installed package."""
    argv = [sys.executable, "-m", "votedist.cli", "fixture", "thm35"]
    times, factors = [], []
    readings = speed.Sampler()
    readings.read_now()
    for launch in range(SETUP_LAUNCHES + 1):
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            bufsize=0,
        )
        try:
            first = proc.stdout.read(1)
            elapsed = time.perf_counter() - start
            rest, err = proc.communicate(timeout=_remaining(started))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0:
            raise BenchError(f"fixture launch failed: {err.decode()[-500:]}")
        _check_fixture((first + rest).decode())
        readings.read_now()
        if launch:
            times.append(elapsed)
            factors.append(readings.factor(launch, launch + 1))
    return times, factors


def run_worker(args, workdir: Path, started: float, tag: str, *, rounds=None, trace=False,
               spans=False) -> dict:
    out = workdir / f"{tag}.json"
    argv = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--workdir", str(workdir),
        "--out", str(out),
    ]
    argv += ["--rounds", str(rounds)] if rounds else ["--seconds", str(args.seconds)]
    if trace:
        argv.append("--trace")
    if spans:
        argv += ["--spans", str(ROOT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.csv.gz")]
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, env=_child_env(), capture_output=True, text=True,
            timeout=_remaining(started),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {tag} ran past the {DEADLINE_S} s deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {tag} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(out.read_text())


def ops_per_s(result: dict, key: str = "scaled_s") -> float:
    """Correct ops per second of op time, scaled to reference speed by default."""
    rounds = result["rounds"]
    return sum(r["ops"] - r["failed"] for r in rounds) / sum(r[key] for r in rounds)


def scaled_s(result: dict) -> float:
    return sum(r["scaled_s"] for r in result["rounds"])


def untraced(args, workdir: Path, started: float) -> tuple[dict, list[str]]:
    setup, setup_factors = measure_setup(started)
    result = run_worker(args, workdir, started, "run")
    raw = result["latencies_ms"]
    lat = [t * f for t, f in zip(raw, result["scales"])]
    attempted, failed = result["attempted"], result["failed"]
    metrics = {
        "ops_per_s": (ops_per_s(result), "1/s"),
        "op_p50_ms": (statistics.median(lat), "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(t * f for t, f in zip(setup, setup_factors)), "s"),
    }
    notes = {
        "ops_per_s": f"{attempted - failed} correct ops in {len(result['rounds'])} rounds; "
        f"unscaled {ops_per_s(result, 'busy_s'):.4f}",
        "op_p50_ms": f"median of {len(lat)} ops; unscaled {statistics.median(raw):.4f}",
        "setup_s": f"median of {len(setup)} launches; unscaled {statistics.median(setup):.4f}, "
        f"range {min(setup):.4f}-{max(setup):.4f}",
    }
    lines = [f"  {name:<12} {value:>12.4f} {unit:<4} {notes.get(name, '')}"
             for name, (value, unit) in metrics.items()]
    # Reported but not gated: p90 only with ten samples beyond it, and the
    # failure ratio, which is zero on a correct build.
    if len(lat) >= 100:
        lines.append(f"  {'op_p90_ms':<12} {statistics.quantiles(lat, n=10)[8]:>12.4f} "
                     f"ms   90th percentile of {len(lat)} ops")
    else:
        lines.append(f"  {'op_p90_ms':<12} {'n/a':>12} ms   only {len(lat)} ops, fewer than 100")
    lines.append(f"  {'fail_ratio':<12} {failed / attempted:>12.4f} {'':<4} {failed} of {attempted} ops")
    lines += [f"  FAILED {message}" for message in result["failures"]]
    record = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    return record, lines


def traced(args, workdir: Path, started: float) -> tuple[dict, list[str]]:
    rounds = max(1, round(args.seconds / 3 / ROUND_ESTIMATE_S[args.workload]))
    plain = run_worker(args, workdir, started, "untraced", rounds=rounds)
    first = run_worker(args, workdir, started, "traced-a", rounds=rounds, trace=True, spans=True)
    second = run_worker(args, workdir, started, "traced-b", rounds=rounds, trace=True)

    problems = [f"FAILED {message}" for message in first["failures"]]
    if not plain["failed"] == first["failed"] == second["failed"]:
        problems.append(
            f"fail counts differ: untraced {plain['failed']}, "
            f"traced {first['failed']} and {second['failed']}"
        )
    for layer in tracing.LAYERS:
        a, b = first["layers"][layer]["calls"], second["layers"][layer]["calls"]
        if a != b:
            problems.append(f"{layer}.calls differs between traced runs: {a} vs {b}")
    for layer in REQUIRED_LAYERS[args.workload]:
        if first["layers"][layer]["calls"] == 0:
            problems.append(f"{layer} recorded no calls on {args.workload}")

    metrics = {}
    for layer in tracing.LAYERS:
        metrics[f"{layer}.calls"] = (first["layers"][layer]["calls"], "count")
        metrics[f"{layer}.self_s"] = (first["layers"][layer]["self_s"], "s")
    metrics["trace.overhead_ratio"] = (ops_per_s(first) / ops_per_s(plain), "ratio")
    traced_s = scaled_s(first)
    lines = [
        f"  {rounds} rounds, {first['attempted']} ops, {first['spans']} spans; op time "
        f"{scaled_s(plain):.2f} s untraced, {traced_s:.2f} s traced (at reference speed)",
        f"  {'layer':<30} {'calls':>9} {'self_s':>10} {'share':>7}",
    ]
    for layer in tracing.LAYERS:
        calls, self_s = first["layers"][layer]["calls"], first["layers"][layer]["self_s"]
        lines.append(f"  {layer:<30} {calls:>9} {self_s:>10.4f} {self_s / traced_s:>7.1%}")
    lines.append(f"  trace.overhead_ratio {metrics['trace.overhead_ratio'][0]:.4f}")
    lines += problems
    record = {
        "correct": not problems,
        "attempted": first["attempted"],
        "failed": first["failed"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    return record, lines


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description="votedist benchmark")
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "votedist" / "cli.py").is_file():
        print(f"perfbench: no library source at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        # One invocation per workload, each printing its own report and result.
        return max(
            subprocess.run([
                sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ]).returncode
            for name in workloads.WORKLOADS
        )

    started = time.monotonic()
    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
    }
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    try:
        record, lines = (traced if args.trace else untraced)(args, workdir, started)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    out = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"stamp": stamp, **record, "report": lines}, indent=1))
    print("perfbench " + " ".join(f"{k}={v}" for k, v in stamp.items()))
    print("\n".join(lines))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
