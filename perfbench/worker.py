"""One measured run of one workload, in the interpreter that runs this file.

Drives ``votedist.cli.main(argv)`` in-process as a single closed-loop client
on one thread: each op starts when the previous one has returned.  Only the
op itself is timed; generating inputs and checking outputs happen between
ops.  Each op's time is scaled to reference speed (see ``speed.py``) with
the machine-speed readings taken around and during it.  Whole rounds run
while one more round of average length still fits in ``--seconds`` of op
time (always at least one), or exactly ``--rounds`` rounds when given
(traced runs need a fixed op list).  The result, including this process's
peak resident set size, is written as JSON to ``--out``.

    python3 perfbench/worker.py --workload search --seed 1 --seconds 15 \\
        --workdir WORK --out result.json [--trace] [--spans spans.csv]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import resource
import sys
import time
from pathlib import Path

import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _rule_winners(rule: str, path: str) -> list[str]:
    from votedist import rules
    from votedist.profiles import parse_profile

    with open(path, encoding="utf-8") as handle:
        election = parse_profile(handle.read())
    return [c.name for c in getattr(rules, f"{rule}_winners")(election).winners]


def _round_source(workload: str, seed: int, workdir: Path):
    if workload == "reduction":
        return lambda r: workloads.reduction_round(seed, r, workdir)
    if workload == "search":
        return lambda r: workloads.search_round(seed, r, workdir)
    if workload == "oracle":
        return lambda r: workloads.oracle_round(seed, r, workdir, _rule_winners)
    path, names, data = workloads.bulk_profile(seed, workdir)
    return lambda r: workloads.bulk_round(path, names, data)


def run(args: argparse.Namespace) -> dict:
    recorder = None
    if args.trace:
        import tracing

        recorder = tracing.Recorder()
        tracing.install(recorder)
    from votedist.cli import main

    make_round = _round_source(args.workload, args.seed, Path(args.workdir))
    latencies: list[float] = []
    scales: list[float] = []
    rounds: list[dict] = []
    failures: list[str] = []
    with speed.Sampler(recorder.exclude if recorder else None) as sampler:
        for index in itertools.count():
            round_ = make_round(index)
            sampler.read_now()
            outputs, readings, busy = [], [], 0.0
            bad: dict[int, str] = {}
            for pos, op in enumerate(round_.ops):
                out, err = io.StringIO(), io.StringIO()
                if recorder:
                    recorder.op_id = len(latencies)
                    recorder.enabled = True
                before, spent = len(sampler.loop_times) - 1, sampler.spent_s
                start = time.perf_counter()
                try:
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = main(op.argv)
                except Exception as exc:  # a traceback is a failed op, not a dead run
                    code = None
                    bad[pos] = f"raised {exc!r}"
                elapsed = time.perf_counter() - start - (sampler.spent_s - spent)
                if recorder:
                    recorder.enabled = False
                # The op's speed readings: the last before it, any taken
                # while it ran, and the first after it.
                readings.append((before, len(sampler.loop_times)))
                latencies.append(elapsed * 1000)
                busy += elapsed
                outputs.append(out.getvalue())
                if pos not in bad:
                    message = op.check(code, out.getvalue())
                    if message:
                        bad[pos] = f"{message}; stderr {err.getvalue()[-200:]!r}"
            sampler.read_now()
            scales += [sampler.factor(first, last) for first, last in readings]
            for pos, message in round_.cross_check(outputs):
                bad.setdefault(pos, message)
            failures += [
                f"round {index} op {pos} {round_.ops[pos].argv}: {m}" for pos, m in bad.items()
            ]
            first = len(latencies) - len(round_.ops)
            scaled = sum(t * f for t, f in zip(latencies[first:], scales[first:])) / 1000
            rounds.append(
                {"ops": len(round_.ops), "failed": len(bad), "busy_s": busy, "scaled_s": scaled}
            )
            if args.rounds is not None:
                if index + 1 == args.rounds:
                    break
            elif sum(r["busy_s"] for r in rounds) * (index + 2) / (index + 1) > args.seconds:
                break  # one more round of average length would overrun --seconds

    result = {
        "attempted": len(latencies),
        "failed": sum(r["failed"] for r in rounds),
        "failures": failures[:20],
        "latencies_ms": latencies,
        "scales": scales,
        "rounds": rounds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if recorder:
        result["layers"] = recorder.summary(scales)
        result["spans"] = len(recorder.start)
        if args.spans:
            recorder.write(Path(args.spans))
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    limit = parser.add_mutually_exclusive_group(required=True)
    limit.add_argument("--seconds", type=float)
    limit.add_argument("--rounds", type=int)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args()
    result = run(args)
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
