"""gesforge benchmark: time to a checked verdict, per workload.

    python3 perfbench/run.py --workload exact_ladder --seed 1 --seconds 30 --trace 0

Run from the root of a gesforge checkout.  The run repeats the workload's
operation list in passes, each pass in a fresh interpreter (worker.py),
until --seconds are used up (at least two passes).  Every answer of every
pass is checked (checks.py).  Each time is scaled for the machine's speed
drift by a reference kernel read between operations (speed.py), and an
operation's time is its fastest pass, so the figures follow the program
rather than the drift phase a run meets; no pass reuses work of another.

--trace 0 prints the end-to-end metrics: wall_s (the list once, as the sum
of per-operation times), op_p50_s (median per-operation time), peak_rss_mb
(largest pass peak) and setup_s (median interpreter-start-to-first-
operation time, scaled by the pass's own dependency imports).  --trace 1 alternates untraced and traced passes and
prints the per-layer metrics of the fastest traced pass, plus
trace.overhead_s, traced minus untraced wall_s.  The last line of output
is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PASSES = 2
PASS_TIMEOUT = 150  # seconds; a pass of the longest list takes about 8

END_TO_END_UNITS = {"wall_s": "s", "op_p50_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
LAYER_UNITS = {
    "construct.self_s": "s", "partition.self_s": "s",
    "exactverify.rank_s": "s", "exactverify.spanning_s": "s", "exactverify.scan_s": "s",
    "minors.decide_s": "s", "minors.decided": "minors", "minors.minors_per_s": "minors/s",
    "minors.modular_s": "s", "minors.modular_attempts": "minors", "minors.modular_yield": "ratio",
    "minors.reduction_s": "s", "minors.reduction_minors": "minors",
    "cyclo.rank_s": "s", "cyclo.rank_calls": "calls", "cyclo.value_s": "s", "cyclo.value_calls": "calls",
    "numcert.search_s": "s", "numcert.basis_s": "s", "numcert.eigensolves": "calls",
    "cli.self_s": "s", "cli.bytes_written": "bytes",
    "setup.import_s": "s", "setup.warm_s": "s", "trace.overhead_s": "s",
}


class PassError(RuntimeError):
    pass


def run_pass(args, run_dir: Path, number: int, traced: bool) -> dict:
    out = run_dir / f"pass{number}.json"
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--out", str(out),
    ]
    if traced:
        cmd += ["--spans", str(run_dir / f"spans{number}.jsonl")]
    if args.small:
        cmd.append("--small")
    cmd += ["--spawned", repr(time.perf_counter())]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PASS_TIMEOUT)
    if proc.returncode != 0 or not out.exists():
        raise PassError(f"pass {number} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(out.read_text())
    out.unlink()
    result["traced"] = traced
    return result


def fastest(passes, n_ops: int) -> list[float]:
    """Per-operation time: the fastest of the given passes."""
    return [min(p["times"][i] for p in passes) for i in range(n_ops)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="cut-down lists for the self-tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gesforge" / "__init__.py").is_file():
        print(f"error: no gesforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    ops = workloads.build(args.workload, args.seed, args.small)
    run_dir = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    passes, problems, failed = [], [], 0
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        try:
            result = run_pass(args, run_dir, len(passes), traced)
        except (PassError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        try:
            pass_failed, pass_problems = checks.check_pass(ops, result.pop("answers"))
        except checks.CensusError as exc:
            print(f"error: the float census cannot decide: {exc}", file=sys.stderr)
            return 1
        failed += pass_failed
        problems += [f"pass {len(passes)}: {p}" for p in pass_problems]
        passes.append(result)
        elapsed = time.perf_counter() - start
        # stop when another pass of average length would overrun --seconds
        if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > args.seconds:
            break

    plain = [p for p in passes if not p["traced"]]
    times = fastest(plain, len(ops))
    metrics = {
        "wall_s": sum(times),
        "op_p50_s": statistics.median(times),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in plain),
        "setup_s": statistics.median(p["setup"]["setup_s"] for p in plain),
    }
    units = END_TO_END_UNITS
    absent = []
    if args.trace:
        traced_passes = [p for p in passes if p["traced"]]
        best = min(traced_passes, key=lambda p: sum(p["times"]))
        absent = best["absent"]
        metrics = dict(best["layers"])
        metrics["setup.import_s"] = statistics.median(p["setup"]["import_s"] for p in passes)
        metrics["setup.warm_s"] = statistics.median(p["setup"]["warm_s"] for p in passes)
        metrics["trace.overhead_s"] = sum(fastest(traced_passes, len(ops))) - sum(times)
        units = LAYER_UNITS

    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(passes), "operations": [op["id"] for op in ops],
        "times": [p["times"] for p in passes], "raw_times": [p["raw_times"] for p in passes],
        "speed": [p["speed"] for p in passes], "traced": [p["traced"] for p in passes],
        "setup": [p["setup"] for p in passes], "raw_setup": [p["raw_setup"] for p in passes],
        "metrics": metrics, "absent": absent,
        "problems": problems,
    }
    (run_dir / "result.json").write_text(json.dumps(summary, indent=1))

    print(f"{args.workload} seed {args.seed}: {len(passes)} passes x {len(ops)} operations, "
          f"{failed} failed, {len(problems)} wrong answers")
    print(f"op_p50_s sampled over {len(ops)} operations (fastest of {len(plain)} untraced passes each)")
    for line in problems[:20]:
        print(f"wrong: {line}")
    if absent:
        print(f"absent (function gone, reads 0): {', '.join(absent)}")
    print(f"results in {run_dir.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(ops) * len(passes),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
