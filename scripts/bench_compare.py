#!/usr/bin/env python3
"""Compare two gesforge checkouts on the benchmark, in alternating pairs.

    python3 scripts/bench_compare.py --parent ../base --change . \\
        --workload exact_ladder --seeds 100-109 --pairs 10 --topic chebotarev

Each pair runs `perfbench/run.py --workload W --seed S --seconds T --trace X`
once in each checkout, from its root, with T the `run_seconds` of the
change's BENCHMARK.json.  The parent runs first in even pairs and the
change first in odd ones, so that a drift of the machine's speed falls on
both sides alike.  Pair i takes the i-th seed, cycling through the list.
Every run must check correct, or the comparison stops.  Each side runs
with its own fresh, empty PYTHONPYCACHEPREFIX directory for the whole
comparison, so neither side reads the bytecode a checkout holds (a stale
`.pyc` there can move `setup_s`), and nothing in either checkout is
written or deleted.

The result goes to BENCH_<topic>.json in the current directory: per
workload, every run's metrics and, per metric, each side's median and
quartiles, and how many pairs the change won (ties count for neither;
"better" comes from the change's BENCHMARK.json).  A traced run (--trace 1)
compares the per-layer metrics and is filed as "<workload>-traced".  An
entry already in the file is replaced, and the others are kept, so one
file can collect several workloads from several calls.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def parse_seeds(text: str) -> list[int]:
    """'100-109' or '3,5,8'."""
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def revision(checkout: Path) -> str:
    """The checkout's commit, marked +dirty when files differ from it."""
    def git(*argv):
        proc = subprocess.run(["git", "-C", str(checkout), *argv], capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    head = git("rev-parse", "--short", "HEAD")
    if head is None:
        return "unknown"
    return head + ("+dirty" if git("status", "--porcelain", "--untracked-files=no") else "")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int,
             pycache: Path) -> dict:
    """One benchmark run in `checkout`, its bytecode read from and written to `pycache`."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    env = {**os.environ, "PYTHONPYCACHEPREFIX": str(pycache)}
    # bytecode now goes to `pycache` alone, so it can be written: otherwise
    # every worker would compile every module it imports
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{checkout}: wrong answers on {workload} seed {seed}\n{proc.stdout}")
    return result


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="range A-B or comma list")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--topic", required=True, help="names the output, BENCH_<topic>.json")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    seconds = spec["run_seconds"]
    runs = []
    with tempfile.TemporaryDirectory() as parent_cache, tempfile.TemporaryDirectory() as change_cache:
        caches = {"parent": Path(parent_cache), "change": Path(change_cache)}
        for i in range(args.pairs):
            seed = args.seeds[i % len(args.seeds)]
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(
                    getattr(args, side), args.workload, seed, seconds, args.trace, caches[side]
                )
            runs.append(pair)
            print(f"pair {i}: seed {seed}, " + ", ".join(
                f"{name} {pair['parent']['metrics'][name]['value']:.4g} -> "
                f"{pair['change']['metrics'][name]['value']:.4g}"
                for name in pair["change"]["metrics"] if name in ("wall_s", "op_p50_s")
            ), flush=True)

    metrics = {}
    for name, info in runs[0]["change"]["metrics"].items():
        values = {side: [r[side]["metrics"][name]["value"] for r in runs] for side in ("parent", "change")}
        sign = 1 if better.get(name, "lower") == "lower" else -1
        gaps = [sign * (p - c) for p, c in zip(values["parent"], values["change"])]
        metrics[name] = {
            "unit": info["unit"],
            "better": better.get(name, "lower"),
            "parent": summary(values["parent"]),
            "change": summary(values["change"]),
            "change_wins": sum(g > 0 for g in gaps),
            "parent_wins": sum(g < 0 for g in gaps),
        }

    out = Path(f"BENCH_{args.topic}.json")
    doc = json.loads(out.read_text()) if out.exists() else {"topic": args.topic, "workloads": {}}
    doc["workloads"][args.workload + ("-traced" if args.trace else "")] = {
        "parent": revision(args.parent),
        "change": revision(args.change),
        "command": f"perfbench/run.py --workload {args.workload} --seconds {seconds:g} "
                   f"--trace {args.trace}",
        "machine": {"cpu": cpu_model(), "cpus": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "pairs": args.pairs,
        "metrics": metrics,
        "runs": [
            {"seed": r["seed"], "first": r["first"],
             **{side: {"attempted": r[side]["attempted"], "failed": r[side]["failed"],
                       "metrics": {k: v["value"] for k, v in r[side]["metrics"].items()}}
                for side in ("parent", "change")}}
            for r in runs
        ],
    }
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
