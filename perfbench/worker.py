"""One pass over a workload's operation list, in a fresh interpreter.

Started by run.py with the parent's clock reading taken just before the
spawn, so set-up time covers interpreter start, imports and cache warming.
Each operation is timed alone, and the pass's times are scaled by its
fastest speed reading; set-up times are scaled by how long the pass took
to start and import its dependencies (speed.py).  The program's answers go back to the parent
(which checks them) in a JSON file, together with the scaled and raw
times, the set-up split, the peak resident memory and, when traced, the
per-layer metrics.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# The dependencies count towards set-up time; mpmath is imported here
# because cyclo.power_counts_value would otherwise import it mid-operation.
import mpmath  # noqa: F401
import numpy  # noqa: F401
import scipy.linalg  # noqa: F401

T_DEPENDENCIES = time.perf_counter()

import gesforge.cli
import gesforge.construct
import gesforge.cyclo
import gesforge.exactverify
import gesforge.minors
import gesforge.partition

import workloads
from speed import DEPENDENCIES_REFERENCE_S, SpeedProbe

T_IMPORTED = time.perf_counter()


def warm(ops) -> None:
    """Fill the program's own caches for every root order the list uses."""
    for order in workloads.root_orders(ops):
        if workloads.is_prime(order):
            for index in (0, 1):
                gesforge.minors.modular_context(order, index).power_table()
        else:
            gesforge.cyclo.power_reduction_matrix(order)


def run_op(op: dict, scratch: Path, timed):
    """(seconds, answer, bytes written) for one operation.

    `timed(call)` runs the program call alone under the clock (and the
    tracer); building inputs and collecting answers stay outside it.
    """
    g = gesforge
    kind = op["kind"]
    if kind == "scan":
        seconds, scan = timed(lambda: g.exactverify.chebotarev_scan(op["order"], op["max_size"]))
        return seconds, {"scan": scan.to_doc()}, 0
    scales = None
    if "scales" in op:
        scales = tuple(tuple(g.construct.scale_from_json(s) for s in row) for row in op["scales"])
    params = g.construct.make_params(dims=op["dims"], num_vectors=op["k"], scales=scales)
    coefficients = g.partition.coefficient_matrix(params).exponents.tolist()
    if kind == "report":
        out = scratch / "report.json"
        argv = [
            "report", "--dims", ",".join(map(str, op["dims"])), "--k", str(op["k"]),
            "--seed", str(op["opt_seed"]), "--out", str(out),
        ]
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            seconds, code = timed(lambda: g.cli.main(argv))
        written = out.stat().st_size if out.exists() else 0
        doc = json.loads(out.read_text()) if written else None
        if doc is not None:
            del doc["vectors"]["amplitudes"]  # derived floats, not checked
            out.unlink()
        answer = {"exit": code, "doc": doc, "stdout": printed.getvalue(), "coefficients": coefficients}
        return seconds, answer, written
    table = workloads.tampered_table(op) if kind == "tampered" else None
    seconds, report = timed(lambda: g.exactverify.verify_all_bipartitions(params, table))
    answer = {"report": report.to_doc()}
    if kind == "exact":
        answer["table"] = g.construct.exponent_table(params)
        answer["coefficients"] = coefficients
    return seconds, answer, 0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True, help="parent perf_counter at spawn")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--spans", type=Path, help="trace the pass and write its spans here")
    parser.add_argument("--small", action="store_true")
    args = parser.parse_args()

    ops = workloads.build(args.workload, args.seed, args.small)
    warm(ops)
    t_warm = time.perf_counter()
    setup = {
        "setup_s": t_warm - args.spawned,
        "import_s": T_IMPORTED - args.spawned,
        "warm_s": t_warm - T_IMPORTED,
    }
    probe = SpeedProbe()
    tracer = None
    if args.spans is not None:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    def timed(index):
        def run(call):
            if tracer is not None:
                tracer.op = index
            try:
                start = time.perf_counter()
                result = call()
                return time.perf_counter() - start, result
            finally:
                if tracer is not None:
                    tracer.op = None

        return run

    scratch = args.out.parent
    raw, answers, written = [], [], 0
    for index, op in enumerate(ops):
        probe.read_if_due()
        try:
            seconds, answer, size = run_op(op, scratch, timed(index))
        except Exception as exc:  # recorded and reported as a wrong answer
            seconds, answer, size = 0.0, {"error": f"{type(exc).__name__}: {exc}"}, 0
        raw.append(seconds)
        answers.append(answer)
        written += size
    probe.read()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    scale = probe.scale()
    setup_scale = DEPENDENCIES_REFERENCE_S / (T_DEPENDENCIES - args.spawned)
    result = {
        "setup": {name: t * setup_scale for name, t in setup.items()},
        "times": [t * scale for t in raw],
        "raw_setup": setup, "raw_times": raw, "speed": probe.readings,
        "peak_rss_mb": peak_mb, "answers": answers,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(written)
        result["absent"] = tracer.absent()
        tracer.write_spans(args.spans, [op["id"] for op in ops])
    tmp = args.out.with_suffix(".tmp")
    tmp.write_text(json.dumps(result))
    os.replace(tmp, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
