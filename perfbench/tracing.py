"""Spans around gesforge's public functions, and the per-layer metrics.

`Tracer.install` wraps every public function of the layer modules and puts
the wrapper everywhere a gesforge module (or the package) holds a
reference to the original, so calls through `from .x import f` names are
caught too.  A call made while an operation runs becomes a span
[name, start, end, parent span, operation]; spans stay in memory until the
pass writes them out.  Self time is a span's duration minus the time its
direct child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter

LAYERS = ("construct", "partition", "exactverify", "minors", "cyclo", "numcert", "cli")

# Per-layer metric -> the functions it is read from.  A metric whose
# function no longer exists is reported as absent.
SOURCES = {
    "construct.self_s": (),
    "partition.self_s": (),
    "exactverify.rank_s": ("exactverify.rank_full",),
    "exactverify.spanning_s": ("exactverify.spanning_property",),
    "exactverify.scan_s": ("exactverify.chebotarev_scan",),
    "minors.decide_s": ("minors.decide_nonzero",),
    "minors.decided": ("minors.decide_nonzero",),
    "minors.minors_per_s": ("minors.decide_nonzero",),
    "minors.modular_s": ("minors.certify_nonzero_mod",),
    "minors.modular_attempts": ("minors.certify_nonzero_mod",),
    "minors.modular_yield": ("minors.certify_nonzero_mod",),
    "minors.reduction_s": ("minors.det_power_counts",),
    "minors.reduction_minors": ("minors.det_power_counts",),
    "cyclo.rank_s": ("cyclo.rank",),
    "cyclo.rank_calls": ("cyclo.rank",),
    "cyclo.value_s": ("cyclo.power_counts_value",),
    "cyclo.value_calls": ("cyclo.power_counts_value",),
    "numcert.search_s": ("numcert.certify_ges_numeric",),
    "numcert.basis_s": ("numcert.ges_basis",),
    "numcert.eigensolves": ("numcert.certify_ges_numeric",),
    "cli.self_s": (),
    "cli.bytes_written": ("cli.cmd_report",),
}


def _batch(args, kwargs) -> int:
    exponents = args[0] if args else kwargs["exponents"]
    return int(exponents.shape[0])


def _count_decide(counts, args, kwargs, result):
    counts["minors.decided"] += _batch(args, kwargs)


def _count_modular(counts, args, kwargs, result):
    counts["minors.modular_attempts"] += _batch(args, kwargs)
    counts["minors.modular_certified"] += int(result.sum())


def _count_reduction(counts, args, kwargs, result):
    counts["minors.reduction_minors"] += _batch(args, kwargs)


COUNTERS = {
    "minors.decide_nonzero": _count_decide,
    "minors.certify_nonzero_mod": _count_modular,
    "minors.det_power_counts": _count_reduction,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: int | None = None  # spans are recorded only while an operation runs
        self.counts: Counter = Counter()
        self.numcert_depth = 0
        self.functions: set[str] = set()

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"gesforge.{layer}")
            for name, obj in vars(module).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{name}", obj)
                    self.functions.add(f"{layer}.{name}")
        for module_name, module in list(sys.modules.items()):
            if module_name == "gesforge" or module_name.startswith("gesforge."):
                for attr, obj in list(vars(module).items()):
                    if id(obj) in wrappers and not attr.startswith("__"):
                        setattr(module, attr, wrappers[id(obj)])
        import numpy.linalg

        eigh = numpy.linalg.eigh

        @functools.wraps(eigh)
        def counted_eigh(*args, **kwargs):
            if self.numcert_depth:
                self.counts["numcert.eigensolves"] += 1
            return eigh(*args, **kwargs)

        numpy.linalg.eigh = counted_eigh

    def _wrap(self, name: str, fn):
        numcert = name.startswith("numcert.")
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            self.numcert_depth += numcert
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                self.stack.pop()
                self.numcert_depth -= numcert
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        return traced

    def absent(self) -> list[str]:
        return sorted(
            metric
            for metric, functions in SOURCES.items()
            if any(f not in self.functions for f in functions)
        )

    def metrics(self, bytes_written: int) -> dict[str, float]:
        """Per-layer metrics over every recorded span (absent ones read 0)."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        layer_self: Counter = Counter()
        own: Counter = Counter()
        total: Counter = Counter()
        calls: Counter = Counter()
        for (name, start, end, _, _), inner in zip(self.spans, covered):
            layer_self[name.split(".")[0]] += end - start - inner
            own[name] += end - start - inner
            total[name] += end - start
            calls[name] += 1
        c = self.counts
        decide_s = total["minors.decide_nonzero"]
        attempts = c["minors.modular_attempts"]
        return {
            "construct.self_s": layer_self["construct"],
            "partition.self_s": layer_self["partition"],
            "exactverify.rank_s": own["exactverify.rank_full"],
            "exactverify.spanning_s": own["exactverify.spanning_property"],
            "exactverify.scan_s": own["exactverify.chebotarev_scan"],
            "minors.decide_s": decide_s,
            "minors.decided": c["minors.decided"],
            "minors.minors_per_s": c["minors.decided"] / decide_s if decide_s else 0.0,
            "minors.modular_s": total["minors.certify_nonzero_mod"],
            "minors.modular_attempts": attempts,
            "minors.modular_yield": c["minors.modular_certified"] / attempts if attempts else 0.0,
            "minors.reduction_s": total["minors.det_power_counts"],
            "minors.reduction_minors": c["minors.reduction_minors"],
            "cyclo.rank_s": total["cyclo.rank"],
            "cyclo.rank_calls": calls["cyclo.rank"],
            "cyclo.value_s": total["cyclo.power_counts_value"],
            "cyclo.value_calls": calls["cyclo.power_counts_value"],
            "numcert.search_s": total["numcert.certify_ges_numeric"],
            "numcert.basis_s": total["numcert.ges_basis"],
            "numcert.eigensolves": c["numcert.eigensolves"],
            "cli.self_s": layer_self["cli"],
            "cli.bytes_written": bytes_written,
        }

    def write_spans(self, path, op_ids) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"operations": op_ids, "counts": dict(self.counts)}) + "\n")
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op}) + "\n")
