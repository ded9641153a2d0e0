"""Checks of gesforge's answers against computations made apart from it.

Nothing here imports gesforge.  Each checker takes an operation (see
workloads.py) and the program's answer as plain JSON data and returns
(failed, problems): `failed` marks the one known fault that the benchmark
counts instead of hiding (report and verify let the numeric threshold
overrule an exact proof), `problems` lists every wrong answer.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from workloads import is_prime, smallest_prime_geq, standard_table

WITNESS_CAP = 20  # chebotarev_scan keeps the first twenty zero minors
THRESHOLD = 1e-6  # the report command's default numeric threshold
PROBES = 16  # random biproduct probes per cut
ZERO_DET = 1e-9  # float |det| below this counts as an exact zero ...
NONZERO_DET = 1e-2  # ... above this as nonzero; in between the census refuses
# (orders 4..12 at sizes <= 6: zeros stay below 1e-12, nonzeros above 0.19)


class CensusError(RuntimeError):
    """A float determinant too close to zero to classify."""


def bipartitions(n: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Canonical cuts: every split whose first block holds party 0."""
    out = []
    for mask in range(2 ** (n - 1) - 1):
        members = (0,) + tuple(m + 1 for m in range(n - 1) if mask >> m & 1)
        out.append((members, tuple(m for m in range(n) if m not in members)))
    return out


def fourier_rows(dims, k: int) -> np.ndarray:
    """The family as a k x D matrix: entry (i, j) is w**(i*j), w of order p.

    Vector i puts exponent i*s*W_m on party m, and the exponents of a flat
    index j = sum s_m W_m add up to i*j.
    """
    total = math.prod(dims)
    p = smallest_prime_geq(total)
    i, j = np.meshgrid(np.arange(k), np.arange(total), indexing="ij")
    return np.exp(2j * np.pi * (i * j % p) / p)


def biproduct_value(rows: np.ndarray, state: np.ndarray) -> float:
    """<x|G|x> = sum_i |<v_i|x>|^2 over the normalized family members."""
    normalized = rows / np.linalg.norm(rows, axis=1)[:, None]
    return float(np.sum(np.abs(normalized.conj() @ state) ** 2))


def cut_matrix(state: np.ndarray, dims, members, complement) -> np.ndarray:
    """The state as a D_S x D_Sbar matrix across the cut."""
    order = list(members) + list(complement)
    left = math.prod(dims[m] for m in members)
    return state.reshape(dims).transpose(order).reshape(left, -1)


def product_probe(rng: np.random.Generator, dims, members, complement) -> np.ndarray:
    """A random normalized a (x) b across the cut, in global party order."""
    d_left = math.prod(dims[m] for m in members)
    d_right = math.prod(dims[m] for m in complement)
    a = rng.standard_normal(d_left) + 1j * rng.standard_normal(d_left)
    b = rng.standard_normal(d_right) + 1j * rng.standard_normal(d_right)
    grouped = np.outer(a / np.linalg.norm(a), b / np.linalg.norm(b))
    order = list(members) + list(complement)
    tensor = grouped.reshape([dims[m] for m in order]).transpose(np.argsort(order))
    return tensor.reshape(-1)


def _complex(pairs) -> np.ndarray:
    return np.array([complex(re, im) for re, im in pairs])


def _cut_problems(report: dict, dims, k: int, copied=None) -> list[str]:
    """Every cut spans, or, with a copied row pair, fails exactly as predicted.

    A table whose row b repeats row a has a singular D-subset exactly when
    the subset holds both rows (all other minors of a prime-order Fourier
    selection are nonzero), which makes C(k-2, D-2) singular subsets.
    """
    problems = []
    expected = bipartitions(len(dims))
    got = [(tuple(b["members"]), tuple(b["complement"])) for b in report["bipartitions"]]
    if sorted(got) != sorted(expected):
        return [f"cuts {got} differ from {expected}"]
    for cut in report["bipartitions"]:
        sides = (("left", cut["members"]), ("right", cut["complement"]))
        dim_of = {name: math.prod(dims[m] for m in parties) for name, parties in sides}
        required = dim_of["left"] + dim_of["right"] - 1
        if cut["required_vectors"] != required or cut["count_ok"] is not (k >= required):
            problems.append(f"cut {cut['members']}: spanning demand misreported")
        for name, parties in sides:
            side = cut[name]
            label = f"cut {cut['members']} {name}"
            if side is None:
                problems.append(f"{label}: no spanning check")
                continue
            dim = dim_of[name]
            singular = 0 if copied is None else math.comb(k - 2, dim - 2)
            if side["dimension"] != dim:
                problems.append(f"{label}: dimension {side['dimension']}, expected {dim}")
            if side["subsets_total"] != math.comb(k, dim):
                problems.append(f"{label}: {side['subsets_total']} subsets, expected C({k},{dim})")
            if side["failures"] != singular or side["ok"] is not (singular == 0):
                problems.append(f"{label}: {side['failures']} singular subsets, expected {singular}")
            witness = side["witness"]
            if copied is None and witness is not None:
                problems.append(f"{label}: witness {witness} on a spanning side")
            if copied is not None and (witness is None or not set(copied) <= set(witness)):
                problems.append(f"{label}: witness {witness} misses the copied rows {copied}")
    return problems


def _construction_problems(dims, k: int, answer: dict) -> list[str]:
    p = smallest_prime_geq(math.prod(dims))
    problems = []
    if answer["table"] != standard_table(dims, k, p):
        problems.append("exponent table differs from i*s*W_m mod p")
    coeff = [[i * j % p for j in range(math.prod(dims))] for i in range(k)]
    if answer["coefficients"] != coeff:
        problems.append("coefficient exponents differ from i*j mod p")
    return problems


def check_exact(op: dict, answer: dict) -> tuple[bool, list[str]]:
    dims, k = op["dims"], op["k"]
    report = answer["report"]
    problems = _construction_problems(dims, k, answer)
    if report["skipped"] or report["matrix_rank"] != k or report["full_rank"] is not True:
        problems.append(f"rank {report['matrix_rank']} (skipped={report['skipped']}), expected {k}")
    problems += _cut_problems(report, dims, k)
    if report["passed"] is not True:
        problems.append("exact stage did not pass")
    return False, problems


def check_scaled_pairs(ops, answers) -> list[str]:
    """Scaled verdicts equal the unscaled ones of the same family."""
    def verdict(report):
        cuts = [
            (c["members"], c["left"]["failures"], c["right"]["failures"], c["ok"])
            for c in report["bipartitions"]
        ]
        return report["matrix_rank"], report["passed"], cuts

    plain = {
        (tuple(op["dims"]), op["k"]): verdict(ans["report"])
        for op, ans in zip(ops, answers)
        if op["kind"] == "exact" and "scales" not in op and "error" not in ans
    }
    problems = []
    for op, ans in zip(ops, answers):
        if op["kind"] == "exact" and "scales" in op and "error" not in ans:
            if ans["report"]["scales_exact"] is not True:
                problems.append(f"{op['id']}: exact scales not recognised")
            if verdict(ans["report"]) != plain.get((tuple(op["dims"]), op["k"])):
                problems.append(f"{op['id']}: verdict differs from the unscaled family")
    return problems


def check_tampered(op: dict, answer: dict) -> tuple[bool, list[str]]:
    dims, k = op["dims"], op["k"]
    report = answer["report"]
    problems = []
    if report["matrix_rank"] != k - 1 or report["full_rank"] is not False:
        problems.append(f"rank {report['matrix_rank']}, expected {k - 1}")
    problems += _cut_problems(report, dims, k, copied=(op["src"], op["dst"]))
    if report["passed"] is not False:
        problems.append("a table with a repeated row passed")
    return False, problems


def check_report(op: dict, answer: dict) -> tuple[bool, list[str]]:
    dims, k = op["dims"], op["k"]
    doc = answer["doc"]
    if doc is None:
        return False, [f"exit {answer['exit']} without a report file"]
    table = [[[int(e) for e in loc] for loc in row] for row in doc["vectors"]["exponent_table"]]
    problems = _construction_problems(
        dims, k, {"table": table, "coefficients": answer["coefficients"]}
    )
    exact = doc["exact"]
    if exact["matrix_rank"] != k or exact["passed"] is not True:
        problems.append(f"exact stage: rank {exact['matrix_rank']}, passed {exact['passed']}")
    problems += _cut_problems(exact, dims, k)

    rows = fourier_rows(dims, k)
    numeric = doc["numeric"]
    rng = np.random.default_rng(op["probe_seed"])
    outcomes = {tuple(o["members"]): o for o in numeric["bipartitions"]}
    if sorted(outcomes) != sorted(m for m, _ in bipartitions(len(dims))):
        problems.append("numeric stage skipped a cut")
    for members, complement in bipartitions(len(dims)):
        outcome = outcomes.get(members)
        if outcome is None:
            continue
        x = _complex(outcome["witness"])
        sv = np.linalg.svd(cut_matrix(x, dims, members, complement), compute_uv=False)
        if abs(np.linalg.norm(x) - 1) > 1e-9 or (len(sv) > 1 and sv[1] > 1e-9 * sv[0]):
            problems.append(f"cut {members}: witness is not a normalized biproduct state")
        value = outcome["min_biproduct_value"]
        direct = biproduct_value(rows, x)
        if abs(direct - value) > 1e-9 + 1e-6 * value:
            problems.append(f"cut {members}: reported {value:.6e}, <x|G|x> = {direct:.6e}")
        probes = [
            biproduct_value(rows, product_probe(rng, dims, members, complement))
            for _ in range(PROBES)
        ]
        if value > min(probes) + 1e-9:
            problems.append(f"cut {members}: minimum {value:.6e} above a probe {min(probes):.6e}")
    if numeric["min_value"] != min(o["min_biproduct_value"] for o in outcomes.values()):
        problems.append("numeric min_value is not the least cut value")

    basis = doc["basis"]
    if basis is None:
        problems.append("no complement basis")
    else:
        columns = np.array([_complex(col) for col in basis["columns"]]).T.reshape(rows.shape[1], -1)
        if basis["dimension"] != math.prod(dims) - k or columns.shape[1] != basis["dimension"]:
            problems.append(f"basis dimension {basis['dimension']}, expected {math.prod(dims) - k}")
        if np.abs(columns.conj().T @ columns - np.eye(columns.shape[1])).max(initial=0) > 1e-9:
            problems.append("basis is not orthonormal")
        if np.abs(rows @ columns).max(initial=0) > 1e-9:
            problems.append("basis is not annihilated by the family")

    certified = doc["passed"] is True and answer["exit"] == 0
    says = "verdict: certified" in answer["stdout"]
    if certified != says:
        problems.append("printed verdict disagrees with the report")
    if certified:
        return False, problems
    if (
        answer["exit"] == 1
        and exact["passed"] is True
        and numeric["threshold"] == THRESHOLD
        and numeric["min_value"] <= THRESHOLD
    ):
        # the exact stage proved the family; the threshold alone refused it
        return True, problems
    problems.append(f"exit {answer['exit']}: not certified although the exact stage proves it")
    return False, problems


@lru_cache(maxsize=None)
def zero_minor_census(n: int, max_size: int) -> int:
    """Zero minors of the order-n Fourier matrix up to a size, by float det."""
    f = np.exp(2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n)
    zeros = 0
    for size in range(1, max_size + 1):
        combos = np.array(list(itertools.combinations(range(n), size)))
        for rows in combos:
            dets = np.abs(np.linalg.det(f[rows][:, combos].transpose(1, 0, 2)))
            if ((dets >= ZERO_DET) & (dets <= NONZERO_DET)).any():
                raise CensusError(f"order {n} size {size}: a |det| lies in the guard band")
            zeros += int((dets < ZERO_DET).sum())
    return zeros


def check_scan(op: dict, answer: dict) -> tuple[bool, list[str]]:
    n = op["order"]
    size = min(op["max_size"], n)
    doc = answer["scan"]
    problems = []
    if (doc["order"], doc["max_size"], doc["prime"]) != (n, size, is_prime(n)):
        problems.append(f"scan header {doc['order']}, {doc['max_size']}, {doc['prime']}")
    expected = {str(s): math.comb(n, s) ** 2 for s in range(1, size + 1)}
    if doc["checked"] != expected:
        problems.append(f"checked {doc['checked']}, expected C({n}, s)^2")
    zeros = 0 if is_prime(n) else zero_minor_census(n, size)
    if doc["zero_count"] != zeros or doc["clean"] is not (zeros == 0):
        problems.append(f"{doc['zero_count']} zero minors, expected {zeros}")
    if len(doc["witnesses"]) != min(zeros, WITNESS_CAP):
        problems.append(f"{len(doc['witnesses'])} witnesses for {zeros} zero minors")
    f = np.exp(2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n)
    for w in doc["witnesses"]:
        if not 1 <= w["size"] <= size or abs(np.linalg.det(f[np.ix_(w["rows"], w["cols"])])) > ZERO_DET:
            problems.append(f"witness rows {w['rows']} cols {w['cols']} is not a zero minor")
    return False, problems


CHECKERS = {"exact": check_exact, "tampered": check_tampered, "report": check_report, "scan": check_scan}


def check_pass(ops, answers) -> tuple[int, list[str]]:
    """(failed operations, problems) for one pass over the operation list."""
    failed = 0
    problems = []
    for op, answer in zip(ops, answers):
        if "error" in answer:
            problems.append(f"{op['id']}: raised {answer['error']}")
            continue
        try:
            op_failed, op_problems = CHECKERS[op["kind"]](op, answer)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            op_failed, op_problems = False, [f"malformed answer ({type(exc).__name__}: {exc})"]
        failed += op_failed
        problems += [f"{op['id']}: {p}" for p in op_problems]
    try:
        problems += check_scaled_pairs(ops, answers)
    except (KeyError, IndexError, TypeError) as exc:
        problems.append(f"scaled pairs: malformed answer ({type(exc).__name__}: {exc})")
    return failed, problems
