"""Operation lists of the four workloads, made from the workload seed alone.

An operation is a plain JSON-serialisable dict, so the parent process and
every pass process build the same list from (workload, seed) and refer to
operations by position.  Which instances a workload holds never depends on
the seed: the seed only draws values that leave the amount of work alone
(exact scale values, optimizer and probe seeds), so runs with different
seeds time the same work.  The copied row of a tampered table is not
seeded, because which pair is copied moves the Fraction rank fallback's
cost by up to 60% (3x3x3 at k=11: 3.9 s to 6.3 s over eight pairs).
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

WORKLOADS = ("exact_ladder", "numeric_report", "fourier_survey", "tampered_tables")

# Every list is kept to 2-6 s a pass, so that a 30 s run has three to ten
# passes to take each operation's fastest time from; the machine's speed
# drifts by 20-60% in phases of seconds to minutes.
#
# Largest k timed per shape; None means every admissible k.  3x3x3 stops
# at k=18 for exact_ladder (1.1 s, where its 9-dimensional sides already
# hold 98% of the minors).  numeric_report keeps the three smallest k of
# the shapes with three or more parties (which hold every instance that
# fails), and 3x3x3 up to k=15, where the exact stage is still about a
# third of report; the rest of those ladders would cost another 3.5 s.
EXACT_SHAPES = {(2, 2): None, (2, 2, 2): None, (2, 2, 2, 2): None, (3, 3): None, (3, 3, 3): 18}
SCALED = {(3, 3): 7, (2, 2, 2): 6, (2, 2, 2, 2): 12, (3, 3, 3): 16}
REPORT_SHAPES = {
    (2, 2): None, (2, 3): None, (3, 3): None, (3, 4): None, (4, 4): None,
    (2, 2, 2): None, (2, 2, 3): 9, (2, 3, 3): 12, (2, 2, 2, 2): 11, (3, 3, 3): 15,
}
# The Fraction rank fallback makes tampered tables costly: 3x3x3 at k=11
# alone is about 3.5 s, 2x2x2x2 at k=9 and 10 about 0.5 and 0.9 s.  The
# 20-100 ms tables of the smaller shapes swing by 20-40% from run to run
# even so, so one k each keeps them off the median operation.
TAMPERED = (((3, 3), 8), ((2, 2, 2), 7), ((2, 2, 2, 2), 9), ((2, 2, 2, 2), 10), ((3, 3, 3), 11))
# (order, largest minor size).  Order 13 stops at size 4 (0.6 s; size 6
# alone takes 11.7 s) and order 10 at size 5 (1.8 s, 13,680 zeros; size 6
# takes 3.9 s for 18,680).  Order 12 at size 3 (0.4 s, 7,332 zeros) also
# makes the list even, so its median is the mean of the 10 ms order-6 scan
# and the 150 ms order-8 scan rather than the noisy order-6 scan alone.
SCANS = (
    (2, 6), (3, 6), (4, 6), (5, 6), (6, 6), (7, 6), (8, 6), (9, 6), (10, 5), (11, 6), (12, 3), (13, 4),
)

# Cut-down lists for the self-tests: the same operation kinds, a second each.
SMALL = {
    "exact_ladder": ({(2, 2): None, (2, 2, 2): None, (3, 3): 6}, {(2, 2, 2): 6}),
    "numeric_report": {(2, 2): None, (2, 3): None, (2, 2, 2): 6},
    "fourier_survey": ((2, 4), (3, 4), (4, 4), (5, 4), (6, 4)),
    "tampered_tables": (((3, 3), 5), ((3, 3), 6), ((2, 2, 2), 5), ((2, 2, 2), 6)),
}


def min_vectors(dims) -> int:
    """Worst-cut spanning demand: max over cuts of D_S + D_Sbar - 1."""
    total = math.prod(dims)
    worst = 0
    for mask in range(1, 2 ** len(dims) - 1):
        left = math.prod(d for m, d in enumerate(dims) if mask >> m & 1)
        worst = max(worst, left + total // left - 1)
    return worst


def ladder(shapes) -> list[tuple[tuple[int, ...], int]]:
    out = []
    for dims, top in shapes.items():
        hi = math.prod(dims) - 1 if top is None else top
        out.extend((dims, k) for k in range(min_vectors(dims), hi + 1))
    return out


def _label(dims) -> str:
    return "x".join(str(d) for d in dims)


def _gaussian_rational(rng: random.Random) -> dict:
    """A nonzero scale with small numerators and denominators.

    Small parts keep every scale a unit modulo the million-sized primes of
    the modular certificates, so scaled instances take the same route as
    unscaled ones.
    """
    while True:
        re = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        im = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if re or im:
            return {"re": str(re), "im": str(im)}


def build(workload: str, seed: int, small: bool = False) -> list[dict]:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    ops: list[dict] = []
    if workload == "exact_ladder":
        shapes, scaled = SMALL[workload] if small else (EXACT_SHAPES, SCALED)
        for dims, k in ladder(shapes):
            ops.append({"id": f"exact {_label(dims)} k={k}", "kind": "exact", "dims": dims, "k": k})
        for dims, k in scaled.items():
            scales = [[_gaussian_rational(rng) for _ in range(d)] for d in dims]
            ops.append({
                "id": f"exact {_label(dims)} k={k} scaled",
                "kind": "exact", "dims": dims, "k": k, "scales": scales,
            })
    elif workload == "numeric_report":
        shapes = SMALL[workload] if small else REPORT_SHAPES
        for dims, k in ladder(shapes):
            ops.append({
                "id": f"report {_label(dims)} k={k}", "kind": "report", "dims": dims, "k": k,
                "opt_seed": rng.randrange(2 ** 31), "probe_seed": rng.randrange(2 ** 31),
            })
    elif workload == "fourier_survey":
        for n, size in SMALL[workload] if small else SCANS:
            ops.append({"id": f"scan n={n} size<={size}", "kind": "scan", "order": n, "max_size": size})
    else:
        for dims, k in SMALL[workload] if small else TAMPERED:
            ops.append({
                "id": f"tampered {_label(dims)} k={k} row 0->{k - 1}",
                "kind": "tampered", "dims": dims, "k": k, "src": 0, "dst": k - 1,
            })
    for op in ops:
        if "dims" in op:
            op["dims"] = list(op["dims"])
    return ops


def root_orders(ops) -> set[int]:
    """The root orders a list touches: the smallest prime >= D per family."""
    orders = set()
    for op in ops:
        if op["kind"] == "scan":
            orders.add(op["order"])
        else:
            orders.add(smallest_prime_geq(math.prod(op["dims"])))
    return orders


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))


def smallest_prime_geq(x: int) -> int:
    n = max(2, x)
    while not is_prime(n):
        n += 1
    return n


def standard_table(dims, k: int, p: int) -> list[list[list[int]]]:
    """table[i][m][s] = i * s * W_m mod p, with W_m the mixed-radix weight."""
    weights = [math.prod(dims[m + 1:]) for m in range(len(dims))]
    return [[[i * s * weights[m] % p for s in range(d)] for m, d in enumerate(dims)] for i in range(k)]


def tampered_table(op: dict) -> list[list[list[int]]]:
    dims = op["dims"]
    table = standard_table(dims, op["k"], smallest_prime_geq(math.prod(dims)))
    table[op["dst"]] = [list(row) for row in table[op["src"]]]
    return table
