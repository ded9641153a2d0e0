#!/usr/bin/env python3
"""Survey Fourier-matrix minors for zero determinants across orders.

Prime orders should come back with no zero minors at any size (total
nonsingularity); composite orders always expose zeros.  The survey prints
one census line per order and exits nonzero only if a prime order ever
reports a zero minor, which would indicate an arithmetic bug.
"""

import argparse
import json

from gesforge import chebotarev_scan
from gesforge.construct import SCHEMA_VERSION


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--orders", default="2-13",
                        help="range A-B or comma list of orders (default 2-13)")
    parser.add_argument("--max-size", type=int, default=6,
                        help="largest minor size to scan (clamped per order)")
    parser.add_argument("--out", default=None, help="write all scans as JSON")
    args = parser.parse_args()

    if "-" in args.orders:
        lo, hi = (int(x) for x in args.orders.split("-"))
        orders = range(lo, hi + 1)
    else:
        orders = [int(x) for x in args.orders.split(",")]

    scans = []
    broken_primes = []
    for p in orders:
        scan = chebotarev_scan(p, args.max_size)
        scans.append(scan)
        checked = sum(scan.checked.values())
        kind = "prime" if scan.prime else "composite"
        verdict = "clean" if scan.clean else f"{scan.zero_count} zero minors"
        print(f"order {p:3d} ({kind:9s}) sizes<= {scan.max_size}: "
              f"{checked:>9d} minors, {verdict} [{scan.elapsed:.2f}s]", flush=True)
        for rows, cols in scan.witnesses[:3]:
            print(f"    zero minor: rows {list(rows)} cols {list(cols)}")
        if scan.prime and not scan.clean:
            broken_primes.append(p)

    if broken_primes:
        print(f"\nBUG: zero minors reported for prime orders {broken_primes}")
    if args.out:
        doc = {"schema": "gesforge/survey", "schema_version": SCHEMA_VERSION,
               "scans": [s.to_doc() for s in scans]}
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=2)
        print(f"wrote {args.out}")
    return 1 if broken_primes else 0


if __name__ == "__main__":
    raise SystemExit(main())
