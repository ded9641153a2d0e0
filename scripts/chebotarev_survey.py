#!/usr/bin/env python3
"""Survey Fourier-matrix minors for zero determinants across orders.

Prime orders should come back with no zero minors at any size (total
nonsingularity); composite orders always expose zeros.  The survey prints
one census line per order and exits 1 only if a prime order ever reports a
zero minor, which would indicate an arithmetic bug.  Each order's size is
clamped to the order and lowered, with a note, to the largest scan in reach
of the limits, as `gesforge chebotarev` lowers its default.  Bad input (an
order below 2, an empty range, a size below 1, an order with no scan in
reach, or an --out path that cannot be written) exits 2 with one error line
before any scan.
"""

import argparse
import sys

from gesforge import chebotarev_scan
from gesforge.cli import EXIT_FAILED, EXIT_INVALID, EXIT_OK, InputError, _check_writable, _write_json
from gesforge.construct import SCHEMA_VERSION
from gesforge.exactverify import largest_scan_size


def parse_orders(text: str) -> list[int]:
    """'A-B' (inclusive) or 'a,b,c', each order at least 2."""
    try:
        if "-" in text:
            lo, hi = (int(x) for x in text.split("-"))
            orders = list(range(lo, hi + 1))
        else:
            orders = [int(x) for x in text.split(",")]
    except ValueError:
        raise InputError(f"--orders must be a range A-B or a comma list of integers, got {text!r}")
    if not orders:
        raise InputError(f"--orders {text} holds no order")
    if min(orders) < 2:
        raise InputError(f"every order must be at least 2, got {min(orders)}")
    return orders


def plan(args) -> list[tuple[int, int]]:
    """(order, size) per order, every input checked before any scan."""
    orders = parse_orders(args.orders)
    if args.max_size < 1:
        raise InputError("--max-size must be positive")
    if args.out is not None:
        _check_writable(args.out)
    sizes = [largest_scan_size(p, args.max_size) for p in orders]
    for p, size in zip(orders, sizes):
        if not size:
            raise InputError(f"no scan of order {p} is in reach of the limits, not even to size 1")
    return list(zip(orders, sizes))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--orders", default="2-13",
                        help="range A-B or comma list of orders (default 2-13)")
    parser.add_argument("--max-size", type=int, default=6,
                        help="largest minor size to scan (clamped per order, lowered into reach)")
    parser.add_argument("--out", default=None, help="write all scans as JSON")
    args = parser.parse_args(argv)
    try:
        runs = plan(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID

    scans = []
    broken_primes = []
    for p, size in runs:
        if size < min(args.max_size, p):
            print(f"note: order {p}: max size lowered from {min(args.max_size, p)} to {size}, "
                  "the largest scan in reach")
        scan = chebotarev_scan(p, size)
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
    if args.out is not None:
        doc = {"schema": "gesforge/survey", "schema_version": SCHEMA_VERSION,
               "scans": [s.to_doc() for s in scans]}
        try:
            _write_json(args.out, doc)
        except InputError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INVALID
        print(f"wrote {args.out}")
    return EXIT_FAILED if broken_primes else EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
