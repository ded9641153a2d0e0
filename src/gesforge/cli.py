"""Command line front end.

Commands: construct, verify, chebotarev, basis, report.  Every artifact is
JSON with a schema marker and an echo of the resolved run configuration.
Exit codes: 0 certified / clean, 1 certification failed or zero minors
found, 2 invalid input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .construct import (
    ConstructionParams,
    exponent_table,
    make_params,
    scales_from_json,
    validate_params,
    vectors_from_doc,
    vectors_to_doc,
    SCHEMA_VERSION,
)
from .exactverify import chebotarev_scan, largest_scan_size, rank_full, verify_all_bipartitions
from .partition import build_nupb, coefficient_matrix
from .numcert import OptimizerOptions, certify_ges_numeric, ges_basis

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_INVALID = 2

SEED_ENV = "GESFORGE_SEED"


class InputError(ValueError):
    pass


def _run_config(args) -> dict:
    """The run_config block; verify and report add the resolved seed."""
    return {
        "tool": "gesforge",
        "tool_version": __version__,
        "command": args.command,
        "arguments": _echo_args(args),
    }


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    raw = os.environ.get(SEED_ENV)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise InputError(f"{SEED_ENV} must be an integer, got {raw!r}")


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}")


def _check_writable(path: str) -> None:
    """Refuse an output path that cannot be written, before any work.

    The file itself is opened only once there is something to write, so a
    run that fails leaves no empty file behind.
    """
    if os.path.isdir(path):
        raise InputError(f"cannot write {path}: it is a directory")
    folder = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(folder):
        raise InputError(f"cannot write {path}: no directory {folder}")
    if not os.access(path if os.path.exists(path) else folder, os.W_OK):
        raise InputError(f"cannot write {path}: permission denied")


def _write_json(path: str, doc: dict) -> None:
    try:
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}")


def _load_scales(path: str | None):
    if path is None:
        return None
    doc = _load_json(path)
    if not isinstance(doc, list):
        raise InputError("scale file must hold a list with one entry list per party")
    try:
        return scales_from_json(doc)
    except Exception as exc:
        raise InputError(f"bad scale entry: {exc}")


def _params_from_args(args) -> ConstructionParams:
    dims = None
    if args.dims:
        try:
            dims = tuple(int(x) for x in args.dims.split(","))
        except ValueError:
            raise InputError(f"--dims must be a comma list of integers, got {args.dims!r}")
    scales = _load_scales(getattr(args, "h_file", None))
    try:
        params = make_params(
            dims=dims,
            num_vectors=args.k,
            root_order=args.p,
            scales=scales,
            n=args.n,
            d=args.d,
        )
    except ValueError as exc:
        raise InputError(str(exc))
    problems = validate_params(params)
    if problems:
        raise InputError("invalid parameters: " + "; ".join(problems))
    return params


def _family_from_args(args):
    """(params, table, provenance) from --in or inline parameters."""
    path = getattr(args, "infile", None)
    if path:
        doc = _load_json(path)
        try:
            params, table, provenance = vectors_from_doc(doc)
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad vectors document: {exc}")
        problems = validate_params(params)
        if problems:
            raise InputError("invalid parameters in file: " + "; ".join(problems))
        return params, table, provenance
    if args.k is None:
        raise InputError("give --in or inline parameters including --k")
    params = _params_from_args(args)
    return params, exponent_table(params), "standard-recipe"


def _options_from_args(args) -> OptimizerOptions:
    return OptimizerOptions(restarts=args.restarts, seed=_resolve_seed(args))


def _summary_lines(params: ConstructionParams) -> list[str]:
    dims = "x".join(str(d) for d in params.dims)
    maximal = "true" if params.is_max_complement else "false"
    return [
        f"family: dims={dims} vectors={params.num_vectors} root_order={params.root_order}",
        f"complement dimension: {params.complement_dim} (maximal: {maximal})",
    ]


def _verdict(exact, numeric) -> tuple[bool, str]:
    """(certified, numeric summary line) for one family.

    The exact stage is a proof and decides alone; the numeric minimum is
    only a margin, an upper bound on the true minimum found by search.
    """
    value = f"min biproduct value {numeric.min_value:.3e} (threshold {numeric.threshold:.1e})"
    tight = "" if numeric.passed else ", below threshold (tight)"
    return bool(exact.passed), f"numeric margin: {value}{tight}"


def cmd_construct(args) -> int:
    params = _params_from_args(args)
    doc = vectors_to_doc(params)
    doc["run_config"] = _run_config(args)
    out = args.out or "vectors.json"
    _write_json(out, doc)
    for line in _summary_lines(params):
        print(line)
    print(f"wrote {out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    options = _options_from_args(args)
    params, table, provenance = _family_from_args(args)
    if args.out:
        _check_writable(args.out)
    exact = verify_all_bipartitions(params, table)
    numeric = certify_ges_numeric(build_nupb(params, table), params.dims, options)
    doc = {
        "schema": "gesforge/report",
        "schema_version": SCHEMA_VERSION,
        "run_config": {**_run_config(args), "seed": options.seed},
        "provenance": provenance,
        "exact": exact.to_doc(),
        "numeric": numeric.to_doc(),
    }
    passed, numeric_line = _verdict(exact, numeric)
    doc["passed"] = passed
    if args.out:
        _write_json(args.out, doc)
    print(f"provenance: {provenance}")
    print(f"exact: rank {exact.matrix_rank}/{exact.num_vectors}, " +
          ("all cuts span" if exact.passed else "FAILED"))
    if not exact.passed:
        for cut in exact.bipartitions:
            if not cut.ok:
                side = cut.right if cut.left.ok else cut.left
                print(f"  cut {cut.members}|{cut.complement}: witness {side.witness}")
    print(numeric_line)
    print(f"verdict: {'certified' if passed else 'not certified'}")
    return EXIT_OK if passed else EXIT_FAILED


def cmd_chebotarev(args) -> int:
    if args.p is None:
        raise InputError("--p is required")
    if args.p < 2:
        raise InputError("--p must be at least 2")
    max_size = args.max_size
    if max_size is None:
        default = min(args.p, 6)
        # past the limits, the default shrinks to the largest scan in reach;
        # with none in reach, the scan itself refuses
        max_size = largest_scan_size(args.p, default) or default
        if max_size < default:
            print(f"note: default max size lowered from {default} to {max_size}, the largest scan in reach")
    if max_size < 1:
        raise InputError("--max-size must be positive")
    if args.out:
        _check_writable(args.out)
    if max_size > args.p:
        print(f"note: max size clamped from {max_size} to {args.p}")
    scan = chebotarev_scan(args.p, max_size)
    doc = {
        "schema": "gesforge/chebotarev",
        "schema_version": SCHEMA_VERSION,
        "run_config": _run_config(args),
        "scan": scan.to_doc(),
    }
    if args.out:
        _write_json(args.out, doc)
    total = sum(scan.checked.values())
    kind = "prime" if scan.prime else "composite"
    print(f"order {scan.order} ({kind}): {total} minors up to size {scan.max_size}")
    if scan.clean:
        print("no zero minors")
        return EXIT_OK
    print(f"{scan.zero_count} zero minors; first witnesses:")
    for rows, cols in scan.witnesses[:5]:
        print(f"  rows {set(rows)} cols {set(cols)}")
    return EXIT_FAILED


def cmd_basis(args) -> int:
    if not args.infile:
        raise InputError("--in is required")
    params, table, provenance = _family_from_args(args)
    out = args.out or "basis.json"
    _check_writable(out)
    rows = build_nupb(params, table)
    _, exact_rank, _ = rank_full(coefficient_matrix(params, table))
    basis = ges_basis(rows, params.dims, exact_rank=exact_rank)
    doc = {
        "schema": "gesforge/basis",
        "schema_version": SCHEMA_VERSION,
        "run_config": _run_config(args),
        "provenance": provenance,
        "basis": basis.to_doc(),
    }
    _write_json(out, doc)
    print(f"complement dimension: {basis.dimension}")
    print(f"max residual: {basis.residual_max:.3e}")
    print(f"orthonormality error: {basis.orthonormality_error:.3e}")
    print(f"wrote {out}")
    return EXIT_OK


def cmd_report(args) -> int:
    options = _options_from_args(args)
    params, table, provenance = _family_from_args(args)
    out = args.out or "report.json"
    _check_writable(out)
    rows = build_nupb(params, table)
    vectors_doc = vectors_to_doc(params, table, provenance)
    exact = verify_all_bipartitions(params, table)
    numeric = certify_ges_numeric(rows, params.dims, options)
    basis = ges_basis(rows, params.dims, exact_rank=exact.matrix_rank)
    passed, numeric_line = _verdict(exact, numeric)
    doc = {
        "schema": "gesforge/full-report",
        "schema_version": SCHEMA_VERSION,
        "run_config": {**_run_config(args), "seed": options.seed},
        "vectors": vectors_doc,
        "exact": exact.to_doc(),
        "numeric": numeric.to_doc(),
        "basis": basis.to_doc(),
        "passed": passed,
    }
    _write_json(out, doc)
    for line in _summary_lines(params):
        print(line)
    print(numeric_line)
    print(f"verdict: {'certified' if passed else 'not certified'}")
    print(f"wrote {out}")
    return EXIT_OK if passed else EXIT_FAILED


def _echo_args(args) -> dict:
    skip = {"func"}
    return {k: v for k, v in vars(args).items() if k not in skip and v is not None}


def _add_family_flags(sub, with_input: bool) -> None:
    sub.add_argument("--n", type=int, help="number of parties")
    sub.add_argument("--d", type=int, help="uniform local dimension")
    sub.add_argument("--dims", help="comma list of local dimensions, e.g. 2,3")
    sub.add_argument("--k", type=int, help="number of vectors in the family")
    sub.add_argument("--p", type=int, help="root order (default: smallest usable prime)")
    sub.add_argument("--h-file", dest="h_file", help="JSON file of per-party scale factors")
    if with_input:
        sub.add_argument("--in", dest="infile", help="vectors JSON produced by construct")


def _add_numeric_flags(sub) -> None:
    sub.add_argument("--restarts", type=int, default=50)
    sub.add_argument("--seed", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gesforge",
        description="Construct product families from prime-order Fourier matrices and "
        "certify genuinely entangled complements.",
    )
    parser.add_argument("--version", action="version", version=f"gesforge {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    c = subs.add_parser("construct", help="build a family and write its vectors file")
    _add_family_flags(c, with_input=False)
    c.add_argument("--out", help="output path (default vectors.json)")
    c.set_defaults(func=cmd_construct)

    v = subs.add_parser("verify", help="exact plus numeric certification")
    _add_family_flags(v, with_input=True)
    _add_numeric_flags(v)
    v.add_argument("--out", help="write the combined report JSON here")
    v.set_defaults(func=cmd_verify)

    ch = subs.add_parser("chebotarev", help="scan Fourier minors for exact zeros")
    ch.add_argument("--p", type=int, help="matrix order to scan")
    ch.add_argument("--max-size", dest="max_size", type=int)
    ch.add_argument("--out")
    ch.set_defaults(func=cmd_chebotarev)

    b = subs.add_parser("basis", help="orthonormal basis of the complement")
    b.add_argument("--in", dest="infile", help="vectors JSON produced by construct")
    b.add_argument("--out", help="output path (default basis.json)")
    b.set_defaults(func=cmd_basis)

    r = subs.add_parser("report", help="construct, verify, and bundle everything")
    _add_family_flags(r, with_input=True)
    _add_numeric_flags(r)
    r.add_argument("--out", help="output path (default report.json)")
    r.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on bad usage, matching the invalid-input code
        return int(exc.code) if exc.code is not None else EXIT_INVALID
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
