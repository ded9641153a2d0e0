"""Command-line behavior: artifacts, exit codes, seeds, input validation."""

import copy
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gesforge
from gesforge import cli
from gesforge.cli import EXIT_FAILED, EXIT_INVALID, EXIT_OK, main

GOLDEN = Path(__file__).parent / "data" / "three_qubit_vectors.json"


def run(argv, cwd):
    import os

    old = os.getcwd()
    os.chdir(cwd)
    try:
        return main(argv)
    finally:
        os.chdir(old)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_construct_standard(tmp_path, capsys):
    code = run(["construct", "--n", "3", "--d", "2", "--k", "5"], tmp_path)
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "complement dimension: 3" in out
    assert "maximal: true" in out
    doc = read_json(tmp_path / "vectors.json")
    assert doc["schema_version"] == 1
    assert doc["params"]["root_order"] == "11"
    assert doc["run_config"]["command"] == "construct"
    assert doc["exponent_table"][1] == [["0", "4"], ["0", "2"], ["0", "1"]]


def test_construct_rejects_oversized_family(tmp_path, capsys):
    code = run(["construct", "--n", "3", "--d", "2", "--k", "8"], tmp_path)
    assert code == EXIT_INVALID
    assert "at most 7" in capsys.readouterr().err


def test_construct_requires_vector_count(tmp_path, capsys):
    code = run(["construct", "--n", "3", "--d", "2"], tmp_path)
    assert code == EXIT_INVALID


def test_construct_heterogeneous_auto_prime(tmp_path):
    code = run(["construct", "--dims", "2,3", "--k", "4", "--out", "h.json"], tmp_path)
    assert code == EXIT_OK
    doc = read_json(tmp_path / "h.json")
    assert doc["params"]["root_order"] == "7"
    assert doc["params"]["dims"] == [2, 3]


def test_construct_rejects_bad_dims_string(tmp_path, capsys):
    code = run(["construct", "--dims", "2,x", "--k", "4"], tmp_path)
    assert code == EXIT_INVALID
    assert "comma list" in capsys.readouterr().err


def test_construct_past_the_root_order_limit_exits_at_once(tmp_path, capsys):
    # validation reads the worst cut's demand off the dimensions, without
    # walking the 2^30 - 2 cuts
    start = time.perf_counter()
    assert run(["construct", "--n", "30", "--d", "2", "--k", "5"], tmp_path) == EXIT_INVALID
    assert time.perf_counter() - start < 2.0
    assert "at least 536870913 are needed" in capsys.readouterr().err
    assert not (tmp_path / "vectors.json").exists()


def test_verify_round_trip(tmp_path, capsys):
    assert run(["construct", "--n", "3", "--d", "2", "--k", "5"], tmp_path) == EXIT_OK
    code = run(["verify", "--in", "vectors.json", "--out", "report.json"], tmp_path)
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "verdict: certified" in out
    doc = read_json(tmp_path / "report.json")
    assert doc["passed"] is True
    assert doc["exact"]["passed"] is True
    assert doc["numeric"]["passed"] is True
    assert doc["provenance"] == "standard-recipe"
    assert doc["run_config"]["tool"] == "gesforge"


def test_verify_inline_parameters(tmp_path):
    code = run(["verify", "--n", "2", "--d", "2", "--k", "3"], tmp_path)
    assert code == EXIT_OK


def test_verify_tampered_file_fails(tmp_path, capsys):
    assert run(["construct", "--n", "3", "--d", "2", "--k", "5"], tmp_path) == EXIT_OK
    doc = read_json(tmp_path / "vectors.json")
    doc["exponent_table"][2] = doc["exponent_table"][1]
    (tmp_path / "tampered.json").write_text(json.dumps(doc))
    code = run(["verify", "--in", "tampered.json"], tmp_path)
    assert code == EXIT_FAILED
    out = capsys.readouterr().out
    assert "rank 4/5" in out
    assert "verdict: not certified" in out


def test_verify_user_table_provenance(tmp_path, capsys):
    assert run(["construct", "--n", "3", "--d", "2", "--k", "5"], tmp_path) == EXIT_OK
    doc = read_json(tmp_path / "vectors.json")
    doc["exponent_table"][4][2][1] = "5"
    (tmp_path / "user.json").write_text(json.dumps(doc))
    code = run(["verify", "--in", "user.json", "--out", "rep.json"], tmp_path)
    assert code in (EXIT_OK, EXIT_FAILED)  # verdict computed either way
    assert "provenance: user-supplied" in capsys.readouterr().out
    assert read_json(tmp_path / "rep.json")["provenance"] == "user-supplied"


def test_verify_exact_scales_via_h_file(tmp_path):
    h = [["1", "3/4"], ["1", {"re": "0", "im": "2"}], ["1", "1"]]
    (tmp_path / "h.json").write_text(json.dumps(h))
    code = run(
        ["verify", "--n", "3", "--d", "2", "--k", "5", "--h-file", "h.json", "--out", "r.json"],
        tmp_path,
    )
    assert code == EXIT_OK
    doc = read_json(tmp_path / "r.json")
    assert doc["exact"]["skipped"] is False
    assert doc["exact"]["scales_exact"] is True


def test_verify_float_scales_get_exact_verdict(tmp_path, capsys):
    h = [[[1.0, 0.0], [0.5, 0.5]], ["1", "1"], ["1", "1"]]
    (tmp_path / "h.json").write_text(json.dumps(h))
    code = run(
        ["verify", "--n", "3", "--d", "2", "--k", "5", "--h-file", "h.json", "--out", "r.json"],
        tmp_path,
    )
    assert code == EXIT_OK
    assert "exact: rank 5/5, all cuts span" in capsys.readouterr().out
    doc = read_json(tmp_path / "r.json")
    assert doc["exact"]["scales_exact"] is False
    assert doc["exact"]["skipped"] is False
    assert doc["exact"]["skip_reason"] is None
    assert doc["exact"]["passed"] is True


@pytest.mark.parametrize("entry", ("NaN", "Infinity", "-Infinity"))
def test_verify_non_finite_scale_rejected(tmp_path, capsys, entry):
    # json reads NaN and Infinity; such a scale would void the exact verdict
    (tmp_path / "h.json").write_text(f'[["1", "1"], ["1", [0.5, {entry}]], ["1", "1"]]')
    code = run(["verify", "--n", "3", "--d", "2", "--k", "5", "--h-file", "h.json"], tmp_path)
    assert code == EXIT_INVALID
    assert "scale for party 1 level 1 is not finite" in capsys.readouterr().err


def test_verify_float_in_an_exact_scale_rejected(tmp_path, capsys):
    # {"re": true, "im": 0.1} is no rational string: it must not pass as exact
    (tmp_path / "h.json").write_text('[["1", "1"], ["1", {"re": true, "im": 0.1}], ["1", "1"]]')
    code = run(["verify", "--n", "3", "--d", "2", "--k", "5", "--h-file", "h.json"], tmp_path)
    assert code == EXIT_INVALID
    assert "bad scale entry: an exact scale part is a rational string" in capsys.readouterr().err


def test_verify_zero_scale_rejected(tmp_path, capsys):
    h = [["0", "1"], ["1", "1"], ["1", "1"]]
    (tmp_path / "h.json").write_text(json.dumps(h))
    code = run(["verify", "--n", "3", "--d", "2", "--k", "5", "--h-file", "h.json"], tmp_path)
    assert code == EXIT_INVALID
    assert "zero" in capsys.readouterr().err


def test_scale_row_as_a_string_exit_invalid(tmp_path, capsys):
    # "12" is no row of scales, not the two scales 1 and 2
    (tmp_path / "h.json").write_text(json.dumps(["12", ["1", "1"], ["1", "1"]]))
    argv = ["verify", "--n", "3", "--d", "2", "--k", "5", "--h-file", "h.json", "--out", "r.json"]
    assert run(argv, tmp_path) == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("error: bad scale entry: a party's scales must be a JSON list")
    assert not (tmp_path / "r.json").exists()


HUGE_EXACT = "1" + "0" * 400
TINY_EXACT = "1/1" + "0" * 400


@pytest.mark.parametrize(
    "scales",
    (
        [[HUGE_EXACT, "1"], ["1", "1"]],
        [[[1e300, 0], [1e300, 0]], [[1e300, 0], [1e300, 0]]],
        [[TINY_EXACT, "1"], ["1", "1"]],
        [[[True, 0], "1"], ["1", "1"]],
        [["1", [1, False]], ["1", "1"]],
        [[[1e200, 0], [1e200, 0]], ["1", "1"]],
        [[[1e-200, 0], [1e-200, 0]], ["1", "1"]],
    ),
    ids=(
        "huge-exact", "huge-float-product", "tiny-exact", "boolean-re", "boolean-im",
        "huge-row-norm", "tiny-row-norm",
    ),
)
def test_scales_outside_double_range_exit_invalid(tmp_path, capsys, scales):
    # a scale must be a finite nonzero double, and so must the column
    # scales and row norms it makes; booleans are not numbers
    (tmp_path / "h.json").write_text(json.dumps(scales))
    inline = ["--n", "2", "--d", "2", "--k", "3"]
    assert run(["construct", *inline, "--out", "v.json"], tmp_path) == EXIT_OK
    doc = read_json(tmp_path / "v.json")
    doc["params"]["scales"] = scales
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    capsys.readouterr()
    inline += ["--h-file", "h.json"]
    for argv in (
        ["construct", *inline],
        ["verify", *inline, "--restarts", "2"],
        ["report", *inline, "--restarts", "2"],
        ["verify", "--in", "bad.json", "--restarts", "2"],
        ["report", "--in", "bad.json", "--restarts", "2"],
        ["basis", "--in", "bad.json"],
    ):
        assert run(argv, tmp_path) == EXIT_INVALID, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, argv


def test_chebotarev_prime_clean(tmp_path, capsys):
    code = run(["chebotarev", "--p", "7", "--max-size", "5", "--out", "scan.json"], tmp_path)
    assert code == EXIT_OK
    assert "no zero minors" in capsys.readouterr().out
    doc = read_json(tmp_path / "scan.json")
    assert doc["scan"]["clean"] is True
    assert doc["scan"]["witnesses"] == []


def test_chebotarev_default_size_shrinks_into_reach(tmp_path, capsys):
    # size 4 of order 47 would visit 231.5M minors of the sets that hold 0,
    # above MAX_SCAN_MINORS; size 3 visits 1.07M
    code = run(["chebotarev", "--p", "47", "--out", "scan.json"], tmp_path)
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "default max size lowered from 6 to 3" in out
    assert "no zero minors" in out
    assert read_json(tmp_path / "scan.json")["scan"]["max_size"] == 3
    assert run(["chebotarev", "--p", "47", "--max-size", "4"], tmp_path) == EXIT_INVALID


def test_the_package_runs_without_mpmath(tmp_path):
    # no module of the package imports mpmath or scipy: with both imports
    # made to fail, a composite scan (which finds witnesses and checks
    # them), the exact stage on a tampered table and every command still run
    script = """
import sys
sys.modules["mpmath"] = None
sys.modules["scipy"] = None
from gesforge import chebotarev_scan, exponent_table, make_params, verify_all_bipartitions
from gesforge.cli import main
scan = chebotarev_scan(12, 4)
assert scan.witnesses and scan.zero_count > 0
params = make_params(dims=(2, 2, 2), num_vectors=7)
table = [[list(loc) for loc in row] for row in exponent_table(params)]
table[6] = table[0]
assert not verify_all_bipartitions(params, table).passed
assert main(["construct", "--dims", "2,2", "--k", "3"]) == 0
assert main(["verify", "--in", "vectors.json", "--restarts", "2"]) == 0
assert main(["chebotarev", "--p", "4", "--max-size", "2"]) == 1
assert main(["basis", "--in", "vectors.json"]) == 0
sys.exit(main(["report", "--dims", "2,2", "--k", "3"]))
"""
    path = [str(Path(gesforge.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}, timeout=120,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert "complement dimension: 1" in proc.stdout
    assert "verdict: certified" in proc.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "--dims", "2,2", "--k", "3"],
        ["verify", "--dims", "2,2", "--k", "3", "--restarts", "2"],
        ["chebotarev", "--p", "5", "--max-size", "2"],
        ["basis", "--in", "vectors.json"],
        ["report", "--dims", "2,2", "--k", "3", "--restarts", "2"],
    ],
    ids=lambda argv: argv[0],
)
@pytest.mark.parametrize("target", ["missing-directory", "directory", "empty"])
def test_unwritable_out_is_invalid_input(tmp_path, capsys, monkeypatch, argv, target):
    # an output path that cannot be opened is bad input (exit 2, one error
    # line), not a failed certification or scan (exit 1), and it is refused
    # before any exact, numeric or scan work starts; an empty path is one
    # too, not a request for the default file or for no file
    out = {"missing-directory": tmp_path / "missing" / "out.json", "directory": tmp_path,
           "empty": ""}[target]
    assert run(["construct", "--dims", "2,2", "--k", "3"], tmp_path) == EXIT_OK
    capsys.readouterr()
    files = {path.name: path.read_bytes() for path in tmp_path.iterdir()}

    def no_work(*args, **kwargs):
        raise AssertionError("work started before --out was checked")

    for name in ("verify_all_bipartitions", "certify_ges_numeric", "chebotarev_scan", "rank_full"):
        monkeypatch.setattr(cli, name, no_work)
    assert run([*argv, "--out", str(out)], tmp_path) == EXIT_INVALID
    shown = "''" if target == "empty" else out
    assert capsys.readouterr().err.startswith(f"error: cannot write {shown}: ")
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == files


def test_chebotarev_composite_witnesses(tmp_path, capsys):
    code = run(["chebotarev", "--p", "4", "--max-size", "2", "--out", "scan.json"], tmp_path)
    assert code == EXIT_FAILED
    assert "rows {0, 2} cols {0, 2}" in capsys.readouterr().out
    doc = read_json(tmp_path / "scan.json")
    assert {"size": 2, "rows": [0, 2], "cols": [0, 2]} in doc["scan"]["witnesses"]


def test_chebotarev_requires_order(tmp_path):
    assert run(["chebotarev"], tmp_path) == EXIT_INVALID
    assert run(["chebotarev", "--p", "1"], tmp_path) == EXIT_INVALID


@pytest.mark.parametrize(
    "flags",
    (
        ["--p", "1000000007"],
        ["--p", "100003", "--max-size", "2"],
        ["--p", "8192", "--max-size", "1"],
        ["--p", "16", "--max-size", "10"],
    ),
    ids=("1000000007", "100003-size2", "8192-size1", "16-size10"),
)
def test_chebotarev_huge_order_exits_invalid(tmp_path, capsys, flags):
    assert run(["chebotarev", *flags], tmp_path) == EXIT_INVALID
    assert "above the supported" in capsys.readouterr().err


def test_basis_outputs(tmp_path, capsys):
    assert run(["construct", "--n", "3", "--d", "2", "--k", "5"], tmp_path) == EXIT_OK
    code = run(["basis", "--in", "vectors.json"], tmp_path)
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "complement dimension: 3" in out
    doc = read_json(tmp_path / "basis.json")
    basis = doc["basis"]
    assert basis["residual_max"] < 1e-10
    assert basis["orthonormality_error"] < 1e-10
    assert len(basis["columns"]) == 3
    assert all(len(col) == 8 for col in basis["columns"])


def test_basis_requires_input(tmp_path):
    assert run(["basis"], tmp_path) == EXIT_INVALID


def test_report_bundles_everything(tmp_path):
    code = run(["report", "--n", "3", "--d", "2", "--k", "5", "--out", "full.json"], tmp_path)
    assert code == EXIT_OK
    doc = read_json(tmp_path / "full.json")
    assert doc["passed"] is True
    assert doc["vectors"]["schema"] == "gesforge/vectors"
    assert doc["exact"]["passed"] is True
    assert doc["numeric"]["passed"] is True
    assert doc["basis"]["residual_max"] < 1e-10


def test_report_residual_scales_with_the_rows(tmp_path):
    # a uniform scale of 1e6 on party 0 changes neither span nor complement;
    # its absolute residual (about 3.5e-10) is still a relative 3.5e-16
    (tmp_path / "h.json").write_text(json.dumps([[[1e6, 0], [1e6, 0]], ["1", "1"]]))
    argv = ["--n", "2", "--d", "2", "--k", "3", "--h-file", "h.json", "--restarts", "2"]
    assert run(["verify", *argv], tmp_path) == EXIT_OK
    assert run(["report", *argv, "--out", "r.json"], tmp_path) == EXIT_OK
    residual = read_json(tmp_path / "r.json")["basis"]["residual_max"]
    assert residual < 1e-10 * 1e6


@pytest.mark.parametrize("order", ("1000000007", "1000000000000000003"))
def test_huge_root_order_exits_invalid(tmp_path, capsys, order):
    # refused before any primality test or power table, so it exits at once
    argv = ["verify", "--n", "2", "--d", "2", "--k", "3", "--p", order]
    assert run(argv, tmp_path) == EXIT_INVALID
    assert f"root order {order} exceeds" in capsys.readouterr().err
    doc = golden_vectors_doc()
    doc["params"]["root_order"] = order
    (tmp_path / "big.json").write_text(json.dumps(doc))
    assert run(["verify", "--in", "big.json", "--restarts", "2"], tmp_path) == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("error: invalid parameters in file") and f"{order} exceeds" in err


def test_large_prime_root_order_below_the_limit_certifies(tmp_path):
    argv = ["verify", "--n", "2", "--d", "2", "--k", "3", "--p", "1000003", "--restarts", "2"]
    assert run(argv, tmp_path) == EXIT_OK


def test_large_prime_root_order_proves_a_tampered_table(tmp_path, capsys):
    # the zero proofs of a rank-deficient table run at this order too: its
    # CRT bound needs max|R| = 1, not the 10**6 x 10**6 reduction matrix
    assert run(["construct", "--n", "2", "--d", "2", "--k", "3", "--p", "1000003"], tmp_path) == EXIT_OK
    doc = read_json(tmp_path / "vectors.json")
    doc["exponent_table"][-1] = doc["exponent_table"][0]
    (tmp_path / "tampered.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["verify", "--in", "tampered.json", "--restarts", "2"], tmp_path) == EXIT_FAILED
    assert "exact: rank 2/3, FAILED" in capsys.readouterr().out


def test_verify_refuses_a_scan_out_of_reach(tmp_path, capsys):
    # a tampered 4x4x4 table at k=40 needs a 16-dimensional side's
    # C(40, 16) = 6.3e10 maximal minors: invalid input, not a crash
    assert run(["construct", "--dims", "4,4,4", "--k", "40"], tmp_path) == EXIT_OK
    doc = read_json(tmp_path / "vectors.json")
    doc["exponent_table"][39] = doc["exponent_table"][0]
    (tmp_path / "tampered.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["verify", "--in", "tampered.json", "--restarts", "2"], tmp_path) == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "above the supported" in err


@pytest.mark.parametrize(
    "dims, k", (("3,3,3,3", 29), ("2,2,2,2,2,2", 33), ("4,4,4", 40))
)
def test_verify_certifies_shapes_past_the_scan(tmp_path, capsys, dims, k):
    argv = ["verify", "--dims", dims, "--k", str(k), "--restarts", "2", "--seed", "1"]
    assert run(argv + ["--out", "r.json"], tmp_path) == EXIT_OK
    assert "verdict: certified" in capsys.readouterr().out
    exact = read_json(tmp_path / "r.json")["exact"]
    assert exact["rank_method"] == "chebotarev" and exact["passed"] is True
    sides = [cut[s] for cut in exact["bipartitions"] for s in ("left", "right")]
    assert all(side["methods"] == {"chebotarev": side["subsets_total"]} for side in sides)


def spy_on_exponent_table(monkeypatch) -> list:
    """Record the params of each `construct.exponent_table` call, through
    every gesforge module that holds the function."""
    from gesforge import construct

    real, calls, holders = construct.exponent_table, [], []

    def spy(params):
        calls.append(params)
        return real(params)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "gesforge" and getattr(module, "exponent_table", None) is real:
            monkeypatch.setattr(module, "exponent_table", spy)
            holders.append(name)
    assert {"gesforge", "gesforge.construct", "gesforge.cli"} <= set(holders)
    return calls


def test_exponent_table_runs_once_per_command(tmp_path, monkeypatch):
    # the library builds its exponents as int blocks from the params; a
    # command builds the nested table once, for the vectors document
    from gesforge import build_nupb, coefficient_matrix, factor_matrices, make_params
    from gesforge import verify_all_bipartitions
    from gesforge.partition import Bipartition

    calls = spy_on_exponent_table(monkeypatch)
    params = make_params(n=3, d=2, num_vectors=5)
    verify_all_bipartitions(params)
    factor_matrices(params, Bipartition(3, (0,)))
    coefficient_matrix(params)
    build_nupb(params)
    assert calls == []
    for command in ("verify", "report"):
        argv = [command, "--n", "3", "--d", "2", "--k", "5", "--restarts", "2", "--out", "r.json"]
        assert run(argv, tmp_path) == EXIT_OK
        assert calls == [params], command
        calls.clear()


VERIFY_SMALL = ["verify", "--n", "2", "--d", "2", "--k", "3", "--restarts", "2", "--out", "r.json"]


def test_seed_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("GESFORGE_SEED", "42")
    assert run(VERIFY_SMALL, tmp_path) == EXIT_OK
    doc = read_json(tmp_path / "r.json")
    assert doc["run_config"]["seed"] == doc["numeric"]["options"]["seed"] == 42
    # explicit flag wins over the environment
    assert run(VERIFY_SMALL + ["--seed", "7"], tmp_path) == EXIT_OK
    doc = read_json(tmp_path / "r.json")
    assert doc["run_config"]["seed"] == doc["numeric"]["options"]["seed"] == 7


def test_bad_seed_environment(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("GESFORGE_SEED", "not-a-number")
    code = run(VERIFY_SMALL, tmp_path)
    assert code == EXIT_INVALID
    assert "GESFORGE_SEED must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("command", ("verify", "report"))
def test_negative_seed_rejected_before_any_work(tmp_path, monkeypatch, capsys, command):
    # by flag for verify, from the environment for report: exit 2 naming the
    # seed, before the exact stage runs
    def no_work(*args):
        raise AssertionError("the exact stage ran")

    monkeypatch.setattr(cli, "verify_all_bipartitions", no_work)
    argv = [command, "--n", "2", "--d", "2", "--k", "3", "--restarts", "2"]
    if command == "verify":
        argv += ["--seed", "-1"]
    else:
        monkeypatch.setenv("GESFORGE_SEED", "-5")
    assert run(argv, tmp_path) == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("error: seed must be a non-negative integer, got -")


SEEDLESS = {
    "construct": (["construct", "--n", "2", "--d", "2", "--k", "3"], "vectors.json"),
    "chebotarev": (["chebotarev", "--p", "5", "--max-size", "2", "--out", "scan.json"], "scan.json"),
    "basis": (["basis", "--in", "vectors.json"], "basis.json"),
}


@pytest.mark.parametrize("command", SEEDLESS)
def test_commands_that_draw_nothing_take_no_seed(tmp_path, monkeypatch, command):
    argv, out = SEEDLESS[command]
    assert run(SEEDLESS["construct"][0], tmp_path) == EXIT_OK
    assert run(argv + ["--seed", "1"], tmp_path) == EXIT_INVALID
    # nor do they read the environment's seed
    monkeypatch.setenv("GESFORGE_SEED", "not-a-number")
    assert run(argv, tmp_path) == EXIT_OK
    assert "seed" not in read_json(tmp_path / out)["run_config"]


def test_missing_input_file(tmp_path, capsys):
    code = run(["verify", "--in", "nope.json"], tmp_path)
    assert code == EXIT_INVALID
    assert "cannot read" in capsys.readouterr().err


def test_unparseable_input_file(tmp_path):
    (tmp_path / "junk.json").write_text("{not json")
    assert run(["verify", "--in", "junk.json"], tmp_path) == EXIT_INVALID


def test_wrong_schema_rejected(tmp_path):
    (tmp_path / "odd.json").write_text(json.dumps({"schema": "gesforge/report"}))
    assert run(["verify", "--in", "odd.json"], tmp_path) == EXIT_INVALID


def test_unknown_command_exit_code(tmp_path, capsys):
    assert run(["frobnicate"], tmp_path) == EXIT_INVALID


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def without_elapsed(node):
    """A document with every elapsed_seconds key dropped, the one field a rerun may change."""
    if isinstance(node, dict):
        return {k: without_elapsed(v) for k, v in node.items() if k != "elapsed_seconds"}
    if isinstance(node, list):
        return [without_elapsed(v) for v in node]
    return node


def test_calls_in_one_interpreter_match_fresh_processes(tmp_path, capsys):
    # the one parser serves every call of a process, after a usage error and
    # --version as well; each call must act as in a fresh interpreter, and
    # every artifact is one line of JSON
    calls = [
        (["report", "--frobnicate"], None),
        (["--version"], None),
        (["construct", "--dims", "2,2", "--k", "3", "--out", "vectors.json"], "vectors.json"),
        (["report", "--dims", "2,3", "--k", "4", "--restarts", "2", "--seed", "3",
          "--out", "report.json"], "report.json"),
        (["verify", "--in", "vectors.json", "--restarts", "2", "--out", "verify.json"],
         "verify.json"),
        (["chebotarev", "--p", "4", "--max-size", "2", "--out", "scan.json"], "scan.json"),
        (["basis", "--in", "vectors.json", "--out", "basis.json"], "basis.json"),
    ]
    here, fresh = tmp_path / "here", tmp_path / "fresh"
    here.mkdir()
    fresh.mkdir()
    path = [str(Path(gesforge.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    for argv, artifact in calls:
        code = run(argv, here)
        captured = capsys.readouterr()
        proc = subprocess.run(
            [sys.executable, "-m", "gesforge", *argv], cwd=fresh, capture_output=True, text=True,
            env=env, timeout=120,
        )
        assert (code, captured.out, captured.err) == (proc.returncode, proc.stdout, proc.stderr)
        if artifact is None:
            continue
        text = (here / artifact).read_text()
        assert text.endswith("\n") and text.count("\n") == 1
        fresh_doc = json.loads((fresh / artifact).read_text())
        assert without_elapsed(json.loads(text)) == without_elapsed(fresh_doc)


def test_verify_reruns_reproduce_verdict(tmp_path):
    assert run(["construct", "--n", "3", "--d", "2", "--k", "5"], tmp_path) == EXIT_OK
    for name in ("a.json", "b.json"):
        assert run(
            ["verify", "--in", "vectors.json", "--seed", "5", "--out", name], tmp_path
        ) == EXIT_OK
    a = read_json(tmp_path / "a.json")
    b = read_json(tmp_path / "b.json")
    # the stage's own wall time is the one key a rerun may change
    assert a["numeric"].pop("elapsed_seconds") >= 0.0
    assert b["numeric"].pop("elapsed_seconds") >= 0.0
    assert a["numeric"] == b["numeric"]
    assert a["exact"]["passed"] == b["exact"]["passed"]

@pytest.mark.parametrize("command", ("verify", "report"))
def test_exact_proof_decides_below_numeric_threshold(tmp_path, capsys, command):
    # three qutrits at eleven vectors: the exact stage proves the family,
    # while the numeric minimum (about 2e-12) sits below the 1e-6 threshold
    code = run([command, "--n", "3", "--d", "3", "--k", "11", "--out", "r.json"], tmp_path)
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "verdict: certified" in out
    assert "below threshold (tight)" in out
    doc = read_json(tmp_path / "r.json")
    assert doc["passed"] is True
    assert doc["exact"]["passed"] is True
    assert doc["numeric"]["passed"] is False


def test_float_scales_take_the_exact_verdict_below_threshold(tmp_path, capsys):
    # a numeric minimum under the threshold is only a margin, also with float
    # scales: three qutrits at eleven vectors are tight (KNOWN_TIGHT)
    h = [[[1.0, 0.0], [0.5, 0.5], "1"], ["1", "1", "1"], ["1", "1", "1"]]
    (tmp_path / "h.json").write_text(json.dumps(h))
    argv = ["verify", "--n", "3", "--d", "3", "--k", "11", "--h-file", "h.json", "--out", "r.json"]
    assert run(argv, tmp_path) == EXIT_OK
    out = capsys.readouterr().out
    assert "below threshold (tight)" in out and "verdict: certified" in out
    doc = read_json(tmp_path / "r.json")
    assert doc["passed"] is True and doc["numeric"]["passed"] is False


@pytest.mark.parametrize("command", ("verify", "report"))
@pytest.mark.parametrize(
    "flag,value",
    (
        ("--restarts", "0"),
        ("--restarts", "-3"),
        ("--tol", "nan"),
        ("--tol", "-1"),
        ("--threshold", "nan"),
        ("--threshold", "inf"),
    ),
)
def test_bad_numeric_options_exit_invalid(tmp_path, capsys, command, flag, value):
    code = run([command, "--dims", "2,2", "--k", "3", flag, value, "--out", "r.json"], tmp_path)
    assert code == EXIT_INVALID
    assert flag.lstrip("-") in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("command", ("verify", "report"))
def test_restart_count_past_the_search_bound_exits_invalid(tmp_path, capsys, command):
    argv = [command, "--n", "2", "--d", "2", "--k", "3", "--restarts", "100000000", "--out", "r.json"]
    assert run(argv, tmp_path) == EXIT_INVALID
    assert "use fewer restarts" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("command", ("verify", "report"))
def test_numeric_stage_reports_its_elapsed_time(tmp_path, command):
    argv = [command, "--n", "2", "--d", "2", "--k", "3", "--restarts", "2", "--out", "r.json"]
    assert run(argv, tmp_path) == EXIT_OK
    numeric = read_json(tmp_path / "r.json")["numeric"]
    assert 0.0 < numeric["elapsed_seconds"] < 60.0


def key_paths(doc, prefix=""):
    """Dotted paths of every key under doc, lists collapsed to [], values ignored."""
    if isinstance(doc, dict):
        paths = set()
        for key, value in doc.items():
            path = f"{prefix}.{key}" if prefix else key
            paths |= {path} | key_paths(value, path)
        return paths
    if isinstance(doc, list):
        return set().union(*(key_paths(item, prefix + "[]") for item in doc))
    return set()


SIDE_KEYS = ("dimension", "failures", "methods", "methods.chebotarev", "ok", "parties",
             "subsets_total", "witness")
REPORT_KEYS = {
    "schema", "schema_version", "passed",
    "run_config", "run_config.arguments", "run_config.command", "run_config.seed",
    "run_config.tool", "run_config.tool_version",
    "exact", "exact.dims", "exact.elapsed_seconds", "exact.full_rank", "exact.matrix_rank",
    "exact.num_vectors", "exact.passed", "exact.rank_method", "exact.root_order",
    "exact.scales_exact", "exact.skip_reason", "exact.skipped",
    "exact.bipartitions", "exact.bipartitions[].complement", "exact.bipartitions[].count_ok",
    "exact.bipartitions[].members", "exact.bipartitions[].ok",
    "exact.bipartitions[].required_vectors",
    *(f"exact.bipartitions[].{side}" for side in ("left", "right")),
    *(f"exact.bipartitions[].{side}.{key}" for side in ("left", "right") for key in SIDE_KEYS),
    "numeric", "numeric.dims", "numeric.elapsed_seconds", "numeric.min_value",
    "numeric.num_vectors", "numeric.passed", "numeric.threshold",
    "numeric.options", "numeric.options.max_sweeps", "numeric.options.restarts",
    "numeric.options.seed", "numeric.options.threshold", "numeric.options.tol",
    "numeric.bipartitions", "numeric.bipartitions[].complement",
    "numeric.bipartitions[].converged", "numeric.bipartitions[].members",
    "numeric.bipartitions[].min_biproduct_value", "numeric.bipartitions[].restarts_agreeing",
    "numeric.bipartitions[].sweeps", "numeric.bipartitions[].witness",
}
DOCUMENT_KEYS = {
    "verify": REPORT_KEYS | {"provenance"},
    "report": REPORT_KEYS | {
        "basis", "basis.columns", "basis.dimension", "basis.dims",
        "basis.orthonormality_error", "basis.residual_max",
        "vectors", "vectors.amplitudes", "vectors.exponent_table", "vectors.provenance",
        "vectors.schema", "vectors.schema_version", "vectors.params", "vectors.params.dims",
        "vectors.params.num_vectors", "vectors.params.root_order", "vectors.params.scales",
    },
}


@pytest.mark.parametrize("command", DOCUMENT_KEYS)
def test_document_key_paths_are_pinned(tmp_path, command):
    # readers of the report (perfbench among them) look these keys up: a key
    # added, renamed or dropped here needs a SCHEMA_VERSION decision first.
    # run_config.arguments echoes argv, so what it holds is left out.
    argv = [command, "--n", "2", "--d", "2", "--k", "3", "--restarts", "2", "--out", "r.json"]
    assert run(argv, tmp_path) == EXIT_OK
    paths = key_paths(read_json(tmp_path / "r.json"))
    assert {p for p in paths if not p.startswith("run_config.arguments.")} == DOCUMENT_KEYS[command]


def golden_vectors_doc():
    """The golden three-qubit table as a vectors document."""
    golden = json.loads(GOLDEN.read_text())
    params = {key: golden[key] for key in ("dims", "num_vectors", "root_order")}
    return {
        "schema": "gesforge/vectors",
        "schema_version": 1,
        "params": dict(params, scales=None),
        "exponent_table": golden["exponent_table"],
    }


def list_document(doc):
    return [doc]


def string_params(doc):
    doc["params"] = "dims=2,2,2"
    return doc


def null_exponent(doc):
    doc["exponent_table"][1][0][1] = None
    return doc


def null_vector_count(doc):
    doc["params"]["num_vectors"] = None
    return doc


def bare_number_scale(doc):
    doc["params"]["scales"] = [["1", 1], ["1", "1"], ["1", "1"]]
    return doc


def zero_denominator_scale(doc):
    doc["params"]["scales"] = [["1", "1/0"], ["1", "1"], ["1", "1"]]
    return doc


# numbers that int() would truncate to the standard table's own values


def float_exponent(doc):
    doc["exponent_table"][2][0][1] = 8.9
    return doc


def boolean_exponent(doc):
    doc["exponent_table"][0][0][1] = False
    return doc


def float_vector_count(doc):
    doc["params"]["num_vectors"] = 5.7
    return doc


def float_dimension(doc):
    doc["params"]["dims"] = [2, 2.0, 2]
    return doc


# strings that iteration would read one character at a time as the standard
# table's own values


def string_dimensions(doc):
    doc["params"]["dims"] = "222"
    return doc


def string_level_list(doc):
    assert doc["exponent_table"][1][0] == ["0", "4"]
    doc["exponent_table"][1][0] = "04"
    return doc


@pytest.mark.parametrize(
    "malform",
    (
        list_document,
        string_params,
        null_exponent,
        null_vector_count,
        bare_number_scale,
        zero_denominator_scale,
        float_exponent,
        boolean_exponent,
        float_vector_count,
        float_dimension,
        string_dimensions,
        string_level_list,
    ),
)
def test_malformed_vectors_document_exits_invalid(tmp_path, capsys, malform):
    good = golden_vectors_doc()
    (tmp_path / "good.json").write_text(json.dumps(good))
    assert run(["verify", "--in", "good.json", "--restarts", "2"], tmp_path) == EXIT_OK
    (tmp_path / "bad.json").write_text(json.dumps(malform(good)))
    capsys.readouterr()
    for command in ("verify", "basis", "report"):
        assert run([command, "--in", "bad.json", "--out", "out.json"], tmp_path) == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("error: bad vectors document") and "Traceback" not in err
        assert not (tmp_path / "out.json").exists()


def _locations(holder):
    """(container, key) of every value under holder[0], the root included."""
    out = [(holder, 0)]
    for container, key in out:
        value = container[key]
        if isinstance(value, dict):
            out.extend((value, k) for k in value)
        elif isinstance(value, list):
            out.extend((value, i) for i in range(len(value)))
    return out


SWAPPED_VALUES = (
    0, -1, 2, 2.5, True, "x", "7", [], ["1"], {}, {"re": "1"}, HUGE_EXACT, TINY_EXACT, [True, 0.0],
)


def _misplaced_numbers(doc) -> list:
    """Floats and booleans standing where a vectors document needs an integer:
    dims or an entry of it, num_vectors, root_order, or the exponent table at
    any depth down to the exponents."""
    found = []
    params = doc.get("params") if isinstance(doc, dict) else None
    if isinstance(params, dict):
        dims = params.get("dims")
        found += [params.get("num_vectors"), params.get("root_order")]
        found += dims if isinstance(dims, list) else [dims]
    level = [doc.get("exponent_table") if isinstance(doc, dict) else None]
    for _ in range(4):
        found += [v for v in level if not isinstance(v, list)]
        level = [v for entry in level if isinstance(entry, list) for v in entry]
    return [v for v in found if isinstance(v, (bool, float))]


@given(st.sampled_from(("vectors", "scales")), st.data())
@settings(max_examples=40)
def test_mutated_json_inputs_never_raise(target, data):
    # drop keys, swap value types, null entries and truncate lists of a valid
    # vectors document or --h-file scale list: every run ends with an exit code
    if target == "vectors":
        base = golden_vectors_doc()
    else:
        base = [["1", "3/4"], ["1", {"re": "0", "im": "2"}], [[1.0, 0.0], "1"]]
    holder = [copy.deepcopy(base)]
    for _ in range(data.draw(st.integers(1, 3))):
        container, key = data.draw(st.sampled_from(_locations(holder)))
        action = data.draw(st.sampled_from(("drop", "swap", "null", "truncate")))
        value = container[key]
        if action == "drop" and container is not holder:
            del container[key]
        elif action == "swap":
            container[key] = copy.deepcopy(data.draw(st.sampled_from(SWAPPED_VALUES)))
        elif action == "truncate" and isinstance(value, list):
            del value[data.draw(st.integers(0, len(value))):]
        else:
            container[key] = None
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(json.dumps(holder[0]))
        if target == "vectors":
            argv = ["verify", "--in", str(path), "--restarts", "2"]
        else:
            argv = ["verify", "--n", "3", "--d", "2", "--k", "5", "--h-file", str(path),
                    "--restarts", "2"]
        code = main(argv)
    assert code in (EXIT_OK, EXIT_FAILED, EXIT_INVALID)
    if target == "vectors" and _misplaced_numbers(holder[0]):
        assert code == EXIT_INVALID
