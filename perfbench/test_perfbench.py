"""Self-tests of the benchmark: each checker rejects a planted wrong answer,
and a cut-down version of every workload runs end to end.

    python3 -m pytest perfbench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import workloads
import worker

HERE = Path(__file__).resolve().parent


def answer_for(op, tmp_path):
    seconds, answer, _ = worker.run_op(op, tmp_path, lambda call: (0.0, call()))
    return answer


def test_tampered_checker_rejects_failure_count_off_by_one(tmp_path):
    op = {"kind": "tampered", "dims": [3, 3], "k": 6, "src": 4, "dst": 1, "id": "t"}
    answer = answer_for(op, tmp_path)
    assert checks.check_tampered(op, answer) == (False, [])
    side = answer["report"]["bipartitions"][0]["left"]
    assert side["failures"] == math.comb(4, 1)
    side["failures"] += 1
    failed, problems = checks.check_tampered(op, answer)
    assert problems and "singular subsets" in problems[0]


def test_tampered_checker_rejects_witness_without_copied_rows(tmp_path):
    op = {"kind": "tampered", "dims": [2, 2, 2], "k": 6, "src": 0, "dst": 5, "id": "t"}
    answer = answer_for(op, tmp_path)
    assert checks.check_tampered(op, answer) == (False, [])
    answer["report"]["bipartitions"][1]["right"]["witness"] = [0, 1, 2, 3]
    assert checks.check_tampered(op, answer)[1]


def test_exact_checker_rejects_rank_and_table_errors(tmp_path):
    op = {"kind": "exact", "dims": [2, 2, 2], "k": 6, "id": "e"}
    answer = answer_for(op, tmp_path)
    assert checks.check_exact(op, answer) == (False, [])
    answer["report"]["matrix_rank"] = 5
    answer["table"][3][1][1] += 1
    problems = checks.check_exact(op, answer)[1]
    assert any("rank" in p for p in problems)
    assert any("exponent table" in p for p in problems)


def test_scaled_pair_checker_rejects_a_changed_verdict(tmp_path):
    ops = workloads.build("exact_ladder", 3, small=True)
    answers = [answer_for(op, tmp_path) for op in ops]
    assert checks.check_pass(ops, answers) == (0, [])
    answers[-1]["report"]["bipartitions"][0]["left"]["failures"] = 1
    assert any("unscaled" in p for p in checks.check_scaled_pairs(ops, answers))


def test_report_checker_rejects_witness_off_the_biproduct_set(tmp_path):
    op = {"kind": "report", "dims": [2, 2, 2], "k": 6, "opt_seed": 7, "probe_seed": 8, "id": "r"}
    answer = answer_for(op, tmp_path)
    assert checks.check_report(op, answer) == (False, [])
    ghz = np.zeros(8, dtype=complex)
    ghz[[0, 7]] = 2 ** -0.5
    answer["doc"]["numeric"]["bipartitions"][0]["witness"] = [[z.real, z.imag] for z in ghz]
    problems = checks.check_report(op, answer)[1]
    assert any("not a normalized biproduct state" in p for p in problems)


def test_report_checker_rejects_a_minimum_above_a_probe(tmp_path):
    op = {"kind": "report", "dims": [2, 3], "k": 4, "opt_seed": 1, "probe_seed": 2, "id": "r"}
    answer = answer_for(op, tmp_path)
    answer["doc"]["numeric"]["bipartitions"][0]["min_biproduct_value"] = 10.0
    problems = checks.check_report(op, answer)[1]
    assert any("above a probe" in p for p in problems)


def test_report_checker_counts_the_threshold_verdict_as_failed(tmp_path):
    # proven by the exact stage, numeric minimum below 1e-6: `report` exits 1
    op = {"kind": "report", "dims": [2, 3, 3], "k": 10, "opt_seed": 3, "probe_seed": 4, "id": "r"}
    answer = answer_for(op, tmp_path)
    assert answer["exit"] == 1
    assert checks.check_report(op, answer) == (True, [])


def test_scan_checker_rejects_a_zero_for_a_prime_order(tmp_path):
    op = {"kind": "scan", "order": 5, "max_size": 6, "id": "s"}
    answer = answer_for(op, tmp_path)
    assert checks.check_scan(op, answer) == (False, [])
    answer["scan"]["zero_count"] = 1
    answer["scan"]["clean"] = False
    answer["scan"]["witnesses"] = [{"size": 2, "rows": [0, 1], "cols": [0, 1]}]
    problems = checks.check_scan(op, answer)[1]
    assert any("zero minors" in p for p in problems)
    assert any("not a zero minor" in p for p in problems)


def test_scan_checker_rejects_a_wrong_composite_count(tmp_path):
    op = {"kind": "scan", "order": 6, "max_size": 6, "id": "s"}
    answer = answer_for(op, tmp_path)
    assert answer["scan"]["zero_count"] == checks.zero_minor_census(6, 6) == 120
    answer["scan"]["zero_count"] -= 1
    assert checks.check_scan(op, answer)[1]


def test_seed_changes_values_but_not_the_work():
    for name in workloads.WORKLOADS:
        a, b = workloads.build(name, 1), workloads.build(name, 2)
        assert [op["id"] for op in a] == [op["id"] for op in b]
        assert a == workloads.build(name, 1)
    assert workloads.build("numeric_report", 1) != workloads.build("numeric_report", 2)


def _result(cmd, cwd):
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_small_workload_runs_end_to_end(name, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "5",
           "--seconds", "1", "--trace", str(trace), "--small"]
    proc, lines = _result(cmd, HERE.parent)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == 2 * len(workloads.build(name, 5, small=True))
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, "perfbench/run.py", "--workload", "exact_ladder", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    proc, lines = _result(cmd, tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)
