"""scripts/chebotarev_survey.py: census lines, sizes lowered into reach, bad input."""

import importlib.util
import json
from pathlib import Path

import pytest

from gesforge.cli import EXIT_FAILED, EXIT_INVALID, EXIT_OK

SCRIPT = Path(__file__).parents[1] / "scripts" / "chebotarev_survey.py"
_spec = importlib.util.spec_from_file_location("chebotarev_survey", SCRIPT)
survey = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(survey)


def test_survey_prints_a_census_per_order_and_writes_every_scan(tmp_path, capsys):
    out = tmp_path / "survey.json"
    assert survey.main(["--orders", "2-5", "--max-size", "3", "--out", str(out)]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[1] for line in lines if line.startswith("order")] == ["2", "3", "4", "5"]
    scans = json.loads(out.read_text())["scans"]
    assert [(s["order"], s["max_size"], s["clean"]) for s in scans] == [
        (2, 2, True), (3, 3, True), (4, 3, False), (5, 3, True)
    ]


def test_survey_lowers_a_size_out_of_reach_with_a_note(capsys):
    # size 4 of order 47 would visit 231.5M minors, above MAX_SCAN_MINORS
    assert survey.main(["--orders", "46,47"]) == EXIT_OK
    out = capsys.readouterr().out
    for order in (46, 47):
        assert f"note: order {order}: max size lowered from 6 to 3, the largest scan in reach" in out
        assert f"order  {order} (" in out and "sizes<= 3" in out


@pytest.mark.parametrize(
    "argv",
    (["--orders", "1"], ["--orders", "5-3"], ["--orders", "0-4"], ["--orders", "2,x"],
     ["--orders", "2-3", "--max-size", "0"], ["--orders", "5,8193"]),
    ids=("order-1", "empty-range", "range-from-0", "not-a-number", "size-0", "out-of-reach"),
)
def test_survey_refuses_bad_input_before_any_scan(monkeypatch, capsys, argv):
    def no_scan(*args):
        raise AssertionError("a scan started before the input was checked")

    monkeypatch.setattr(survey, "chebotarev_scan", no_scan)
    assert survey.main(argv) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_survey_checks_out_before_any_scan(tmp_path, monkeypatch, capsys):
    def no_scan(*args):
        raise AssertionError("a scan started before --out was checked")

    monkeypatch.setattr(survey, "chebotarev_scan", no_scan)
    out = tmp_path / "missing" / "survey.json"
    assert survey.main(["--orders", "2-3", "--out", str(out)]) == EXIT_INVALID
    assert capsys.readouterr().err.startswith(f"error: cannot write {out}: no directory")


def test_survey_exits_1_when_a_prime_order_reports_a_zero_minor(monkeypatch, capsys):
    real = survey.chebotarev_scan

    def broken(order, size):
        scan = real(order, size)
        if order == 5:
            scan.zero_count, scan.witnesses = 1, [((0, 1), (0, 1))]
        return scan

    monkeypatch.setattr(survey, "chebotarev_scan", broken)
    assert survey.main(["--orders", "3,5,7", "--max-size", "2"]) == EXIT_FAILED
    assert "BUG: zero minors reported for prime orders [5]" in capsys.readouterr().out
