"""scripts/reproduce_report.py on its q = 2 instances, the kernel and
idealiser checks on all its instances, and the CLI outputs that F_p
elimination feeds (stats ranks, the dual code's basis), against the
recorded outputs in perfbench/golden/outputs.json."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))

import reproduce_report  # noqa: E402
from hermcodes import build, dual_code  # noqa: E402
from hermcodes.cli import _run_check, main  # noqa: E402
from hermcodes.hermitian import code_from_dict  # noqa: E402
from hermcodes.scheme import (DEFAULT_BUDGET, closed_form_eigenvalues,  # noqa: E402
                              distributions, dual_inner_distribution,
                              inner_distribution)


def _golden(workload):
    return json.loads((ROOT / "perfbench" / "golden" / "outputs.json")
                      .read_text(encoding="utf-8"))[workload]


def test_q2_report_matches_golden_outputs(tmp_path, monkeypatch):
    golden = _golden("report")
    monkeypatch.setattr(reproduce_report, "INSTANCES",
                        [p for p in reproduce_report.INSTANCES if p.q == 2])
    out = tmp_path / "report.json"
    reproduce_report.main(["--out", str(out)])
    seen = set()
    for block in json.loads(out.read_text(encoding="utf-8"))["instances"]:
        instance = {k: block[k] for k in ("family", "q", "label", "size")}
        for report in block["reports"]:
            name = f"{block['label']}/{report['check']}"
            assert golden[name]["instance"] == instance, name
            assert golden[name]["report"] == report, name
            seen.add(name)
    assert seen == {name for name, rec in golden.items() if rec["instance"]["q"] == 2}


def test_kernel_and_idealiser_reports_match_golden_outputs():
    # every report instance, q = 3 and q = 5 included, through the check runner
    golden = _golden("report")
    seen = 0
    for params in reproduce_report.INSTANCES:
        code = build(params)
        for check in ("kernel", "idealisers"):
            name = f"{code.label}/{check}"
            report = _run_check(check, code, DEFAULT_BUDGET).to_json(False)
            assert golden[name]["report"] == report, name
            seen += 1
    assert seen == 16


@pytest.mark.parametrize("workload, name", [("stats-char2", "H-q4-n3"),
                                            ("stats-char2", "H-q2-n5"),
                                            ("stats-odd", "Htilde-q5-n3"),
                                            ("stats-odd", "H-q3-n4")])
def test_stats_match_golden_outputs(tmp_path, workload, name):
    out = tmp_path / "stats.json"
    rc = main(["stats", "--code", str(ROOT / "perfbench" / "inputs" / f"{name}.json"),
               "--out", str(out)])
    assert {"exit": rc, "output": out.read_text()} == _golden(workload)[f"stats {name}"]


def _stats_input(name):
    return code_from_dict(json.loads((ROOT / "perfbench" / "inputs" / f"{name}.json")
                                     .read_text(encoding="utf-8")))


def test_distributions_match_both_walks():
    # the E codes walk C and derive the dual; every other code the reverse
    codes = [build(params) for params in reproduce_report.INSTANCES]
    codes += [_stats_input(name) for name in ("H-q4-n3", "Htilde-q5-n3", "H-q3-n4")]
    for code in codes:
        assert distributions(code) == (inner_distribution(code),
                                       dual_inner_distribution(code)), code.label


def test_closed_form_transform_matches_character_sums_on_report_codes():
    # the dual check's closed-form route against its oracle, C and C-perp alike
    seen = 0
    for params in reproduce_report.INSTANCES:
        if params.q > 3:
            continue
        code = build(params)
        for c in (code, dual_code(code)):
            closed = closed_form_eigenvalues(c.tower.q, c.n).transform(inner_distribution(c))
            assert closed == dual_inner_distribution(c, "eigenvalues"), c.label
            seen += 1
    assert seen == 14


def test_construct_and_dual_match_golden_outputs(tmp_path):
    # the dual file lists the nullspace basis, so its bytes pin that order
    golden = _golden("construct-wide")
    code, dual = tmp_path / "code.json", tmp_path / "dual.json"
    calls = {"construct E-q7": (["construct", "--family", "E", "--q", "7", "--n", "3",
                                 "--d", "3", "--s", "1"], code),
             "dual E-q7": (["dual", "--code", str(code)], dual)}
    for name, (argv, out) in calls.items():
        rc = main(argv + ["--out", str(out)])
        assert {"exit": rc, "output": out.read_text()} == golden[name], name


def test_negative_budget_is_usage_error(capsys):
    with pytest.raises(SystemExit) as ex:
        reproduce_report.main(["--budget", "-1"])
    assert ex.value.code == 2
    err = capsys.readouterr().err
    assert "--budget" in err and "Traceback" not in err
