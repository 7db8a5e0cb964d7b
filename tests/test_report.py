"""scripts/reproduce_report.py on its q = 2 instances, and the kernel and
idealiser checks on all its instances, against the recorded report outputs
in perfbench/golden/outputs.json."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))

import reproduce_report  # noqa: E402
from hermcodes import build  # noqa: E402
from hermcodes.cli import _run_check  # noqa: E402
from hermcodes.scheme import DEFAULT_BUDGET  # noqa: E402


def test_q2_report_matches_golden_outputs(tmp_path, monkeypatch):
    golden = json.loads((ROOT / "perfbench" / "golden" / "outputs.json")
                        .read_text(encoding="utf-8"))["report"]
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
    golden = json.loads((ROOT / "perfbench" / "golden" / "outputs.json")
                        .read_text(encoding="utf-8"))["report"]
    seen = 0
    for params in reproduce_report.INSTANCES:
        code = build(params)
        for check in ("kernel", "idealisers"):
            name = f"{code.label}/{check}"
            report = _run_check(check, code, DEFAULT_BUDGET).to_json(False)
            assert golden[name]["report"] == report, name
            seen += 1
    assert seen == 16


def test_negative_budget_is_usage_error(capsys):
    with pytest.raises(SystemExit) as ex:
        reproduce_report.main(["--budget", "-1"])
    assert ex.value.code == 2
    err = capsys.readouterr().err
    assert "--budget" in err and "Traceback" not in err
