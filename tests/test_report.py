"""scripts/reproduce_report.py on its q = 2 instances, against the recorded
report outputs in perfbench/golden/outputs.json."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))

import reproduce_report  # noqa: E402


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


def test_negative_budget_is_usage_error(capsys):
    with pytest.raises(SystemExit) as ex:
        reproduce_report.main(["--budget", "-1"])
    assert ex.value.code == 2
    err = capsys.readouterr().err
    assert "--budget" in err and "Traceback" not in err
