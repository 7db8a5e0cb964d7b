"""The names that perfbench's tracer and worker wrap or call still exist in
the package, so a change that would break `perfbench/run.py --trace 1` fails
here.  perfbench/tracer.py is only loaded, never edited."""

import importlib
import importlib.util
from pathlib import Path

from hermcodes import ConstructionParams, build, cli, scheme

ROOT = Path(__file__).resolve().parent.parent


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    tracer = _load(ROOT / "perfbench" / "tracer.py", "perfbench_tracer")
    for modname, attr, *_ in tracer.TARGETS:
        owner = importlib.import_module(modname)
        if "." in attr:
            # `Tracer.install` wraps a method found in the class's own dict
            cls_name, meth = attr.split(".")
            owner = vars(getattr(owner, cls_name))
            attr = meth
        else:
            owner = vars(owner)
        assert callable(owner.get(attr)), (modname, attr)


def test_inner_distribution_accepts_the_layer_probe_keyword():
    code = build(ConstructionParams(family="H", q=2, n=3, d=2, s=1))
    assert scheme.inner_distribution(code, threads=2) == scheme.inner_distribution(code)


def test_reproduce_report_exposes_what_the_worker_drives():
    report = _load(ROOT / "scripts" / "reproduce_report.py", "reproduce_report_hooks")
    assert report.INSTANCES
    # the tracer finds `_run_check` by identity to wrap it in this module too
    assert report._run_check is cli._run_check
    assert callable(report.main)
