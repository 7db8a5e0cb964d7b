"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

import copy
import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
from hermcodes import ConstructionParams, build  # noqa: E402
from hermcodes import scheme  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_valid_unique_and_match_the_harness():
    spec = _spec()
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for key, harness in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        assert declared == harness
        assert all(UNIT.match(u) for u in declared.values())
        assert all(m["better"] in ("higher", "lower") for m in spec[key])
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert all(setup["bound"] > m["bound"] for m in spec["end_to_end"] if m is not setup)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_corrupted_golden_output_is_a_failed_operation(workload):
    golden = json.loads(run.GOLDEN.read_text())[workload]
    observed = copy.deepcopy(golden)
    assert run.failed_ops(observed, golden) == set()

    name = sorted(golden)[0]
    record = observed[name]
    if "output" in record:
        record["output"] = record["output"].replace("1", "2", 1)
    else:
        record["report"]["verdict"] = "fail"
    assert run.failed_ops(observed, golden) == {name}

    observed = copy.deepcopy(golden)
    observed[name]["exit"] = 1
    del observed[sorted(golden)[-1]]
    assert run.failed_ops(observed, golden) == {name, sorted(golden)[-1]}


def test_report_outputs_keys_every_check_of_the_payload():
    payload = {"no_failures": True, "instances": [
        {"family": "H", "q": 2, "label": "L", "size": "64",
         "reports": [{"check": "bound", "verdict": "pass"},
                     {"check": "theorem3", "verdict": "inconclusive"}]}]}
    out = run.report_outputs(json.dumps(payload))
    assert sorted(out) == ["L/bound", "L/theorem3"]
    assert out["L/theorem3"]["report"]["verdict"] == "inconclusive"


def _traced_small_instance():
    code = build(ConstructionParams(family="H", q=2, n=3, d=2, s=1))
    tr = tracer.Tracer()
    tr.install()
    try:
        scheme.dual_inner_distribution(code, "eigenvalues")
        scheme.dual_inner_distribution(code, "eigenvalues")  # cached table
        scheme.design_by_extension_count(code, 1)
    finally:
        tr.uninstall()
    return code, tracer.merge([json.loads(json.dumps(tr.summary()))])


def test_exact_count_cross_checks_hold_on_a_small_instance():
    code, merged = _traced_small_instance()
    assert tracer.cross_checks(merged) == []
    c = merged["counters"]
    assert c["scheme.eigenvalues.computed"] == 1
    assert merged["agg"][("linalg.rank_subfield_matrix", tracer.EIG)][0] == 2 ** 9
    assert c["scheme.inner_distribution.words"] == 2 * code.size
    # 1-subspaces of F_4^3: (4^3 - 1) / (4 - 1) = 21
    assert c[tracer.DESIGN + ".word_subspace_pairs"] == code.size * 21
    assert merged["codes"] == 1


def test_cross_check_fails_when_a_call_site_is_missed():
    original = scheme.rank_subfield_matrix
    try:
        # the eigenvalue loop calls rank_subfield_matrix through this name
        tr = tracer.Tracer()
        tr.install()
        scheme.rank_subfield_matrix = original
        code = build(ConstructionParams(family="E", q=2, n=3, d=3, s=1))
        scheme.dual_inner_distribution(code, "eigenvalues")
    finally:
        tr.uninstall()
        scheme.rank_subfield_matrix = original
    errors = tracer.cross_checks(tracer.merge([tr.summary()]))
    assert len(errors) == 1 and "eigenvalues.matrices" in errors[0]


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(range(52)) == (80.0, 41)
    assert run.tail_percentile(range(1000)) == (99.0, 989)
    assert run.tail_percentile(range(14)) == (100.0, 13)


def test_speed_probe_scales_to_reference_speed_and_drops_probe_time():
    probe = worker.SpeedProbe()
    slow = 2 * worker.PROBE_REF_S  # host at half the reference speed
    probe.samples = [(0.2, 0.001, slow), (0.6, 0.001, slow), (5.0, 0.001, 1.0)]
    assert probe.normalise(0.0, 1.0) == pytest.approx((1.0 - 0.002) / 2)
    assert probe.normalise(10.0, 11.0) == pytest.approx(1.0)  # no probe near: raw
