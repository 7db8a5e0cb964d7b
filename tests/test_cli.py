import argparse
import copy
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hermcodes
from hermcodes import ConstructionParams, build, equivalence, gf, scheme
from hermcodes.cli import CHECKS, _run_check, build_parser, main
from hermcodes.hermitian import code_to_dict
from hermcodes.scheme import DEFAULT_BUDGET


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def construct(tmp_path, capsys, *args):
    path = tmp_path / ("".join(a.lstrip("-") for a in args) + ".json")
    rc = main(["construct", "--family", *args, "--out", str(path)])
    capsys.readouterr()
    assert rc == 0
    return str(path)


def test_construct_writes_valid_code_file(tmp_path, capsys):
    path = construct(tmp_path, capsys, "Htilde", "--q", "3", "--n", "3", "--s", "1")
    data = json.loads(open(path).read())
    assert data["tower"] == {"p": 3, "e": 1, "n": 3,
                             "modulus": [2, 1, 0, 0, 0, 0, 1]}
    assert data["model"] == "poly"
    assert data["declared_d"] == 2
    assert len(data["generators"]) == 6          # 729 = 3^6 elements
    assert all(len(g) == 3 and all(len(v) == 6 for v in g)
               for g in data["generators"])


def test_construct_matrix_model_file(tmp_path, capsys):
    path = construct(tmp_path, capsys, "M", "--q", "2", "--n", "3")
    data = json.loads(open(path).read())
    assert data["model"] == "matrix"
    assert all(len(g) == 9 for g in data["generators"])


@pytest.mark.parametrize("argv, needle", [
    (["Htilde", "--q", "3", "--n", "3", "--s", "1", "--d", "3"], "d must be 2"),
    (["M", "--q", "2", "--n", "3", "--d", "3"], "d must be 2"),
    (["M", "--q", "2", "--n", "3", "--s", "1"], "takes no s"),
    (["M", "--q", "2", "--n", "3", "--gamma", "1"], "takes no gamma"),
    (["H", "--q", "2", "--n", "3", "--d", "2", "--s", "1", "--gamma", "1"], "takes no gamma"),
    (["E", "--q", "2", "--n", "3", "--d", "3", "--s", "1", "--gamma", "1"], "takes no gamma"),
    (["M", "--q", "2", "--n", "1"], "n must be at least 2, not 1"),
])
def test_construct_refuses_a_parameter_the_family_does_not_take(capsys, argv, needle):
    _assert_usage_error(main(["construct", "--family", *argv]), capsys, needle)


def test_construct_rejects_bad_parameters(capsys):
    rc = main(["construct", "--family", "H", "--q", "2", "--n", "4",
               "--d", "2", "--s", "2"])
    assert rc == 2
    rc = main(["construct", "--family", "H", "--q", "6", "--n", "3",
               "--d", "2", "--s", "1"])
    assert rc == 2


def test_stats_output(tmp_path, capsys):
    path = construct(tmp_path, capsys, "H", "--q", "2", "--n", "3",
                     "--d", "2", "--s", "1")
    rc, out = run(["stats", "--code", path], capsys)
    assert rc == 0
    data = json.loads(out)
    assert data == {
        "size": "64",
        "min_distance": 2,
        "inner": ["1", "0", "21", "42"],
        "dual_inner": ["64", "0", "0", "448"],
        "design_strength": 2,
        "bound_saturated": True,
    }


def test_stats_trivial_code(tmp_path, capsys):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({
        "tower": {"p": 2, "e": 1, "n": 3, "modulus": [1, 1, 0, 0, 0, 0, 1]},
        "model": "poly", "label": "zero", "generators": [], "declared_d": None}))
    rc, out = run(["stats", "--code", str(path)], capsys)
    assert rc == 0
    data = json.loads(out)
    assert data["size"] == "1" and data["min_distance"] == 0


def test_outputs_byte_identical_across_runs(tmp_path, capsys):
    path = construct(tmp_path, capsys, "H", "--q", "3", "--n", "3",
                     "--d", "2", "--s", "1")
    _, out1 = run(["stats", "--code", path], capsys)
    _, out2 = run(["stats", "--code", path], capsys)
    assert out1 == out2
    _, v1 = run(["verify", "--code", path, "--checks", "bound,mindist"], capsys)
    _, v2 = run(["verify", "--code", path, "--checks", "bound,mindist"], capsys)
    assert v1 == v2


def test_verify_all_checks_pass_for_H(tmp_path, capsys):
    path = construct(tmp_path, capsys, "H", "--q", "3", "--n", "3",
                     "--d", "2", "--s", "1")
    rc, out = run(["verify", "--code", path], capsys)
    assert rc == 0
    data = json.loads(out)
    assert data["all_pass"] is True
    assert {r["check"] for r in data["reports"]} == \
        {"bound", "mindist", "theorem3", "dual", "designs", "kernel", "idealisers"}


def test_verify_kernel_witness(tmp_path, capsys):
    path = construct(tmp_path, capsys, "Htilde", "--q", "3", "--n", "3", "--s", "1")
    rc, out = run(["verify", "--code", path, "--checks", "kernel,idealisers"], capsys)
    assert rc == 0
    data = json.loads(out)
    kernel = next(r for r in data["reports"] if r["check"] == "kernel")
    assert kernel["witness"]["order"] == "9"
    assert kernel["witness"]["structure"] == "field"


def test_light_q9_calls_stay_table_free_and_a_kernel_builds_tables(tmp_path, capsys,
                                                                  monkeypatch):
    # a tower builds its exp/log tables only once its charged work would pay
    # for them: construct, dual and a light verify of E(3,3,1) at q=9 never do
    monkeypatch.setattr(gf, "_TOWERS", {})
    path = construct(tmp_path, capsys, "E", "--q", "9", "--n", "3", "--d", "3", "--s", "1")
    rc, _ = run(["dual", "--code", path, "--out", str(tmp_path / "dual.json")], capsys)
    assert rc == 0
    rc, _ = run(["verify", "--code", path, "--checks", "bound,mindist"], capsys)
    assert rc == 0
    assert gf.make_tower(3, 2, 3)._exp is None
    # the kernel's F_p-algebra solve on H(3,2,1) at q=3 does build them
    path = construct(tmp_path, capsys, "H", "--q", "3", "--n", "3", "--d", "2", "--s", "1")
    rc, _ = run(["verify", "--code", path, "--checks", "kernel"], capsys)
    assert rc == 0
    assert gf.make_tower(3, 1, 3)._exp is not None


def test_verify_budget_exceeded_is_inconclusive(tmp_path, capsys):
    path = construct(tmp_path, capsys, "H", "--q", "3", "--n", "3",
                     "--d", "2", "--s", "1")
    rc, out = run(["verify", "--code", path, "--checks", "dual",
                   "--budget", "10"], capsys)
    assert rc == 3
    data = json.loads(out)
    assert data["reports"][0]["verdict"] == "inconclusive"


def test_verify_unknown_check_is_usage_error(tmp_path, capsys):
    path = construct(tmp_path, capsys, "E", "--q", "2", "--n", "3",
                     "--d", "3", "--s", "1")
    rc = main(["verify", "--code", path, "--checks", "nope"])
    assert rc == 2


@pytest.mark.parametrize("checks", ["", " , "])
def test_verify_with_no_checks_is_usage_error(tmp_path, capsys, checks):
    # zero reports would read "all_pass": true, a pass that checked nothing
    path = construct(tmp_path, capsys, "E", "--q", "2", "--n", "3",
                     "--d", "3", "--s", "1")
    _assert_usage_error(main(["verify", "--code", path, "--checks", checks]),
                        capsys, "--checks names no check")


def test_verify_failure_carries_witness(tmp_path, capsys):
    # hand-shrunk subcode: drop one generator, keep the declared d
    path = construct(tmp_path, capsys, "H", "--q", "2", "--n", "3",
                     "--d", "2", "--s", "1")
    data = json.loads(open(path).read())
    data["generators"] = data["generators"][:-1]
    bad = tmp_path / "sub.json"
    bad.write_text(json.dumps(data))
    rc, out = run(["verify", "--code", str(bad), "--checks", "bound"], capsys)
    assert rc == 1
    rep = json.loads(out)["reports"][0]
    assert rep["verdict"] == "fail"
    assert rep["witness"] == {"size": "32", "bound": "64"}


def test_mindist_of_a_file_with_no_generators_fails_without_a_codeword(tmp_path, capsys):
    # the zero code has no nonzero word to offer as the witness
    path = construct(tmp_path, capsys, "H", "--q", "2", "--n", "3",
                     "--d", "2", "--s", "1")
    data = json.loads(open(path).read())
    data["generators"] = []
    bad = tmp_path / "zero.json"
    bad.write_text(json.dumps(data))
    rc, out = run(["verify", "--code", str(bad), "--checks", "mindist"], capsys)
    assert rc == 1
    rep = json.loads(out)["reports"][0]
    assert rep["verdict"] == "fail"
    assert rep["witness"] == {"declared_d": "2", "min_rank": "0"}


def test_mindist_witness_walk_is_charged_against_the_budget(tmp_path, capsys):
    # H(3,2,1) at q=2 has minimum rank 2; declare 3 so that mindist fails
    path = construct(tmp_path, capsys, "H", "--q", "2", "--n", "3",
                     "--d", "2", "--s", "1")
    data = json.loads(open(path).read())
    data["declared_d"] = 3
    bad = tmp_path / "d3.json"
    bad.write_text(json.dumps(data))
    rc, out = run(["verify", "--code", str(bad), "--checks", "mindist",
                   "--budget", "10"], capsys)
    assert rc == 1
    [rep] = json.loads(out)["reports"]
    assert rep["verdict"] == "fail"
    assert rep["witness"] == {"declared_d": "3", "min_rank": "2"}
    rc, out = run(["verify", "--code", str(bad), "--checks", "mindist"], capsys)
    assert rc == 1
    [rep] = json.loads(out)["reports"]
    assert rep["verdict"] == "fail"
    assert len(rep["witness"]["codeword"]) == 3


def test_dual_subcommand(tmp_path, capsys):
    for family_args, size, inner in [
        (["Htilde", "--q", "3", "--n", "3", "--s", "1"], "27", ["1", "0", "0", "26"]),
        # the dual of the zero-diagonal code M is the diagonal matrices, and
        # a matrix-model dual file must load as one
        (["M", "--q", "2", "--n", "3"], "8", ["1", "3", "3", "1"]),
    ]:
        path = construct(tmp_path, capsys, *family_args)
        dual_path = tmp_path / "dual.json"
        rc = main(["dual", "--code", path, "--out", str(dual_path)])
        capsys.readouterr()
        assert rc == 0
        rc, out = run(["stats", "--code", str(dual_path)], capsys)
        data = json.loads(out)
        assert data["size"] == size
        assert data["inner"] == inner


def test_eigenvalues_subcommand(capsys):
    rc, out = run(["eigenvalues", "--q", "2", "--n", "3"], capsys)
    assert rc == 0
    data = json.loads(out)
    assert data["rank_counts"] == ["1", "21", "210", "280"]
    assert data["table"][1] == ["21", "-11", "5", "-3"]


def test_eigenvalues_budget(capsys):
    # the closed form needs no budget; the character sums would walk 5^9 matrices
    rc, out = run(["eigenvalues", "--q", "5", "--n", "3"], capsys)
    assert rc == 0
    data = json.loads(out)
    assert data["rank_counts"][0] == "1"
    assert sum(map(int, data["rank_counts"])) == 5 ** 9
    assert data["table"][0] == ["1"] * 4


def test_fingerprint_comparison_verdicts(tmp_path, capsys):
    h2 = construct(tmp_path, capsys, "H", "--q", "2", "--n", "3",
                   "--d", "2", "--s", "1")
    m2 = construct(tmp_path, capsys, "M", "--q", "2", "--n", "3")
    rc, out = run(["fingerprint", "--code", m2, "--against", h2], capsys)
    assert rc == 0
    data = json.loads(out)
    assert data["comparison"]["verdict"] == "distinct"
    assert "design_strength" in data["comparison"]["differing_fields"]


def test_missing_file_is_usage_error(capsys):
    assert main(["stats", "--code", "/nonexistent/x.json"]) == 2


# -- the per-code memo ------------------------------------------------------------


def test_check_battery_enumerates_code_and_dual_once(monkeypatch):
    code = build(ConstructionParams(family="H", q=2, n=3, d=2, s=1))
    seen = []
    real = scheme.inner_distribution
    monkeypatch.setattr(scheme, "inner_distribution",
                        lambda c: seen.append(c.label) or real(c))
    reports = [_run_check(name, code, DEFAULT_BUDGET) for name in CHECKS]
    assert [r.check for r in reports] == list(CHECKS)
    assert all(r.verdict == "pass" for r in reports)
    # mindist takes the 8-word dual over the 64-word code; dual then walks C
    assert seen == [code.label + "^perp", code.label]


def test_battery_on_Htilde_q5_walks_only_the_smaller_dual(tmp_path, capsys, monkeypatch):
    # 15,625 words against a 125-word dual
    path = construct(tmp_path, capsys, "Htilde", "--q", "5", "--n", "3", "--s", "1")
    seen = []
    real = scheme.inner_distribution
    monkeypatch.setattr(scheme, "inner_distribution",
                        lambda c: seen.append(c.label) or real(c))
    rc, out = run(["verify", "--code", path, "--checks", "bound,mindist,theorem3"], capsys)
    assert rc == 0
    data = json.loads(out)
    assert [r["verdict"] for r in data["reports"]] == ["pass"] * 3
    assert seen == [data["code"] + "^perp"]


def test_full_verify_of_Htilde_q5_passes_the_dual_check(tmp_path, capsys):
    # the character-sum table would need 5^9 matrices; the closed form needs none
    path = construct(tmp_path, capsys, "Htilde", "--q", "5", "--n", "3", "--s", "1")
    rc, out = run(["verify", "--code", path], capsys)
    data = json.loads(out)
    assert {r["check"]: r["verdict"] for r in data["reports"]} == dict.fromkeys(CHECKS, "pass")
    assert rc == 0


def test_stats_enumerates_only_the_dual(tmp_path, capsys, monkeypatch):
    path = construct(tmp_path, capsys, "H", "--q", "2", "--n", "3",
                     "--d", "2", "--s", "1")
    seen = []
    real = scheme.inner_distribution
    monkeypatch.setattr(scheme, "inner_distribution",
                        lambda c: seen.append(c.label) or real(c))
    rc, out = run(["stats", "--code", path], capsys)
    assert rc == 0
    assert json.loads(out)["inner"] == ["1", "0", "21", "42"]
    assert seen == ["H(n=3,d=2,s=1,q=2)^perp"]


def test_dual_check_on_a_derived_inner_enumerates_the_code(tmp_path, capsys, monkeypatch):
    # the inner distribution derived from the 8-word dual transforms back
    # into that dual whatever the dual code was, so the check walks C: a
    # wrong dual code (here the dual of M, of the same size) must still fail
    path = construct(tmp_path, capsys, "H", "--q", "2", "--n", "3",
                     "--d", "2", "--s", "1")
    real = scheme.dual_code
    monkeypatch.setattr(scheme, "dual_code", lambda c: real(hermcodes.build_M(c.tower)))
    rc, out = run(["verify", "--code", path, "--checks", "dual"], capsys)
    assert rc == 1
    [report] = json.loads(out)["reports"]
    assert report["verdict"] == "fail"
    assert report["witness"]["eigenvalue_method"] == ["64", "0", "0", "448"]


def test_dual_check_charges_the_code_walk_against_its_budget():
    # the dual of H(3,2,1) at q=2 has 8 words and the code 64
    code = build(ConstructionParams(family="H", q=2, n=3, d=2, s=1))
    scheme.distributions(code, 10)
    assert {"inner", "dual"} & set(code.cache) == {"dual"}
    report = _run_check("dual", code, 10)
    assert report.verdict == "inconclusive"
    assert "code has 64 words" in report.witness["reason"]
    assert _run_check("dual", code, DEFAULT_BUDGET).verdict == "pass"


def test_theorem3_on_E_walks_only_the_code(tmp_path, capsys, monkeypatch):
    # 27 words against a 729-word dual: the dual distribution is derived
    path = construct(tmp_path, capsys, "E", "--q", "3", "--n", "3", "--d", "3", "--s", "1")
    seen = []
    real = scheme.inner_distribution
    monkeypatch.setattr(scheme, "inner_distribution",
                        lambda c: seen.append(c.label) or real(c))
    rc, out = run(["verify", "--code", path, "--checks", "theorem3"], capsys)
    assert rc == 0
    data = json.loads(out)
    assert [r["verdict"] for r in data["reports"]] == ["pass"]
    assert seen == [data["code"]]


def test_stats_budget_is_charged_for_the_smaller_side(tmp_path, capsys):
    path = construct(tmp_path, capsys, "E", "--q", "3", "--n", "3", "--d", "3", "--s", "1")
    rc, out = run(["stats", "--code", path, "--budget", "27"], capsys)
    assert rc == 0
    assert out == run(["stats", "--code", path], capsys)[1]


def test_mindist_budget_binds_on_the_walked_code(tmp_path, capsys):
    path = construct(tmp_path, capsys, "E", "--q", "3", "--n", "3", "--d", "3", "--s", "1")
    verdicts = {}
    for budget in (26, 27):
        rc, out = run(["verify", "--code", path, "--checks", "mindist",
                       "--budget", str(budget)], capsys)
        [report] = json.loads(out)["reports"]
        verdicts[budget] = (rc, report["verdict"])
    assert verdicts == {26: (3, "inconclusive"), 27: (0, "pass")}


def test_verify_small_budget_never_builds_the_dual(tmp_path, capsys, monkeypatch):
    # the 27-word dual is charged before it is built, and C is never walked
    # past the budget either
    path = construct(tmp_path, capsys, "H", "--q", "3", "--n", "3",
                     "--d", "2", "--s", "1")

    def no_dual(code):
        raise AssertionError("the dual code was built")

    monkeypatch.setattr(scheme, "dual_code", no_dual)
    rc, out = run(["verify", "--code", path, "--checks", "bound,mindist",
                   "--budget", "1"], capsys)
    assert rc == 3
    assert [r["verdict"] for r in json.loads(out)["reports"]] == ["pass", "inconclusive"]


def test_verify_budget_still_binds_after_the_memo_is_filled(tmp_path, capsys):
    path = construct(tmp_path, capsys, "H", "--q", "3", "--n", "3",
                     "--d", "2", "--s", "1")
    rc, out = run(["verify", "--code", path, "--checks", "bound,dual",
                   "--budget", "10"], capsys)
    assert rc == 3
    assert [r["verdict"] for r in json.loads(out)["reports"]] == ["pass", "inconclusive"]


def test_memo_hit_never_turns_inconclusive_into_pass():
    params = ConstructionParams(family="H", q=2, n=3, d=2, s=1)
    warm, fresh = build(params), build(params)
    assert all(_run_check(name, warm, DEFAULT_BUDGET).verdict == "pass" for name in CHECKS)
    assert {"inner", "dual"} <= set(warm.cache)
    # the dual has 8 words: a budget of 5 must stop every check that walks it
    verdicts = []
    for name in CHECKS:
        report = _run_check(name, warm, 5).to_json(False)
        assert report == _run_check(name, fresh, 5).to_json(False)
        verdicts.append(report["verdict"])
    assert verdicts == ["pass"] + ["inconclusive"] * 6


# -- malformed input: exit 2 with a message, never a traceback -----------------


_DROP = object()


def _edit(*path, value=_DROP):
    """A code-file mutation: set the item at `path` to `value`, or delete it."""
    def mutate(data):
        target = data
        for key in path[:-1]:
            target = target[key]
        if value is _DROP:
            del target[path[-1]]
        else:
            target[path[-1]] = value
        return data
    return mutate


MALFORMED_FILES = {
    "top-level list": (lambda data: [data], "JSON object"),
    "no tower": (_edit("tower"), "'tower'"),
    "tower not an object": (_edit("tower", value=[2, 1, 3]), "'tower'"),
    "no tower key e": (_edit("tower", "e"), "'tower.e'"),
    "p as a string": (_edit("tower", "p", value="2"), "'tower.p'"),
    # p < 2 is refused before the digits are checked against [0, p)
    "p = 0": (_edit("tower", "p", value=0), "'tower.p'"),
    "p = 1": (_edit("tower", "p", value=1), "'tower.p'"),
    "p = -3": (_edit("tower", "p", value=-3), "'tower.p'"),
    "no modulus": (_edit("tower", "modulus"), "'tower.modulus'"),
    "no generators": (_edit("generators"), "'generators'"),
    "generators not a list": (_edit("generators", value=5), "'generators'"),
    "generator of wrong width": (_edit("generators", 0, value=[[0] * 6]), "'generators[0]'"),
    "declared_d as a string": (_edit("declared_d", value="2"), "'declared_d'"),
    # d lies in 1..n: a larger one gave a float bound, a very negative one
    # an integer q^(n(n-d+1)) too big to print
    "declared_d above n": (_edit("declared_d", value=5), "'declared_d'"),
    "declared_d far below 1": (_edit("declared_d", value=-100000), "'declared_d'"),
    "unknown model": (_edit("model", value="graph"), "'model'"),
    "label as a number": (_edit("label", value=7), "'label'"),
    # towers past the 2^32 ceiling are refused before any slow arithmetic
    "huge n": (_edit("tower", "n", value=10 ** 12), "ceiling"),
    "huge prime p": (_edit("tower", "p", value=2 ** 61 - 1), "ceiling"),
    # digits outside [0, p) at p = 2
    "modulus digit 7": (_edit("tower", "modulus", 0, value=7), "'tower.modulus'"),
    "generator digit 2": (_edit("generators", 1, 2, 0, value=2), "'generators[1][2]'"),
    "generator digit -1": (_edit("generators", 0, 0, 5, value=-1), "'generators[0][0]'"),
}


def _assert_usage_error(rc, capsys, needle):
    err = capsys.readouterr().err
    assert rc == 2
    assert "Traceback" not in err
    assert needle in err.strip().splitlines()[-1]


@pytest.mark.parametrize("case", list(MALFORMED_FILES))
def test_malformed_code_file_is_usage_error(tmp_path, capsys, case):
    path = construct(tmp_path, capsys, "H", "--q", "2", "--n", "3",
                     "--d", "2", "--s", "1")
    mutate, needle = MALFORMED_FILES[case]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(mutate(json.loads(open(path).read()))))
    _assert_usage_error(main(["verify", "--code", str(bad), "--checks", "bound"]),
                        capsys, needle)


@pytest.mark.parametrize("argv, needle", [
    (["verify", "--checks", "bound", "--budget", "-5"], "--budget"),
    (["stats", "--threads", "0"], "--threads"),
    (["stats", "--threads", "two"], "--threads"),
    # options a subcommand does not read are not accepted
    (["verify", "--threads", "2"], "--threads"),
    (["dual", "--budget", "5"], "--budget"),
    (["stats", "--threads", "3"], "--threads"),
    (["eigenvalues", "--q", "2", "--n", "3", "--budget", "5"], "--budget"),
])
def test_out_of_range_flag_is_usage_error(tmp_path, capsys, argv, needle):
    path = construct(tmp_path, capsys, "H", "--q", "2", "--n", "3",
                     "--d", "2", "--s", "1")
    _assert_usage_error(main([*argv, "--code", path]), capsys, needle)


def test_every_accepted_option_is_read_by_its_handler(tmp_path, capsys):
    path = construct(tmp_path, capsys, "H", "--q", "2", "--n", "3",
                     "--d", "2", "--s", "1")
    argvs = {
        "construct": ["--family", "H", "--q", "2", "--n", "3", "--d", "2", "--s", "1"],
        "stats": ["--code", path],
        "dual": ["--code", path],
        "verify": ["--code", path],
        "eigenvalues": ["--q", "2", "--n", "2"],
        "fingerprint": ["--code", path, "--against", path],
    }
    parser = build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    assert set(argvs) == set(subparsers)
    for name, argv in argvs.items():
        reads = set()

        class Recording(argparse.Namespace):
            def __getattribute__(self, attr):
                reads.add(attr)
                return super().__getattribute__(attr)

        out = str(tmp_path / f"{name}.out.json")
        args = parser.parse_args([name, *argv, "--out", out], namespace=Recording())
        reads.clear()  # argparse itself reads while parsing
        assert args.func(args) == 0
        accepted = {a.dest for a in subparsers[name]._actions} - {"help", "command", "func"}
        assert accepted <= reads, (name, sorted(accepted - reads))


def _fresh_python(*argv):
    """Run a new interpreter that imports this checkout's package."""
    src = str(Path(hermcodes.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *argv],
                          capture_output=True, text=True, env=env, timeout=120)


def test_python_dash_m_runs_the_cli(capsys):
    args = ["construct", "--family", "H", "--q", "2", "--n", "3", "--d", "2", "--s", "1"]
    proc = _fresh_python("-m", "hermcodes", *args)
    assert proc.returncode == 0, proc.stderr
    assert main(args) == 0
    assert proc.stdout == capsys.readouterr().out


def test_cli_import_starts_no_process_machinery():
    proc = _fresh_python("-c", "import sys, hermcodes.cli; print(sorted(m for m in "
                         "('multiprocessing', 'concurrent.futures') if m in sys.modules))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_import_loads_neither_dataclasses_nor_fractions():
    # each CLI call is its own process, so these modules' import cost is paid
    # per call; diffing against the interpreter's own start-up keeps a host
    # .pth file that loads them from failing the test
    scripts = Path(__file__).resolve().parent.parent / "scripts"
    proc = _fresh_python("-c", "import sys; before = set(sys.modules); "
                         f"sys.path.insert(0, {str(scripts)!r}); "
                         "import hermcodes, hermcodes.cli, reproduce_report; "
                         "print(sorted({'dataclasses', 'inspect', 'fractions', 'decimal'}"
                         " & (set(sys.modules) - before)))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_records_keep_their_repr_and_own_their_meta():
    assert repr(ConstructionParams(family="H", q=2, n=3, d=2, s=1)) == (
        "ConstructionParams(family='H', q=2, n=3, d=2, s=1, gamma_power=None)")
    assert repr(scheme.closed_form_eigenvalues(2, 2)) == (
        "Eigenvalues(q=2, n=2, table=((1, 1, 1), (5, -3, 1), (10, 2, -2)), "
        "rank_counts=(1, 5, 10))")
    code = build(ConstructionParams(family="H", q=2, n=3, d=2, s=1))
    left, right = equivalence.left_idealiser(code), equivalence.right_idealiser(code)
    assert left.meta is not right.meta
    # a default would be one dict shared by every solution built without meta
    assert "meta" not in equivalence.EndoSolution._field_defaults


# -- fuzzing the command line ----------------------------------------------------


_FUZZ_SOURCES = {family: code_to_dict(build(ConstructionParams(family=family, q=2, n=3, **kw)))
                 for family, kw in (("H", {"d": 2, "s": 1}), ("E", {"d": 3, "s": 1}),
                                    ("M", {}))}


@st.composite
def _mutated_code_file(draw):
    data = copy.deepcopy(_FUZZ_SOURCES[draw(st.sampled_from(sorted(_FUZZ_SOURCES)))])
    gens = data["generators"]
    for kind in draw(st.lists(st.sampled_from(["drop", "truncate", "sum", "flip", "d"]),
                              min_size=1, max_size=3)):
        index = st.integers(0, max(len(gens) - 1, 0))
        if kind == "d":
            data["declared_d"] = draw(st.integers(-3, 6))
        elif kind == "truncate":
            del gens[draw(st.integers(0, len(gens))):]
        elif not gens:
            continue
        elif kind == "drop":
            del gens[draw(index)]
        elif kind == "sum":
            i, j = draw(index), draw(index)
            gens[i] = [[(a + b) % 2 for a, b in zip(u, v)] for u, v in zip(gens[i], gens[j])]
        else:
            entry = draw(st.sampled_from(gens[draw(index)]))
            k = draw(st.integers(0, len(entry) - 1))
            entry[k] ^= 1
    return data


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=_mutated_code_file())
def test_fuzzed_code_files_give_an_exit_code_never_an_exception(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "code.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        for command in ("verify", "stats"):
            rc = main([command, "--code", path, "--budget", "200",
                       "--out", os.path.join(tmp, "out.json")])
            assert rc in (0, 1, 2, 3), (command, rc)
