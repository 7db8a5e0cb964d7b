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
from hermcodes import ConstructionParams, build, scheme
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


def test_dual_subcommand(tmp_path, capsys):
    path = construct(tmp_path, capsys, "Htilde", "--q", "3", "--n", "3", "--s", "1")
    dual_path = tmp_path / "dual.json"
    rc = main(["dual", "--code", path, "--out", str(dual_path)])
    capsys.readouterr()
    assert rc == 0
    rc, out = run(["stats", "--code", str(dual_path)], capsys)
    data = json.loads(out)
    assert data["size"] == "27"
    assert data["inner"] == ["1", "0", "0", "26"]


def test_eigenvalues_subcommand(capsys):
    rc, out = run(["eigenvalues", "--q", "2", "--n", "3"], capsys)
    assert rc == 0
    data = json.loads(out)
    assert data["rank_counts"] == ["1", "21", "210", "280"]
    assert data["table"][1] == ["21", "-11", "5", "-3"]


def test_eigenvalues_budget(capsys):
    rc, out = run(["eigenvalues", "--q", "3", "--n", "3", "--budget", "5"], capsys)
    assert rc == 3


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
    assert seen == [code.label, code.label + "^perp"]


def test_verify_small_budget_never_builds_the_dual(tmp_path, capsys, monkeypatch):
    path = construct(tmp_path, capsys, "H", "--q", "3", "--n", "3",
                     "--d", "2", "--s", "1")

    def no_dual(code):
        raise AssertionError("the dual code was built")

    monkeypatch.setattr(scheme, "dual_code", no_dual)
    rc, out = run(["verify", "--code", path, "--checks", "bound,mindist",
                   "--budget", "1"], capsys)
    assert rc == 0
    assert [r["verdict"] for r in json.loads(out)["reports"]] == ["pass", "pass"]


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
    # the dual has 8 words: a budget of 5 must stop every check that needs it
    verdicts = []
    for name in CHECKS:
        report = _run_check(name, warm, 5).to_json(False)
        assert report == _run_check(name, fresh, 5).to_json(False)
        verdicts.append(report["verdict"])
    assert verdicts == ["pass", "pass"] + ["inconclusive"] * 5


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
