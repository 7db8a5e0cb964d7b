#!/usr/bin/env python3
"""hermcodes benchmark: end-to-end metrics per workload, per-layer metrics
from a separate traced run.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all     # every workload in turn
    python3 perfbench/run.py --record-golden

Every workload is a closed loop with one client: passes run one after
another, each in fresh processes (perfbench/worker.py), so nothing the
program caches in memory carries from one pass into the next.  A run keeps
starting passes while the last pass would still end within --seconds, and
always runs at least one.

  report          scripts/reproduce_report.py over its 8 instances
  stats-odd       `hermcodes stats` on Htilde(3,s=1) q=5 and H(4,3,s=1) q=3
  stats-char2     `hermcodes stats` on H(5,2,s=1) q=2 and H(3,2,s=1) q=4
  construct-wide  construct -> dual -> verify --checks bound,mindist for
                  E(3,3,s=1) at q=7 and q=9, one process per CLI call

The seed picks only the order of instances within a pass and the operands
of the field-op microbenchmarks.  Every operation's output and exit code is
compared with the golden outputs recorded from the seed commit
(perfbench/golden/outputs.json); a mismatch is a failed operation.

Times are normalised to a reference CPU speed measured on the worker's own
CPU while it runs (worker.SpeedProbe), because the vCPUs of the host this
benchmark was built on drift in speed by tens of percent; traced self times
use the mean factor of their process.  The raw wall times are kept in the
record.  Memory and counts are as measured.

With --trace 0 the run reports the end-to-end metrics.  With --trace 1 it
runs one untraced and one traced pass plus the layer probes and reports the
per-layer metrics and the tracing overhead, and prints any broken
exact-count cross-check (tracer.cross_checks) loudly.  The last line of stdout is the JSON result; a fuller
record (machine metadata, samples, percentiles) goes to .perfbench/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
GOLDEN = BENCH / "golden" / "outputs.json"
INPUTS = BENCH / "inputs"
STATE = ROOT / ".perfbench"

sys.path.insert(0, str(BENCH))
from tracer import cross_checks, merge, totals  # noqa: E402

# every run must end well inside the 180 s a run may take
HARD_LIMIT_S = 165.0
# set-ups measured per untraced run (extra set-up-only processes make up
# the difference when a run has fewer passes; not for construct-wide, whose
# set-up is most of a pass)
SETUP_SAMPLES = 5

# code files for `stats`, made by `hermcodes construct` with these arguments
STATS_CODES = {
    "Htilde-q5-n3": ["--family", "Htilde", "--q", "5", "--n", "3", "--s", "1"],
    "H-q3-n4": ["--family", "H", "--q", "3", "--n", "4", "--d", "3", "--s", "1"],
    "H-q2-n5": ["--family", "H", "--q", "2", "--n", "5", "--d", "2", "--s", "1"],
    "H-q4-n3": ["--family", "H", "--q", "4", "--n", "3", "--d", "2", "--s", "1"],
}
REPORT_INSTANCES = 8
WIDE_QS = (7, 9)

# words: the sum of |C| over the codes one pass analyses
WORKLOADS = {
    "report": {"pass": "report", "words": 64 + 729 + 8 + 27 + 64 + 729 + 729 + 15625,
               "probe": True},
    "stats-odd": {"pass": "stats", "codes": ("Htilde-q5-n3", "H-q3-n4"),
                  "words": 5 ** 6 + 3 ** 8, "probe": True},
    "stats-char2": {"pass": "stats", "codes": ("H-q2-n5", "H-q4-n3"),
                    "words": 2 ** 20 + 4 ** 6, "probe": True},
    "construct-wide": {"pass": "construct_wide", "words": 7 ** 3 + 9 ** 3, "probe": False},
}

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
    "words_per_s": "words/s", "peak_rss_mb": "MB",
}

_SPANNED = ("linalg.nullity_of_code_columns", "linalg.rank_subfield_matrix",
            "linalg.nullspace_mod_p", "hermitian.dual_code", "hermitian.form_matrix",
            "scheme.inner_distribution", "scheme.dual_inner_distribution.dual-code",
            "scheme.dual_inner_distribution.eigenvalues", "scheme.eigenvalues",
            "scheme.design_by_extension_count", "gf.make_tower")
_SELF_ONLY = ("hermitian.code_from_dict", "constructions.build", "equivalence.kernel_K",
              "equivalence.left_idealiser", "equivalence.right_idealiser")
CHECK_NAMES = ("bound", "mindist", "theorem3", "dual", "designs", "kernel", "idealisers")
CLI_CALLS = ("construct", "dual", "verify", "stats")


def _unit(name: str) -> str:
    if name.endswith("_ns") or "_ns." in name:
        return "ns"
    if name.endswith("_ms") or "_ms." in name:
        return "ms"
    if name.endswith("_s") or "_s." in name:
        return "s"
    return "ratio" if name.endswith("ratio") else "count"


PER_LAYER_NAMES = (
    [f"gf.make_tower_s.q{q}" for q in (3, 5, 7, 9)]
    + [f"gf.{op}_ns.p{p}" for op in ("add", "mul", "frobenius") for p in (2, 3, 5)]
    + [f"{s}.{k}" for s in _SPANNED for k in ("calls", "self_s")]
    + [f"{s}.self_s" for s in _SELF_ONLY]
    + ["scheme.inner_distribution.words", "scheme.inner_distribution.useful_ratio",
       "scheme.inner_distribution.serial_s", "scheme.inner_distribution.threads2_s",
       "scheme.eigenvalues.computed", "scheme.eigenvalues.matrices",
       "scheme.design_by_extension_count.word_subspace_pairs"]
    + [f"cli.check_ms.{c}" for c in CHECK_NAMES]
    + [f"cli.call_s.{c}" for c in CLI_CALLS]
    + ["trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s"]
)
PER_LAYER = {name: _unit(name) for name in PER_LAYER_NAMES}


# -- golden outputs ---------------------------------------------------------------


def report_outputs(text: str) -> dict:
    """Per-check golden records of a reproduce_report JSON payload."""
    payload = json.loads(text)
    out = {}
    for block in payload["instances"]:
        instance = {k: block[k] for k in ("family", "q", "label", "size")}
        for rep in block["reports"]:
            out[f"{block['label']}/{rep['check']}"] = {
                "instance": instance, "report": rep,
                "no_failures": payload["no_failures"]}
    return out


def failed_ops(observed: dict, golden: dict) -> set:
    """Names of operations whose exit code or output differs from the golden
    record; an operation missing from either side fails too."""
    return {name for name in set(observed) | set(golden)
            if observed.get(name) != golden.get(name)}


# -- running worker processes --------------------------------------------------------


class Run:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.rng = random.Random(seed)
        self.start = time.perf_counter()
        self.work = STATE / f"work-{os.getpid()}"
        self.spans_dir = STATE / f"spans-{workload}"
        self.jobs = 0
        self.timed_out = False
        self.raw_s = 0.0  # un-normalised wall time of all worker calls

    def worker(self, job: dict):
        """Run one job in a fresh interpreter; returns (result or None, wall_s)."""
        self.jobs += 1
        job = dict(job, result=str(self.work / f"result-{self.jobs}.json"))
        if job.get("trace"):
            job["spans"] = str(self.spans_dir / f"{self.jobs}-{job['kind']}.json")
        timeout = HARD_LIMIT_S - (time.perf_counter() - self.start)
        start = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), json.dumps(job)],
                                  capture_output=True, text=True, timeout=max(timeout, 1.0),
                                  cwd=str(self.work))
        except subprocess.TimeoutExpired:
            self.timed_out = True
            sys.stderr.write(f"worker {job['kind']} timed out\n")
            return None, time.perf_counter() - start
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            sys.stderr.write(f"worker {job['kind']} exited {proc.returncode}:\n"
                             f"{proc.stderr[-2000:]}\n")
            return None, wall
        with open(job["result"], encoding="utf-8") as fh:
            res = json.load(fh)
        self.raw_s += wall
        # the worker's own speed-normalisation, applied to the whole call
        return res, wall * res["lifetime_norm_s"] / res["lifetime_s"]

    # each pass returns {"wall_s", "setup_s", "rss_mb", "ops": [[name, ms]],
    # "outputs": {name: record}, "traces": [summary]}

    def pass_report(self, trace: bool) -> dict:
        order = list(range(REPORT_INSTANCES))
        self.rng.shuffle(order)
        out = self.work / "report.json"
        res, wall = self.worker({"kind": "report", "order": order, "out": str(out),
                                 "trace": trace})
        outputs = {}
        if res is not None and out.exists():
            outputs = {name: dict(rec, exit=res["exit"])
                       for name, rec in report_outputs(out.read_text()).items()}
        return _pass(wall, [res], outputs, [op[:2] for op in res["ops"]] if res else [])

    def pass_stats(self, trace: bool) -> dict:
        names = list(WORKLOADS[self.workload]["codes"])
        self.rng.shuffle(names)
        codes = [[n, str(INPUTS / f"{n}.json"), str(self.work / f"stats-{n}.json")]
                 for n in names]
        res, wall = self.worker({"kind": "stats", "codes": codes, "trace": trace})
        outputs, ops = {}, []
        for name, ms, rc in (res["ops"] if res else []):
            out = self.work / f"stats-{name.split()[-1]}.json"
            outputs[name] = {"exit": rc, "output": out.read_text() if out.exists() else None}
            ops.append([name, ms])
        return _pass(wall, [res], outputs, ops)

    def pass_construct_wide(self, trace: bool) -> dict:
        qs = list(WIDE_QS)
        self.rng.shuffle(qs)
        results, outputs, ops = [], {}, []
        wall_total = 0.0
        for q in qs:
            code = self.work / f"code-E-q{q}.json"
            files = {"construct": code, "dual": self.work / f"dual-E-q{q}.json",
                     "verify": self.work / f"verify-E-q{q}.json"}
            argvs = {
                "construct": ["construct", "--family", "E", "--q", str(q), "--n", "3",
                              "--d", "3", "--s", "1"],
                "dual": ["dual", "--code", str(code)],
                "verify": ["verify", "--code", str(code), "--checks", "bound,mindist"],
            }
            for sub, argv in argvs.items():
                files[sub].unlink(missing_ok=True)
                res, wall = self.worker({"kind": "cli", "trace": trace,
                                         "argv": argv + ["--out", str(files[sub])]})
                wall_total += wall
                results.append(res)
                name = f"{sub} E-q{q}"
                ops.append([name, wall * 1e3])
                outputs[name] = {
                    "exit": res["exit"] if res else None,
                    "output": files[sub].read_text() if files[sub].exists() else None}
        return _pass(wall_total, results, outputs, ops)

    def run_pass(self, trace: bool = False) -> dict:
        before = self.raw_s
        result = getattr(self, "pass_" + WORKLOADS[self.workload]["pass"])(trace)
        result["raw_wall_s"] = self.raw_s - before
        return result

    def setup_probe(self):
        job = {"kind": "setup", "workload": self.workload}
        if self.workload != "report":
            job["codes"] = [[n, str(INPUTS / f"{n}.json"), None]
                            for n in WORKLOADS[self.workload]["codes"]]
        res, _wall = self.worker(job)
        return res["setup_s"] if res else None


def _pass(wall: float, results: list, outputs: dict, ops: list) -> dict:
    ok = [r for r in results if r is not None]
    return {
        "wall_s": wall,
        "setup_s": sum(r["setup_s"] for r in ok) if len(ok) == len(results) else None,
        "rss_mb": max((r["rss_mb"] for r in ok), default=None),
        "ops": ops,
        "outputs": outputs,
        "traces": [r["trace"] for r in ok if r["trace"]],
    }


# -- metrics --------------------------------------------------------------------------


def tail_percentile(samples) -> tuple[float, float]:
    """Highest percentile (from a fixed ladder) with at least ten samples
    beyond it, by nearest rank; the maximum when there are too few samples."""
    xs = sorted(samples)
    n = len(xs)
    for pct in (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0):
        idx = max(math.ceil(pct / 100.0 * n) - 1, 0)
        if n - 1 - idx >= 10:
            return pct, xs[idx]
    return 100.0, xs[-1]


def end_to_end(passes: list, setups: list, words: int) -> tuple[dict, dict]:
    walls = [p["wall_s"] for p in passes]
    latencies = [ms for p in passes for _name, ms in p["ops"]]
    if not latencies or not setups or any(p["rss_mb"] is None for p in passes):
        return {}, {"passes": len(passes)}  # a worker failed; reported as incorrect
    pct, tail = tail_percentile(latencies)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "op_p50_ms": statistics.median(latencies),
        "op_tail_ms": tail,
        "words_per_s": statistics.median(words / w for w in walls),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }
    notes = {"passes": len(passes), "setup_samples": len(setups),
             "op_samples": len(latencies), "op_tail_percentile": pct,
             "raw_wall_s": statistics.median(p["raw_wall_s"] for p in passes),
             "samples": {"wall_s": walls, "raw_wall_s": [p["raw_wall_s"] for p in passes],
                         "setup_s": setups, "op_ms": [op for p in passes for op in p["ops"]]}}
    return values, notes


def per_layer(traced: dict, untraced_wall: float, layers: dict) -> tuple[dict, list]:
    merged = merge(traced["traces"])
    c = merged["counters"]
    values = dict(layers)
    for name in _SPANNED:
        calls, _total, self_s = totals(merged, name)
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = self_s
    for name in _SELF_ONLY:
        values[f"{name}.self_s"] = totals(merged, name)[2]
    inner_calls = values["scheme.inner_distribution.calls"]
    values["scheme.inner_distribution.words"] = c["scheme.inner_distribution.words"]
    values["scheme.inner_distribution.useful_ratio"] = (
        merged["codes"] / inner_calls if inner_calls else 0.0)
    values["scheme.eigenvalues.computed"] = c["scheme.eigenvalues.computed"]
    values["scheme.eigenvalues.matrices"] = merged["agg"].get(
        ("linalg.rank_subfield_matrix", "scheme.eigenvalues"), [0])[0]
    values["scheme.design_by_extension_count.word_subspace_pairs"] = c[
        "scheme.design_by_extension_count.word_subspace_pairs"]
    for check in CHECK_NAMES:
        calls, total, _self = totals(merged, f"cli.check.{check}")
        values[f"cli.check_ms.{check}"] = total / calls * 1e3 if calls else 0.0
    for sub in CLI_CALLS:
        times = [ms / 1e3 for name, ms in traced["ops"] if name.split()[0] == sub]
        values[f"cli.call_s.{sub}"] = statistics.median(times) if times else 0.0
    values["trace.wall_s"] = traced["wall_s"]
    values["trace.untraced_wall_s"] = untraced_wall
    values["trace.overhead_s"] = traced["wall_s"] - untraced_wall
    return values, cross_checks(merged)


def machine() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu_model": model, "loadavg_before": list(os.getloadavg())}


# -- entry point ----------------------------------------------------------------------


def benchmark(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    meta = machine()
    run = Run(workload, seed)
    run.work.mkdir(parents=True, exist_ok=True)
    golden = json.loads(GOLDEN.read_text())[workload]
    try:
        if trace:
            shutil.rmtree(run.spans_dir, ignore_errors=True)
            run.spans_dir.mkdir(parents=True)
            passes = [run.run_pass(trace=False), run.run_pass(trace=True)]
            res, _wall = run.worker({"kind": "layers", "seed": seed})
            layers = res["layers"] if res else {}
        else:
            passes = []
            while not run.timed_out:
                passes.append(run.run_pass())
                elapsed = time.perf_counter() - run.start
                if elapsed + passes[-1]["raw_wall_s"] > seconds:
                    break
            setups = [p["setup_s"] for p in passes if p["setup_s"] is not None]
            if WORKLOADS[workload]["probe"]:
                for _ in range(SETUP_SAMPLES - len(passes)):
                    setups.append(run.setup_probe())
            setups = [s for s in setups if s is not None]
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    attempted = failed = 0
    failures: list = []
    for p in passes:
        bad = failed_ops(p["outputs"], golden)
        attempted += len(golden)
        failed += len(bad)
        failures += sorted(bad)
    errors = []
    if trace:
        if not layers or not passes[1]["traces"]:
            errors.append("layer probe or traced pass did not finish")
            metrics = {}
        else:
            metrics, errors = per_layer(passes[1], passes[0]["wall_s"], layers)
        units, notes = PER_LAYER, {"passes": 2}
    else:
        metrics, notes = end_to_end(passes, setups, WORKLOADS[workload]["words"])
        units = END_TO_END
    meta["loadavg_after"] = list(os.getloadavg())
    return {
        # a broken cross-check is printed, not counted against the program:
        # a later route may legitimately stop calling a wrapped function
        "correct": failed == 0 and not run.timed_out and set(metrics) == set(units),
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
        "machine": meta, "notes": notes, "failures": failures, "cross_check_errors": errors,
        "workload": workload, "seed": seed, "trace": int(trace),
    }


def record_golden() -> int:
    """Write the inputs and golden outputs from the current tree."""
    INPUTS.mkdir(parents=True, exist_ok=True)
    run = Run("report", 0)
    run.work.mkdir(parents=True, exist_ok=True)
    try:
        for name, args in STATS_CODES.items():
            res, _ = run.worker({"kind": "cli", "argv": ["construct", *args, "--out",
                                                         str(INPUTS / f"{name}.json")]})
            if res is None or res["exit"] != 0:
                raise SystemExit(f"construct {name} failed")
        golden = {}
        for workload in WORKLOADS:
            run.workload = workload
            golden[workload] = run.run_pass()["outputs"]
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


def print_result(result: dict) -> None:
    """Print a run's metrics by name with their units; the JSON result last."""
    notes = result["notes"]
    print(f"machine: {json.dumps(result['machine'])}")
    print(f"workload {result['workload']} seed {result['seed']} trace {result['trace']}: "
          f"{result['attempted']} operations, {result['failed']} failed, "
          f"fail_ratio {result['failed'] / result['attempted']:g}")
    for name, m in result["metrics"].items():
        extra = ""
        if name == "op_tail_ms":
            extra = f"  (p{notes['op_tail_percentile']:g} of {notes['op_samples']} samples)"
        elif name == "setup_s":
            extra = f"  (median of {notes['setup_samples']} set-ups)"
        print(f"  {name:<58} {m['value']:>16.6g} {m['unit']}{extra}")
    for err in result["cross_check_errors"]:
        print(f"CROSS-CHECK FAILED: {err}")
        sys.stderr.write(f"CROSS-CHECK FAILED: {err}\n")
    for name in result["failures"][:20]:
        print(f"FAILED: {name}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-golden", action="store_true")
    args = ap.parse_args(argv)
    for rel in ("src/hermcodes/cli.py", "scripts/reproduce_report.py"):
        if not (ROOT / rel).is_file():
            sys.stderr.write(f"error: {rel} not found under {ROOT}; "
                             "run from a hermcodes checkout\n")
            return 2
    if args.record_golden:
        return record_golden()
    if not args.workload:
        ap.error("--workload is required")
    if not GOLDEN.is_file():
        sys.stderr.write(f"error: golden outputs {GOLDEN} missing\n")
        return 2

    STATE.mkdir(exist_ok=True)
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        result = benchmark(workload, args.seed, args.seconds, bool(args.trace))
        record = STATE / f"result-{workload}-seed{args.seed}-trace{args.trace}.json"
        record.write_text(json.dumps(result, indent=1) + "\n")
        print_result(result)
    return 0

if __name__ == "__main__":
    sys.exit(main())
