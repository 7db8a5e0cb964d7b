"""One unit of benchmark work, run in a fresh interpreter by run.py.

Usage: python3 perfbench/worker.py '<job JSON>'

The job names its kind and a result path.  The worker times the import of
the package, times every construction or code-file load (set-up), runs the
work through the package's public entry points, and writes a JSON result:
import and set-up seconds, per-operation latencies, the program's exit code,
peak resident memory and, when the job asks for it, the trace summary.

Times are normalised to a reference CPU speed (see `SpeedProbe`); the raw
lifetime of the process is reported beside its normalised one.

Kinds:
  report  scripts/reproduce_report.py main() with INSTANCES in the given order
  stats   `hermcodes stats` on each (code file, output file) pair, in process
  cli     one `hermcodes` CLI call (argv given)
  setup   only the set-up of a workload: import, then build or load its codes
  layers  per-layer probes: tower builds, field-op microbenchmarks and the
          two-worker inner distribution next to the serial one
"""

from __future__ import annotations

import json
import random
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "scripts"), str(Path(__file__).resolve().parent)]

from tracer import Tracer, replace_everywhere, undo  # noqa: E402

REPORT_MODULE = "reproduce_report"

# microbenchmark size: operand pairs per timing, timings per operation
MICRO_OPS = 4096
MICRO_REPEATS = 7

# q -> (p, e) of the towers built with n = 3 by the layer probe
TOWER_QS = {3: (3, 1), 5: (5, 1), 7: (7, 1), 9: (3, 2)}


# The host this benchmark was built on shares its CPUs with other machines,
# and the speed of a vCPU drifts by tens of percent over seconds.  A fixed
# piece of interpreter work (the probe) runs from SIGALRM every
# PROBE_PERIOD_S on the worker's own CPU, and every time the worker reports is
# scaled by PROBE_REF_S / (mean probe duration around the interval), after
# removing the probes' own time.  A slower program still reads slower, as its
# work grows and the probe's does not; a slower host does not.  The probe runs
# twice per tick and only the second, warm-cache run is timed, so the state
# the program leaves in the caches does not move the scale.  PROBE_REF_S is the
# warm probe's median duration on that 2-vCPU host (Xeon, CPython 3.11) when
# quiet, so there normalised and raw times agree.
PROBE_PERIOD_S = 0.02
PROBE_REF_S = 125e-6
PROBE_PAD_S = 0.25

_PROBE_TABLE = {i: (i * 7919) % 1009 for i in range(1024)}


def _probe_work() -> int:
    # tuples, dict lookups and small-int arithmetic, like the field code
    acc = 0
    rows = [list(range(j, j + 6)) for j in range(6)]
    for r in range(10):
        for row in rows:
            t = tuple((x * 3 + acc) % 1009 for x in row)
            acc = (acc + _PROBE_TABLE[t[0]] + sum(t)) & 1023
            row[r % 6] = len(t) + acc
    s = 0
    for i in range(600):
        s = (s + i * i) % 1000003
    return acc + s


class SpeedProbe:
    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []  # (start, cost, warm run)

    def _tick(self, signum, frame):
        start = time.perf_counter()
        _probe_work()
        warm = time.perf_counter()
        _probe_work()
        end = time.perf_counter()
        self.samples.append((start, end - start, end - warm))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def normalise(self, start: float, end: float) -> float:
        """Seconds [start, end] takes at the reference speed, probes excluded."""
        own = sum(cost for t, cost, _ in self.samples if start <= t <= end)
        near = [warm for t, _, warm in self.samples
                if start - PROBE_PAD_S <= t <= end + PROBE_PAD_S]
        speed = PROBE_REF_S / statistics.mean(near) if near else 1.0
        return (end - start - own) * speed


class SetupClock:
    """Records the intervals of outermost calls to the wrapped functions."""

    def __init__(self):
        self.intervals: list[tuple[float, float]] = []
        self.depth = 0

    def wrap(self, fn):
        def timed(*args, **kwargs):
            self.depth += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.depth -= 1
                if not self.depth:
                    self.intervals.append((start, time.perf_counter()))
        return timed


def _time_setup(clock: SetupClock) -> list:
    from hermcodes import constructions, hermitian
    entries = []
    for fn in (constructions.build, hermitian.code_from_dict):
        entries += replace_everywhere(fn, clock.wrap(fn), (REPORT_MODULE,))
    return entries


def run_report(job, ops):
    import reproduce_report as rr
    rr.INSTANCES[:] = [rr.INSTANCES[i] for i in job["order"]]
    run_check = rr._run_check

    def timed_check(name, code, budget):
        start = time.perf_counter()
        try:
            return run_check(name, code, budget)
        finally:
            ops.append([f"{code.label}/{name}", start, time.perf_counter(), None])

    rr._run_check = timed_check
    return rr.main(["--out", job["out"]])


def run_stats(job, ops):
    from hermcodes import cli
    rc = 0
    for name, code_path, out_path in job["codes"]:
        start = time.perf_counter()
        code_rc = cli.main(["stats", "--code", code_path, "--out", out_path])
        ops.append([f"stats {name}", start, time.perf_counter(), code_rc])
        rc = rc or code_rc
    return rc


def run_cli(job, ops):
    from hermcodes import cli
    return cli.main(job["argv"])


def run_setup(job, ops):
    import hermcodes
    if job["workload"] == "report":
        import reproduce_report as rr
        for params in rr.INSTANCES:
            hermcodes.build(params)
    else:
        for _name, code_path, _out in job["codes"]:
            with open(code_path, encoding="utf-8") as fh:
                hermcodes.code_from_dict(json.load(fh))
    return 0


def _micro(call, pairs) -> list:
    samples = []
    for _ in range(MICRO_REPEATS):
        start = time.perf_counter()
        for a, b in pairs:
            call(a, b)
        samples.append([start, time.perf_counter(), 1e9 / len(pairs)])
    return samples


def run_layers(job, ops):
    """Fills job["layers"]: metric name -> [[start, end, scale], ...]; the
    metric is the median of the normalised intervals times their scale."""
    from hermcodes import ConstructionParams, build, make_tower
    from hermcodes.scheme import inner_distribution
    out = job["layers"] = {}
    towers = {}
    for q, (p, e) in TOWER_QS.items():
        start = time.perf_counter()
        towers[q] = make_tower(p, e, 3)
        out[f"gf.make_tower_s.q{q}"] = [[start, time.perf_counter(), 1.0]]
    towers[2] = make_tower(2, 1, 3)
    rng = random.Random(job["seed"])
    for p in (2, 3, 5):
        t = towers[p]
        pairs = [(rng.randrange(t.order), rng.randrange(t.order)) for _ in range(MICRO_OPS)]
        frob_pairs = [(a, 1) for a, _ in pairs]
        out[f"gf.add_ns.p{p}"] = _micro(t.add, pairs)
        out[f"gf.mul_ns.p{p}"] = _micro(t.mul, pairs)
        out[f"gf.frobenius_ns.p{p}"] = _micro(t.frobenius, frob_pairs)

    # a fresh code object for each timing, so no per-code memo is shared
    params = ConstructionParams(family="Htilde", q=5, n=3, s=1)
    start = time.perf_counter()
    serial = inner_distribution(build(params))
    out["scheme.inner_distribution.serial_s"] = [[start, time.perf_counter(), 1.0]]
    start = time.perf_counter()
    pooled = inner_distribution(build(params), threads=2)
    out["scheme.inner_distribution.threads2_s"] = [[start, time.perf_counter(), 1.0]]
    if pooled != serial:
        raise RuntimeError(f"threads=2 gave {pooled}, serial gave {serial}")
    return 0


KINDS = {"report": run_report, "stats": run_stats, "cli": run_cli,
         "setup": run_setup, "layers": run_layers}


def main() -> int:
    job = json.loads(sys.argv[1])
    probe = SpeedProbe()
    probe.start()
    start = time.perf_counter()
    import hermcodes  # noqa: F401
    import hermcodes.cli  # noqa: F401
    if job["kind"] in ("report", "setup"):
        import reproduce_report  # noqa: F401
    imported = time.perf_counter()

    tracer = None
    if job.get("trace"):
        tracer = Tracer()
        tracer.install((REPORT_MODULE,))
    clock = SetupClock()
    entries = _time_setup(clock)
    ops: list = []
    try:
        rc = KINDS[job["kind"]](job, ops)
    finally:
        undo(entries)
        if tracer:
            tracer.uninstall()
    end = time.perf_counter()
    probe.stop()
    norm = probe.normalise
    import_s = norm(start, imported)
    scale = norm(start, end) / (end - start)
    result = {
        "exit": rc,
        "import_s": import_s,
        "setup_s": import_s + sum(norm(a, b) for a, b in clock.intervals),
        "ops": [[name, norm(a, b) * 1e3, code_rc] for name, a, b, code_rc in ops],
        "lifetime_s": end - start,
        "lifetime_norm_s": scale * (end - start),
        "probe_warm_s": statistics.median(w for *_, w in probe.samples)
        if probe.samples else None,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": {name: statistics.median(norm(a, b) * k for a, b, k in samples)
                   for name, samples in job.get("layers", {}).items()},
        "trace": tracer.summary(scale) if tracer else None,
    }
    if tracer and job.get("spans"):
        tracer.dump_spans(job["spans"])
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
