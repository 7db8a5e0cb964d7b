"""Span tracer installed from outside the package.

`Tracer.install` replaces each target function by a wrapper in every
loaded module that holds a reference to it (``scheme`` imports
``rank_subfield_matrix`` from ``linalg``, ``reproduce_report`` imports
``_run_check`` from ``cli``, and so on).  Each call records its name, its
start and end, and its parent span; self time is the duration minus the time
covered by direct child spans.  Every call is aggregated per (name, parent)
as (calls, total_s, self_s); the first ``SPAN_LIMIT`` calls of each name also
keep an individual span.  Spans stay in memory until `dump_spans`.

A few private helpers are wrapped only so that the exact-count cross-checks
(`cross_checks`) can attribute calls to the right parent:

* ``scheme._random_invertible`` and ``HermMatrix.rank`` call
  ``rank_subfield_matrix`` from inside ``eigenvalues`` without enumerating a
  matrix of the scheme;
* ``scheme._dot`` is called ``t*n + t*t`` times per (codeword, subspace) pair
  in ``design_by_extension_count``, and ``_subspace_representatives`` gives
  the number of subspaces.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import sys
import time
from collections import defaultdict

SPAN_LIMIT = 10_000

EIG = "scheme.eigenvalues"
DESIGN = "scheme.design_by_extension_count"
INNER = "scheme.inner_distribution"


def code_key(code) -> tuple:
    t = code.tower
    return (t.p, t.e, t.n, t.modulus,
            tuple(tuple(g.image_columns()) for g in code.generators))


# -- hooks that turn call arguments and results into exact counts ---------------


def _inner_post(tr, args, kwargs, result, token):
    tr.counters[INNER + ".words"] += sum(result)
    tr.codes.add(code_key(args[0]))


def _eig_pre(tr, args, kwargs):
    return "eigenvalues" not in args[0].cache


def _eig_post(tr, args, kwargs, result, computed):
    if computed:
        tower = args[0]
        tr.counters[EIG + ".computed"] += 1
        tr.counters[EIG + ".expected_matrices"] += tower.q ** (tower.n * tower.n)


def _design_pre(tr, args, kwargs):
    return tr.agg_calls("scheme._dot", DESIGN)


def _design_post(tr, args, kwargs, result, dots_before):
    code, t = args[0], args[1]
    n = code.tower.n
    dots = tr.agg_calls("scheme._dot", DESIGN) - dots_before
    tr.counters[DESIGN + ".word_subspace_pairs"] += dots // (t * n + t * t)
    tr.counters[DESIGN + ".dot_remainder"] += dots % (t * n + t * t)
    tr.counters[DESIGN + ".expected_pairs"] += code.size * tr.counters["last_subspaces"]


def _subspaces_post(tr, args, kwargs, result, token):
    tr.counters["last_subspaces"] = len(result)


def _route_name(args, kwargs):
    method = args[1] if len(args) > 1 else kwargs.get("method", "dual-code")
    return f"scheme.dual_inner_distribution.{method}"


def _check_name(args, kwargs):
    return f"cli.check.{args[0]}"


# (module, attribute, span name or function of the call's arguments, pre, post)
TARGETS = [
    ("hermcodes.gf", "make_tower", "gf.make_tower", None, None),
    ("hermcodes.linalg", "nullity_of_code_columns", "linalg.nullity_of_code_columns", None, None),
    ("hermcodes.linalg", "rank_subfield_matrix", "linalg.rank_subfield_matrix", None, None),
    ("hermcodes.linalg", "nullspace_mod_p", "linalg.nullspace_mod_p", None, None),
    ("hermcodes.hermitian", "dual_code", "hermitian.dual_code", None, None),
    ("hermcodes.hermitian", "form_matrix", "hermitian.form_matrix", None, None),
    ("hermcodes.hermitian", "code_from_dict", "hermitian.code_from_dict", None, None),
    ("hermcodes.hermitian", "HermMatrix.rank", "hermitian.HermMatrix.rank", None, None),
    ("hermcodes.scheme", "inner_distribution", INNER, None, _inner_post),
    ("hermcodes.scheme", "dual_inner_distribution", _route_name, None, None),
    ("hermcodes.scheme", "eigenvalues", EIG, _eig_pre, _eig_post),
    ("hermcodes.scheme", "_random_invertible", "scheme._random_invertible", None, None),
    ("hermcodes.scheme", "design_by_extension_count", DESIGN, _design_pre, _design_post),
    ("hermcodes.scheme", "_subspace_representatives", "scheme._subspace_representatives",
     None, _subspaces_post),
    ("hermcodes.scheme", "_dot", "scheme._dot", None, None),
    ("hermcodes.constructions", "build", "constructions.build", None, None),
    ("hermcodes.equivalence", "kernel_K", "equivalence.kernel_K", None, None),
    ("hermcodes.equivalence", "left_idealiser", "equivalence.left_idealiser", None, None),
    ("hermcodes.equivalence", "right_idealiser", "equivalence.right_idealiser", None, None),
    ("hermcodes.cli", "_run_check", _check_name, None, None),
]


def replace_everywhere(original, wrapper, extra_modules=()) -> list:
    """Point every reference to `original` in the package (and in the named
    extra modules) at `wrapper`; returns the entries `undo` needs."""
    done = []
    for key, mod in list(sys.modules.items()):
        if mod is None or not (key.startswith("hermcodes") or key in extra_modules):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
                done.append((mod, attr, original))
    return done


def undo(entries) -> None:
    for obj, attr, original in reversed(entries):
        setattr(obj, attr, original)


class Tracer:
    def __init__(self):
        self.stack: list[list] = []      # frames: [name, child_s, span_id]
        self.agg: dict = defaultdict(lambda: [0, 0.0, 0.0])  # (name, parent) -> calls, total, self
        self.spans: list[tuple] = []     # (id, name, parent_id, start, end)
        self.kept: dict = defaultdict(int)
        self.counters: dict = defaultdict(int)
        self.codes: set = set()
        self._undo: list = []

    def agg_calls(self, name: str, parent: str) -> int:
        rec = self.agg.get((name, parent))
        return rec[0] if rec else 0

    def _wrap(self, fn, name, pre, post):
        tracer = self
        stack = self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            nm = name(args, kwargs) if callable(name) else name
            parent = stack[-1] if stack else None
            span_id = None
            if tracer.kept[nm] < SPAN_LIMIT:
                tracer.kept[nm] += 1
                span_id = len(tracer.spans)
                tracer.spans.append(None)
            token = pre(tracer, args, kwargs) if pre else None
            frame = [nm, 0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if parent is not None:
                    parent[1] += dur
                rec = tracer.agg[(nm, parent[0] if parent else None)]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]
                if span_id is not None:
                    tracer.spans[span_id] = (span_id, nm, parent[2] if parent else None,
                                             start, end)
            if post:
                post(tracer, args, kwargs, result, token)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, extra_modules=()) -> None:
        """Wrap every target in every loaded module that refers to it."""
        for modname, attr, name, pre, post in TARGETS:
            owner = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(original, name, pre, post))
                self._undo.append((cls, meth, original))
            else:
                original = getattr(owner, attr)
                self._undo += replace_everywhere(
                    original, self._wrap(original, name, pre, post), extra_modules)

    def uninstall(self) -> None:
        undo(self._undo)
        self._undo.clear()

    def summary(self, scale: float = 1.0) -> dict:
        """Aggregates and counters in a JSON-friendly form, mergeable by
        `merge`; times are multiplied by `scale`."""
        return {
            "agg": [[name, parent, calls, total * scale, self_s * scale]
                    for (name, parent), (calls, total, self_s) in self.agg.items()],
            "counters": dict(self.counters),
            "codes": sorted(hashlib.sha1(repr(k).encode()).hexdigest() for k in self.codes),
        }

    def dump_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "parent", "start", "end"],
                       "spans": [s for s in self.spans if s is not None]}, fh)


def merge(summaries) -> dict:
    """Sum the summaries of several traced processes."""
    agg: dict = defaultdict(lambda: [0, 0.0, 0.0])
    counters: dict = defaultdict(int)
    codes: set = set()
    for s in summaries:
        for name, parent, calls, total, self_s in s["agg"]:
            rec = agg[(name, parent)]
            rec[0] += calls
            rec[1] += total
            rec[2] += self_s
        for k, v in s["counters"].items():
            if k != "last_subspaces":
                counters[k] += v
        codes.update(s["codes"])
    return {"agg": agg, "counters": counters, "codes": len(codes)}


def totals(merged: dict, name: str) -> tuple[int, float, float]:
    """(calls, total_s, self_s) of one span name summed over its parents."""
    calls, total, self_s = 0, 0.0, 0.0
    for (nm, _parent), rec in merged["agg"].items():
        if nm == name:
            calls += rec[0]
            total += rec[1]
            self_s += rec[2]
    return calls, total, self_s


def cross_checks(merged: dict) -> list[str]:
    """Exact counts that must repeat; returns a message per broken identity.

    * rank-kernel calls made directly by inner_distribution = words enumerated;
    * rank_subfield_matrix calls made directly by eigenvalues = q^(n^2) per
      table computed;
    * (codeword, subspace) pairs in design_by_extension_count = |C| x subspaces.

    A wrapper that misses a call site breaks one of these; so does a later
    route that no longer makes the call, which the message then reports.
    """
    agg, c = merged["agg"], merged["counters"]
    errors = []
    nullity = agg.get(("linalg.nullity_of_code_columns", INNER), [0])[0]
    if nullity != c[INNER + ".words"]:
        errors.append(f"nullity_of_code_columns calls under inner_distribution = {nullity}, "
                      f"words enumerated = {c[INNER + '.words']}")
    matrices = agg.get(("linalg.rank_subfield_matrix", EIG), [0])[0]
    if matrices != c[EIG + ".expected_matrices"]:
        errors.append(f"eigenvalues.matrices = {matrices}, "
                      f"q^(n^2) x computed = {c[EIG + '.expected_matrices']}")
    pairs = c[DESIGN + ".word_subspace_pairs"]
    if c[DESIGN + ".dot_remainder"] or pairs != c[DESIGN + ".expected_pairs"]:
        errors.append(f"design_by_extension_count.word_subspace_pairs = {pairs}, "
                      f"|C| x subspaces = {c[DESIGN + '.expected_pairs']}")
    return errors
