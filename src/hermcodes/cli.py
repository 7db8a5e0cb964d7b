"""Command-line front end: construct codes, analyze them, verify theorem
instances, and emit machine-readable JSON reports.

Output determinism: all JSON is emitted with sorted keys and canonical list
orders, and big integers are rendered as decimal strings, so identical
inputs give byte-identical outputs.  Wall-clock timings are therefore only
included when --timings is passed.

Exit codes: 0 all checks pass, 1 any check fails, 2 usage or input error,
3 enumeration budget exceeded (verdict "inconclusive", never "fail").
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, NamedTuple, Optional

from . import constructions, equivalence, scheme
from .constructions import ConstructionParams, ParameterError
from .hermitian import HermCode, code_from_dict, code_to_dict, dual_code
from .scheme import BudgetExceededError, DEFAULT_BUDGET

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


class Report(NamedTuple):
    check: str
    params: dict
    verdict: str                  # "pass" | "fail" | "inconclusive"
    witness: Optional[dict] = None
    wall_time_ms: float = 0.0

    def to_json(self, timings: bool) -> dict:
        out: dict[str, Any] = {
            "check": self.check,
            "params": _stringify(self.params),
            "verdict": self.verdict,
            "witness": _stringify(self.witness),
        }
        if timings:
            out["wall_time_ms"] = round(self.wall_time_ms, 3)
        return out


def _stringify(obj):
    """Big integers as decimal strings, tuples as lists, keys as strings."""
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, (list, tuple)):
        return [_stringify(v) for v in obj]
    if isinstance(obj, (dict,)):
        return {str(k): _stringify(v) for k, v in obj.items()}
    if isinstance(obj, frozenset):
        return sorted(obj)
    return obj


def _emit(obj: dict, out_path: Optional[str]) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_code(path: str) -> HermCode:
    with open(path, "r", encoding="utf-8") as fh:
        return code_from_dict(json.load(fh))


# -- subcommands -----------------------------------------------------------------


def cmd_construct(args) -> int:
    params = ConstructionParams(family=args.family, q=args.q, n=args.n,
                                d=args.d, s=args.s, gamma_power=args.gamma)
    code = constructions.build(params)
    payload = code_to_dict(code)
    _emit(payload, args.out)
    sys.stderr.write(f"{code.label}: size {code.size}, declared d = {code.declared_d}\n")
    return EXIT_OK


def cmd_stats(args) -> int:
    code = _load_code(args.code)
    inner, dual = scheme.distributions(code, args.budget)
    min_distance = scheme.min_rank(inner)
    d = code.declared_d if code.declared_d is not None else min_distance
    payload = {
        "size": str(code.size),
        "min_distance": min_distance,
        "inner": [str(v) for v in inner],
        "dual_inner": [str(v) for v in dual],
        "design_strength": scheme.dual_strength(dual),
        "bound_saturated": code.size == scheme.max_code_size(code.tower.q, code.n, d),
    }
    _emit(payload, args.out)
    return EXIT_OK


def cmd_dual(args) -> int:
    code = _load_code(args.code)
    _emit(code_to_dict(dual_code(code)), args.out)
    return EXIT_OK


def cmd_eigenvalues(args) -> int:
    # built only to refuse what `construct` refuses: q not a prime power,
    # n < 1, or a field past the tower ceiling
    constructions.tower_for(args.q, args.n)
    eig = scheme.closed_form_eigenvalues(args.q, args.n)
    payload = {
        "q": args.q,
        "n": args.n,
        "rank_counts": [str(v) for v in eig.rank_counts],
        "table": [[str(v) for v in row] for row in eig.table],
    }
    _emit(payload, args.out)
    return EXIT_OK


def cmd_fingerprint(args) -> int:
    code = _load_code(args.code)
    fp = equivalence.invariant_fingerprint(code, budget=args.budget)
    payload: dict[str, Any] = {"code": _fp_dict(fp)}
    if args.against:
        other = equivalence.invariant_fingerprint(_load_code(args.against), budget=args.budget)
        cmp = equivalence.compare_fingerprints(fp, other)
        payload["against"] = _fp_dict(other)
        payload["comparison"] = {
            "verdict": cmp.verdict,
            "differing_fields": list(cmp.differing_fields),
        }
    _emit(payload, args.out)
    return EXIT_OK


def _fp_dict(fp) -> dict:
    return {
        "label": fp.label,
        "size": str(fp.size),
        "inner": [str(v) for v in fp.inner],
        "dual_inner": [str(v) for v in fp.dual_inner],
        "design_strength": fp.design_strength,
        "kernel_order": str(fp.kernel_order),
        "left_idealiser_order": str(fp.left_idealiser_order),
        "right_idealiser_order": str(fp.right_idealiser_order),
        "support_size": fp.support_size,
    }


# -- checks ----------------------------------------------------------------------
#
# Each check takes the code, its minimum distance d (declared, else
# enumerated) and the budget, and returns (verdict, witness).  The
# distributions come from `scheme.distributions`, which walks the smaller of
# C and C-perp, charges it against the budget on every call and keeps it in
# the per-code memo; `dual` alone walks both sides.  So a battery walks each
# side at most once, and a side over the budget reads "inconclusive".


def _maximum_design(code: HermCode, d: int, budget: int) -> bool:
    """C is a maximum d-code and an (n-d)-design.  The distributions are
    computed even when C is not maximum, so a budget too small for the walked
    side is always reported."""
    strength = scheme.design_strength(code, budget)
    return (code.size == scheme.max_code_size(code.tower.q, code.n, d)
            and strength >= code.n - d)


def _check_bound(code: HermCode, d: int, budget: int):
    bound = scheme.max_code_size(code.tower.q, code.n, d)
    if code.size != bound:
        return "fail", {"size": code.size, "bound": bound}
    return "pass", None


def _check_mindist(code: HermCode, d: int, budget: int):
    mindist = scheme.min_rank(scheme.distributions(code, budget)[0])
    if code.declared_d is None or mindist == code.declared_d:
        return "pass", None
    witness = {"declared_d": code.declared_d, "min_rank": mindist}
    # the zero code has no nonzero word to show, and a code over the budget
    # fails on its distribution alone
    if mindist and code.size <= budget:
        offender = next(f for f in code.iter_span() if not f.is_zero() and f.rank() == mindist)
        witness["codeword"] = [list(code.tower.digits(c)) for c in offender.coeffs]
    return "fail", witness


def _check_theorem3(code: HermCode, d: int, budget: int):
    if not (_maximum_design(code, d, budget) and d >= 1):
        return "inconclusive", {"reason": "code is not a maximum (n-d)-design instance"}
    inner = scheme.distributions(code, budget)[0]
    predicted = scheme.theorem_distribution(code.n, d, code.tower.q, code.size)
    if inner != predicted:
        return "fail", {"enumerated": list(inner), "predicted": list(predicted)}
    return "pass", None


def _check_dual(code: HermCode, d: int, budget: int):
    # two independent routes: the walk of C-perp, and the walk of C
    # transformed by Schmidt's closed-form eigenvalues, which tests pin to
    # the character sums.  A derived side is no second route: it transforms
    # back into the walked one whatever the walk gave.  d1 passed the
    # constraints of a dual distribution, so d2 meets them iff they agree.
    d1 = scheme.walked(code, "dual", budget)
    inner = scheme.walked(code, "inner", budget)
    d2 = scheme.closed_form_eigenvalues(code.tower.q, code.n).transform(inner)
    if d1 != d2:
        return "fail", {"dual_code_method": list(d1), "eigenvalue_method": list(d2)}
    return "pass", None


def _check_designs(code: HermCode, d: int, budget: int):
    n = code.n
    strength = scheme.design_strength(code, budget)
    ext = scheme.design_by_extension_count(code, 1, budget=budget, method="span")
    if code.declared_d is not None and code.declared_d % 2 == 1 \
            and code.size == scheme.max_code_size(code.tower.q, n, d) \
            and strength < n - d + 1:
        return "fail", {"strength": strength, "required_at_least": n - d + 1}
    verdict = "pass" if ext.uniform == (strength >= 1) else "fail"
    return verdict, {"strength": strength, "extension_uniform": ext.uniform}


def _check_kernel(code: HermCode, d: int, budget: int):
    hypotheses = _maximum_design(code, d, budget) and d < code.n
    sol = equivalence.kernel_K(code)
    scalars = sol.meta["contains_q2_scalars"]
    witness = {"order": sol.order, "structure": sol.structure, "contains_q2_scalars": scalars}
    if not scalars or (hypotheses and sol.order != code.tower.q ** 2):
        return "fail", witness
    if not hypotheses or sol.structure == "field":
        return "pass", witness
    # a structure no certificate settled is not a failure
    return ("inconclusive" if sol.structure == "unknown" else "fail"), witness


def _check_idealisers(code: HermCode, d: int, budget: int):
    q = code.tower.q
    hypotheses = _maximum_design(code, d, budget) and d < code.n
    left = equivalence.left_idealiser(code)
    right = equivalence.right_idealiser(code)
    scalar_fq = (left.order == q and right.order == q
                 and left.meta["is_scalar_fq"] and right.meta["is_scalar_fq"])
    witness = {"left_order": left.order, "right_order": right.order,
               "left_scalar_fq": left.meta["is_scalar_fq"],
               "right_scalar_fq": right.meta["is_scalar_fq"]}
    return ("fail" if hypotheses and not scalar_fq else "pass"), witness


CHECKS = {
    "bound": _check_bound,
    "mindist": _check_mindist,
    "theorem3": _check_theorem3,
    "dual": _check_dual,
    "designs": _check_designs,
    "kernel": _check_kernel,
    "idealisers": _check_idealisers,
}


def _run_check(name: str, code: HermCode, budget: int) -> Report:
    check = CHECKS.get(name)
    if check is None:
        raise ValueError(f"unknown check {name!r}")
    start = time.perf_counter()
    params = {"code": code.label, "q": code.tower.q, "n": code.n, "d": code.declared_d}
    try:
        d = code.declared_d
        if d is None:
            d = scheme.min_rank(scheme.distributions(code, budget)[0])
        verdict, witness = check(code, d, budget)
    except BudgetExceededError as ex:
        verdict, witness = "inconclusive", {"reason": str(ex)}
    return Report(check=name, params=params, verdict=verdict, witness=witness,
                  wall_time_ms=(time.perf_counter() - start) * 1000.0)


def cmd_verify(args) -> int:
    code = _load_code(args.code)
    names = [c.strip() for c in args.checks.split(",") if c.strip()]
    if not names:
        sys.stderr.write(f"--checks names no check; available: {','.join(CHECKS)}\n")
        return EXIT_USAGE
    for nm in names:
        if nm not in CHECKS:
            sys.stderr.write(f"unknown check {nm!r}; available: {','.join(CHECKS)}\n")
            return EXIT_USAGE
    reports = [_run_check(nm, code, args.budget) for nm in names]
    payload = {
        "code": code.label,
        "reports": [r.to_json(args.timings) for r in reports],
        "all_pass": all(r.verdict == "pass" for r in reports),
    }
    _emit(payload, args.out)
    if any(r.verdict == "fail" for r in reports):
        return EXIT_FAIL
    if any(r.verdict == "inconclusive" for r in reports):
        return EXIT_BUDGET
    return EXIT_OK


def parse_budget(text: str) -> int:
    """argparse type: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hermcodes",
        description="Construct, analyze, and verify maximum Hermitian rank-metric codes.")
    sub = ap.add_subparsers(dest="command", required=True)

    # each subcommand accepts only the options its handler reads
    def common(p, budget: bool = True):
        p.add_argument("--out", default=None, help="write JSON here instead of stdout")
        if budget:
            p.add_argument("--budget", type=parse_budget, default=DEFAULT_BUDGET,
                           help="enumeration budget (elements scanned per analysis)")

    p = sub.add_parser("construct", help="build a code family instance")
    p.add_argument("--family", required=True, choices=["H", "E", "M", "Htilde"])
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--gamma", type=int, default=None,
                   help="generator power for gamma (Htilde only)")
    common(p, budget=False)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("stats", help="size, distributions, design strength")
    p.add_argument("--code", required=True)
    common(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("dual", help="compute the dual code file")
    p.add_argument("--code", required=True)
    common(p, budget=False)
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("verify", help="run named checks against a code file")
    p.add_argument("--code", required=True)
    p.add_argument("--checks", default=",".join(CHECKS),
                   help=f"comma list from: {','.join(CHECKS)}")
    p.add_argument("--timings", action="store_true",
                   help="include wall-clock timings (breaks byte-stability)")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("eigenvalues", help="exact closed-form eigenvalue table")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    common(p, budget=False)
    p.set_defaults(func=cmd_eigenvalues)

    p = sub.add_parser("fingerprint", help="equivalence-invariant fingerprint")
    p.add_argument("--code", required=True)
    p.add_argument("--against", default=None,
                   help="second code file to compare against")
    common(p)
    p.set_defaults(func=cmd_fingerprint)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as ex:
        return EXIT_USAGE if ex.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ParameterError, ValueError, OSError, json.JSONDecodeError) as ex:
        sys.stderr.write(f"error: {ex}\n")
        return EXIT_USAGE
    except BudgetExceededError as ex:
        sys.stderr.write(f"budget exceeded: {ex}\n")
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
