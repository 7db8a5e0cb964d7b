#!/usr/bin/env python3
"""Build every desk-scale family instance and run the full verification
battery over it, emitting one consolidated JSON report.

Usage:
    python scripts/reproduce_report.py [--out report.json] [--timings]
"""

import argparse
import json
import sys

from hermcodes import ConstructionParams, build
from hermcodes.cli import CHECKS, _run_check, parse_budget
from hermcodes.scheme import DEFAULT_BUDGET

INSTANCES = [
    ConstructionParams(family="H", q=2, n=3, d=2, s=1),
    ConstructionParams(family="H", q=3, n=3, d=2, s=1),
    ConstructionParams(family="E", q=2, n=3, d=3, s=1),
    ConstructionParams(family="E", q=3, n=3, d=3, s=1),
    ConstructionParams(family="M", q=2, n=3),
    ConstructionParams(family="M", q=3, n=3),
    ConstructionParams(family="Htilde", q=3, n=3, s=1),
    ConstructionParams(family="Htilde", q=5, n=3, s=1),
]

# q = 5 skips dual and designs, which both pass there, only until the
# benchmark's golden outputs record those operations (ROADMAP item 6)
LIGHT_CHECKS = ("bound", "mindist", "theorem3", "kernel", "idealisers")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default=None)
    ap.add_argument("--budget", type=parse_budget, default=DEFAULT_BUDGET)
    ap.add_argument("--timings", action="store_true")
    args = ap.parse_args(argv)

    blocks = []
    failed = False
    for params in INSTANCES:
        code = build(params)
        checks = CHECKS if params.q <= 3 else LIGHT_CHECKS
        reports = [_run_check(name, code, args.budget) for name in checks]
        failed |= any(r.verdict == "fail" for r in reports)
        blocks.append({
            "family": params.family,
            "q": params.q,
            "label": code.label,
            "size": str(code.size),
            "reports": [r.to_json(args.timings) for r in reports],
        })
        worst = max((r.verdict for r in reports),
                    key=["pass", "inconclusive", "fail"].index)
        sys.stderr.write(f"{code.label}: {worst}\n")

    # "inconclusive" marks checks whose hypotheses the instance does not
    # meet (e.g. the closed-form distribution on a non-design); only a
    # "fail" verdict indicates a broken claim
    payload = {"instances": blocks, "no_failures": not failed}
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
