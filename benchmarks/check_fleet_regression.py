"""CI gate: fail when the fleet engine's speedup regresses > tolerance.

Compares a freshly measured ``pipeline_throughput_fleet_smoke.json``
against the committed baseline.  The gate diffs the fleet-vs-per_sample
*speedup ratio* (not absolute seconds): both engines run on the same
machine in the same process, so the ratio is robust to runner hardware
while still catching real regressions in the fleet pass.  The per-sample
``transform_one`` reference is the denominator because it is the one
other ``build_samples`` engine.

Usage::

    python benchmarks/check_fleet_regression.py BASELINE.json FRESH.json \
        [--tolerance 0.30]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", type=Path)
    parser.add_argument("fresh", type=Path)
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        help="maximum allowed relative speedup drop (default 0.30)",
    )
    args = parser.parse_args(argv)

    baseline = json.loads(args.baseline.read_text())["fleet_vs_per_sample"]
    fresh = json.loads(args.fresh.read_text())["fleet_vs_per_sample"]
    if baseline.get("scale") != fresh.get("scale"):
        print(
            f"scale mismatch: baseline {baseline.get('scale')} vs "
            f"fresh {fresh.get('scale')} — speedups are not comparable"
        )
        return 1

    failures = []
    for platform, row in baseline.items():
        if not isinstance(row, dict):  # skip the "scale" metadata field
            continue
        old = float(row["speedup"])
        new = float(fresh[platform]["speedup"])
        drop = (old - new) / old
        status = "FAIL" if drop > args.tolerance else "ok"
        print(
            f"{platform}: baseline {old:.2f}x fresh {new:.2f}x "
            f"drop {drop:+.1%} [{status}]"
        )
        if drop > args.tolerance:
            failures.append(platform)

    if failures:
        print(
            f"fleet speedup regressed > {args.tolerance:.0%} on: "
            + ", ".join(failures)
        )
        return 1
    print("fleet speedup within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
