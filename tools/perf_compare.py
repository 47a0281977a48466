#!/usr/bin/env python3
"""Compare bench host wall-clock against a committed baseline.

Every bench report (BENCH_<name>.json) carries a host-telemetry
"wall_ms" section: per-job wall clock with a populate/run/report phase
split, plus the invocation total. This tool diffs the totals of one or
more fresh reports against bench/baselines/wall_ms.json and fails when
a bench slowed down beyond the tolerance — the cheap guard against
accidentally serializing the populate path or losing a fast path.

Wall clock is host-dependent: the committed baseline records the
reference host in "_host" and CI uses a generous tolerance. Simulated
metrics are never compared here (they are byte-stable and CI diffs
them exactly); this is wall time only.

Usage:
  tools/perf_compare.py build/BENCH_*.json            # compare
  tools/perf_compare.py --update build/BENCH_*.json   # rewrite baseline
  tools/perf_compare.py --tolerance 2.0 ...           # ratio gate
  tools/perf_compare.py --max-regress 30 ...          # percent gate
  tools/perf_compare.py --markdown ...                # GFM table output
"""

import argparse
import json
import math
import os
import sys

DEFAULT_BASELINE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "bench", "baselines", "wall_ms.json")


def bench_name(report):
    return report.get("bench", "")


def load_report(path):
    with open(path) as f:
        doc = json.load(f)
    name = doc.get("bench") or os.path.basename(path).removeprefix(
        "BENCH_").removesuffix(".json")
    wall = doc.get("wall_ms", {})
    total = wall.get("total")
    if total is None:
        raise SystemExit(f"{path}: no wall_ms.total section")
    return name, float(total)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("reports", nargs="+",
                    help="BENCH_*.json files to compare")
    ap.add_argument("--baseline", default=DEFAULT_BASELINE)
    ap.add_argument("--tolerance", type=float, default=2.0,
                    help="fail when new/base exceeds this (default 2.0; "
                         "wall clock is noisy across hosts)")
    ap.add_argument("--max-regress", type=float, default=None,
                    metavar="PCT",
                    help="fail when a bench is more than PCT%% slower "
                         "than its baseline (e.g. 30 fails at 1.30x). "
                         "Overrides --tolerance when given — use for "
                         "same-host gating, where the generous default "
                         "ratio would hide real regressions")
    ap.add_argument("--update", action="store_true",
                    help="rewrite the baseline from the given reports")
    ap.add_argument("--markdown", action="store_true",
                    help="emit the comparison as a GitHub-flavored "
                         "markdown table (for CI job summaries)")
    args = ap.parse_args()

    gate = (1.0 + args.max_regress / 100.0
            if args.max_regress is not None else args.tolerance)

    fresh = dict(load_report(p) for p in args.reports)

    if args.update:
        base = {}
        if os.path.exists(args.baseline):
            with open(args.baseline) as f:
                base = json.load(f)
        host = base.get("_host", {})
        base = {"_host": host, **{k: round(v, 1)
                                  for k, v in sorted(fresh.items())}}
        os.makedirs(os.path.dirname(args.baseline), exist_ok=True)
        with open(args.baseline, "w") as f:
            json.dump(base, f, indent=1)
            f.write("\n")
        print(f"baseline updated: {args.baseline} "
              f"({len(fresh)} benches)")
        return 0

    with open(args.baseline) as f:
        base = json.load(f)

    failed = []
    ratios = []
    if args.markdown:
        print("| bench | base_ms | new_ms | ratio |")
        print("|---|---:|---:|---:|")
    else:
        print(f"{'bench':<26} {'base_ms':>10} {'new_ms':>10} "
              f"{'ratio':>7}")
    for name, new_ms in sorted(fresh.items()):
        base_ms = base.get(name)
        if base_ms is None:
            if args.markdown:
                print(f"| {name} | - | {new_ms:.1f} | (new) |")
            else:
                print(f"{name:<26} {'-':>10} {new_ms:>10.1f}   (new)")
            continue
        ratio = new_ms / base_ms if base_ms else float("inf")
        ratios.append(ratio)
        flag = ""
        if ratio > gate:
            flag = "REGRESSION"
            failed.append(name)
        if args.markdown:
            mark = f" **{flag}**" if flag else ""
            print(f"| {name} | {base_ms:.1f} | {new_ms:.1f} | "
                  f"{ratio:.2f}x{mark} |")
        else:
            pad = f"  {flag}" if flag else ""
            print(f"{name:<26} {base_ms:>10.1f} {new_ms:>10.1f} "
                  f"{ratio:>6.2f}x{pad}")

    # The headline number: geometric mean of new/base across every
    # bench with a baseline (< 1.0 means the tree got faster overall).
    if ratios:
        geomean = math.exp(sum(math.log(r) for r in ratios)
                           / len(ratios))
        if args.markdown:
            print(f"| **geomean** ({len(ratios)} benches) | | | "
                  f"**{geomean:.3f}x** |")
        else:
            print(f"{'geomean (' + str(len(ratios)) + ' benches)':<26} "
                  f"{'':>10} {'':>10} {geomean:>6.3f}x")

    if failed:
        print(f"\n{len(failed)} bench(es) beyond {gate:.2f}x: "
              f"{', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
