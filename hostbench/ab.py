#!/usr/bin/env python3
"""Paired A/B runner for the host-cost benchmark.

    python3 hostbench/ab.py A_ROOT B_ROOT --workload replay-ms

A_ROOT and B_ROOT are two checkouts (the parent and the change). Each
builds into its own ROOT/.bench_build, whatever CARGO_TARGET_DIR says.
The runner makes ten (PAIRS) pairs of untraced runs, each as long as
run_seconds in A's BENCHMARK.json, alternating which side goes first;
both sides of pair i use seed SEED_BASE + i. It prints markdown: per
side the median and quartiles of every end-to-end metric, B's win share
over the pairs, and a verdict by this rule. B gains (or loses) only if
it wins at least nine tenths of the pairs (ties count for neither side)
and the medians differ by more than the distance between A's own
quartiles. Otherwise, when A's own spread is wider than the metric's
bound in BENCHMARK.json, B is "unresolved", unless every B run reads
better than every A run. Else B is "within bound" when its median is no
worse than A's by more than the bound, and "worse" if it is.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import analysis  # noqa: E402

PAIRS = 10
SEED_BASE = 1000


def run_side(root, workload, seed, seconds):
    """One untraced run in checkout @p root; its parsed result line."""
    cmd = [sys.executable, "hostbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ,
               CARGO_TARGET_DIR=str(root.resolve() / ".bench_build"))
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"ab: run failed in {root} (seed {seed})")
    return json.loads(lines[-1])


def wins(a_vals, b_vals, better):
    """Pairs B wins and pairs A wins; ties count for neither."""
    b = a = 0
    for x, y in zip(a_vals, b_vals):
        if x == y:
            continue
        b_better = y < x if better == "lower" else y > x
        b, a = (b + 1, a) if b_better else (b, a + 1)
    return b, a


def verdict(a_vals, b_vals, better, bound):
    """The rule of the module docstring, for one metric."""
    aq1, amed, aq3 = analysis.quartiles(a_vals)
    _, bmed, _ = analysis.quartiles(b_vals)
    b_wins, a_wins = wins(a_vals, b_vals, better)
    pairs = len(a_vals)
    spread = aq3 - aq1
    diff = abs(bmed - amed)
    b_better = bmed < amed if better == "lower" else bmed > amed
    if b_better and b_wins >= 0.9 * pairs and diff > spread:
        return "gain"
    if not b_better and a_wins >= 0.9 * pairs and diff > spread:
        return "loss"
    if amed and spread / amed > bound:
        all_better = max(b_vals) < min(a_vals) if better == "lower" else \
            min(b_vals) > max(a_vals)
        return "within bound" if all_better else "unresolved"
    worse_by = (bmed - amed) / amed if better == "lower" else \
        (amed - bmed) / amed
    return "within bound" if worse_by <= bound else "worse"


def report(bench, a_runs, b_runs, workload, a_root, b_root):
    """Markdown summary of the paired runs."""
    pairs = len(a_runs)
    specs = {m["name"]: m for m in bench["end_to_end"]}
    out = [f"### {workload}: {pairs} pairs",
           "",
           f"A = `{a_root}`, B = `{b_root}`",
           "",
           "| metric | unit | A median [q1, q3] | B median [q1, q3] | B/A "
           "| B wins | verdict |",
           "|---|---|---|---|---|---|---|"]
    for name, spec in specs.items():
        a_vals = [r["metrics"][name]["value"] for r in a_runs]
        b_vals = [r["metrics"][name]["value"] for r in b_runs]
        aq = analysis.quartiles(a_vals)
        bq = analysis.quartiles(b_vals)
        b_wins, _ = wins(a_vals, b_vals, spec["better"])
        ratio = bq[1] / aq[1] if aq[1] else float("nan")
        out.append(
            f"| {name} | {spec['unit']} "
            f"| {aq[1]:.6g} [{aq[0]:.6g}, {aq[2]:.6g}] "
            f"| {bq[1]:.6g} [{bq[0]:.6g}, {bq[2]:.6g}] "
            f"| {ratio:.4f} | {b_wins}/{pairs} "
            f"| {verdict(a_vals, b_vals, spec['better'], spec.get('bound', 0))}"
            " |")
    bad = [i for i, (a, b) in enumerate(zip(a_runs, b_runs))
           if not (a["correct"] and b["correct"])]
    out.append("")
    out.append("Every run passed the correctness gate." if not bad else
               f"Pairs with an incorrect run: {bad}.")
    return "\n".join(out)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("a_root", type=pathlib.Path)
    ap.add_argument("b_root", type=pathlib.Path)
    ap.add_argument("--workload", required=True)
    args = ap.parse_args()
    bench = json.loads((args.a_root / "BENCHMARK.json").read_text())

    a_runs, b_runs = [], []
    for i in range(PAIRS):
        seed = SEED_BASE + i
        order = ((args.a_root, a_runs), (args.b_root, b_runs))
        if i % 2:
            order = order[::-1]
        for root, sink in order:
            sink.append(run_side(root, args.workload, seed,
                                 bench["run_seconds"]))
        print(f"pair {i + 1}/{PAIRS} done", file=sys.stderr)
    print(report(bench, a_runs, b_runs, args.workload, args.a_root,
                 args.b_root))


if __name__ == "__main__":
    main()
