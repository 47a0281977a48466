#!/usr/bin/env python3
"""Build and run the MitoSim host-cost benchmark for one workload.

    python3 hostbench/run.py --workload populate-4k|replay-ms|vma-churn \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds
hostbench/ (and through it libmitosim) into $CARGO_TARGET_DIR/hostbench,
default .bench_build/hostbench. The run then measures for --seconds,
checks the simulated results, and prints every metric with its unit.
The last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (untraced iterations only);
--trace 1 reports the per-layer metrics from span self times and writes
the spans as Chrome trace JSON next to the build. See README.md.
"""

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import analysis  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
FINGERPRINTS = HERE / "fingerprints.json"
WORKLOADS = ("populate-4k", "replay-ms", "vma-churn")
DEFAULT_SEED = 42
RUN_TIMEOUT_S = 170

# Environment that changes what an untraced run measures.
INVALIDATING_ENV = {
    "MITOSIM_TRACE": lambda v: True,
    "MITOSIM_CHECK": lambda v: True,
    "MITOSIM_FUSE": lambda v: v == "0",
    "MITOSIM_BATCH": lambda v: v == "0",
}


def fail(msg, code=1):
    print("hostbench: " + msg, file=sys.stderr)
    sys.exit(code)


def cached_source(bdir):
    """The source directory @p bdir was configured from, or None."""
    cache = bdir / "CMakeCache.txt"
    if not cache.exists():
        return None
    for line in cache.read_text().splitlines():
        if line.startswith("CMAKE_HOME_DIRECTORY:"):
            return pathlib.Path(line.split("=", 1)[1])
    return None


def build(root):
    """Configure (once) and build the driver; returns the binary path."""
    for need in ("CMakeLists.txt", "src"):
        if not (root / need).exists():
            fail(f"{root / need} is missing: run from a full checkout", 2)
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    bdir = target / "hostbench"
    # With an absolute CARGO_TARGET_DIR two checkouts share this
    # directory. A tree configured from another checkout would keep
    # building that checkout's sources, so it is rebuilt from scratch.
    src = cached_source(bdir)
    if src is not None and src.resolve() != HERE:
        shutil.rmtree(bdir)
    bdir.mkdir(parents=True, exist_ok=True)
    log = bdir / "build.log"
    # Compiler temporaries stay inside the checkout too.
    tmp = bdir / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (bdir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "--target", "hostbench",
                  "-j", jobs])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=root, env=env).returncode != 0:
                out.flush()
                tail = log.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail("build failed; see " + str(log))
    return bdir, bdir / "hostbench"


def provenance(root, doc, trace):
    """Where a result came from, and why it is invalid (if it is)."""
    commit = "unknown"
    if (root / ".git").exists():
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                           capture_output=True, text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    env = {k: v for k, v in sorted(os.environ.items())
           if k.startswith("MITOSIM_")}
    invalid = []
    if doc["build_type"] != "Release":
        invalid.append(f"build type {doc['build_type']!r} is not Release")
    if not trace:
        for name, bad in INVALIDATING_ENV.items():
            if name in env and bad(env[name]):
                invalid.append(f"{name}={env[name]} set in an untraced run")
    return {
        "nproc": os.cpu_count(),
        "compiler": doc["compiler"],
        "build_type": doc["build_type"],
        "commit": commit,
        "loadavg": list(os.getloadavg()),
        "mitosim_env": env,
        "invalid": invalid,
    }


def check_counts(doc, seed, workload, fingerprint=True):
    """Exact-count self-check: every iteration of the run must repeat the
    warm-up's counts bit for bit, and at the default seed match the
    recorded fingerprint (unless @p fingerprint is false, when a new one
    is being recorded). Returns a list of problems."""
    its = doc["iterations"]
    ref = its[0]["counts"]
    problems = []
    for i, it in enumerate(its[1:], 1):
        if it["failures"]:
            continue  # an aborted iteration has no complete counts
        bad = analysis.count_mismatches(ref, it["counts"])
        if bad:
            problems.append(f"iteration {i} repeats no exact counts of "
                            f"iteration 0: {', '.join(bad)}")
    if fingerprint and seed == DEFAULT_SEED and FINGERPRINTS.exists():
        expect = json.loads(FINGERPRINTS.read_text())["workloads"].get(
            workload)
        if expect is not None:
            bad = analysis.count_mismatches(expect, ref)
            if bad:
                problems.append("counts differ from fingerprints.json: " +
                                ", ".join(f"{n} {expect.get(n)} -> "
                                          f"{ref.get(n)}" for n in bad))
    return problems


def tally(its):
    """(attempted, failed, failure messages) of a run's iterations.

    Every timed call is attempted. An iteration whose checks failed, or
    whose call threw (the driver then stops), fails all of its calls;
    one that threw in set-up, before any call, counts as one failed
    call."""
    ops = [max(1, it["ops"]) if it["failures"] else it["ops"] for it in its]
    attempted = sum(ops)
    failed = sum(n for n, it in zip(ops, its) if it["failures"])
    failures = [f"iteration {i}: {msg}" for i, it in enumerate(its)
                for msg in it["failures"]]
    return attempted, failed, failures


def placeholder_metrics(root, trace):
    """Every metric BENCHMARK.json names for this mode, valued 0."""
    bench = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: (0.0, m["unit"])
            for m in bench["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-fingerprint", action="store_true",
                    help="store this run's counts as the workload's "
                         "reference (default seed only)")
    args = ap.parse_args()

    root = pathlib.Path.cwd()
    bdir, binary = build(root)
    # At least two iterations per CPU (two pairs when traced).
    min_iters = 2 * len(os.sched_getaffinity(0)) * (1 + args.trace)
    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), "--min-iters", str(min_iters)]
    trace_file = None
    if args.trace:
        trace_dir = bdir / "traces"
        trace_dir.mkdir(exist_ok=True)
        trace_file = trace_dir / f"{args.workload}-seed{args.seed}.json"
        cmd += ["--trace-out", str(trace_file)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    try:
        doc = json.loads(proc.stdout)
    except json.JSONDecodeError:
        fail(f"driver exited {proc.returncode} without a result")

    if proc.returncode != 0:
        fail(f"driver exited {proc.returncode}")

    its = doc["iterations"]
    attempted, failed, failures = tally(its)
    prov = provenance(root, doc, args.trace)
    run_problems = check_counts(doc, args.seed, args.workload,
                                not args.record_fingerprint)
    run_problems += ["invalid result: " + why for why in prov["invalid"]]
    if run_problems:
        failed = attempted
    failures += run_problems
    for msg in failures:
        print("hostbench: FAILED " + msg, file=sys.stderr)

    if not analysis.measurable(its, args.trace):
        # An abort left no complete iteration to time: report every
        # metric as 0 in a result that is incorrect anyway.
        metrics = placeholder_metrics(root, args.trace)
    elif args.trace:
        spans = analysis.spans_from_chrome(json.loads(trace_file.read_text()))
        metrics = analysis.per_layer(doc, spans, failed / attempted)
    else:
        metrics = analysis.end_to_end(doc)

    if args.record_fingerprint:
        if args.seed != DEFAULT_SEED or failures:
            fail("fingerprints are recorded from a clean default-seed run")
        data = (json.loads(FINGERPRINTS.read_text())
                if FINGERPRINTS.exists()
                else {"seed": DEFAULT_SEED, "workloads": {}})
        data["workloads"][args.workload] = its[0]["counts"]
        FINGERPRINTS.write_text(json.dumps(data, indent=1, sort_keys=True)
                                + "\n")

    reported = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    result_dir = bdir / "results"
    result_dir.mkdir(exist_ok=True)
    full = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "iterations": len(analysis.measured(its)),
            "provenance": prov, "failures": failures, "metrics": reported}
    (result_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(full, indent=1) + "\n")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"iterations={full['iterations']}")
    print("# provenance " + json.dumps(prov, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:16.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": reported,
    }))


if __name__ == "__main__":
    main()
