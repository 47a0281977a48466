#!/usr/bin/env python3
"""Diff two bench reports, ignoring host wall-clock telemetry.

The simulated metrics in a BENCH_<name>.json report are deterministic:
they must be byte-identical across MITOSIM_BATCH={0,1} and
MITOSIM_FUSE={0,1}, across --jobs values, and (unless the model
changed) across commits.

The command line strips only the top-level "wall_ms" section (host
wall-clock telemetry) and requires everything else to be equal: every
per-run metric and the "metrics" section (the src/obs registry flatten).
CI uses it as the determinism wall for the batched and fused replay
paths.

strip_host_telemetry() also drops "metrics": the vmcheck CI steps import
it to compare a MITOSIM_CHECK=1 run with an unchecked one, and vmcheck
legitimately adds check_* counters to that section.

Usage:
  tools/cmp_reports.py A.json B.json   # exit 1 + unified diff on drift
  tools/cmp_reports.py DIR_A DIR_B     # every BENCH_*.json pair; exit 1
                                       # on any drift or on a report
                                       # present on one side only
"""

import difflib
import json
import os
import sys


def strip_sections(doc, sections):
    doc = json.loads(json.dumps(doc))
    for sec in sections:
        doc.pop(sec, None)
    return doc


def strip_host_telemetry(doc):
    return strip_sections(doc, ("wall_ms", "metrics"))


def compare_files(path_a, path_b):
    with open(path_a) as f:
        doc_a = strip_sections(json.load(f), ("wall_ms",))
    with open(path_b) as f:
        doc_b = strip_sections(json.load(f), ("wall_ms",))
    if doc_a == doc_b:
        print(f"identical (wall_ms excluded): {path_a} == {path_b}")
        return 0
    lines_a = json.dumps(doc_a, indent=1, sort_keys=True).splitlines()
    lines_b = json.dumps(doc_b, indent=1, sort_keys=True).splitlines()
    print(f"DIFF {path_a} vs {path_b}", file=sys.stderr)
    for line in difflib.unified_diff(lines_a, lines_b,
                                     fromfile=path_a, tofile=path_b,
                                     lineterm=""):
        print(line, file=sys.stderr)
    return 1


def bench_reports(directory):
    return {name for name in os.listdir(directory)
            if name.startswith("BENCH_") and name.endswith(".json")}


def compare_dirs(dir_a, dir_b):
    names_a, names_b = bench_reports(dir_a), bench_reports(dir_b)
    status = 0
    for name in sorted(names_a ^ names_b):
        side = dir_a if name in names_a else dir_b
        print(f"ONLY IN {side}: {name}", file=sys.stderr)
        status = 1
    for name in sorted(names_a & names_b):
        status |= compare_files(os.path.join(dir_a, name),
                                os.path.join(dir_b, name))
    if not names_a | names_b:
        print(f"no BENCH_*.json in {dir_a} or {dir_b}", file=sys.stderr)
        status = 1
    print(f"{len(names_a & names_b)} report pairs compared: "
          f"{'identical' if status == 0 else 'DRIFT'}")
    return status


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    path_a, path_b = sys.argv[1], sys.argv[2]
    if os.path.isdir(path_a) and os.path.isdir(path_b):
        return compare_dirs(path_a, path_b)
    return compare_files(path_a, path_b)


if __name__ == "__main__":
    sys.exit(main())
