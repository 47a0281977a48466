#!/usr/bin/env python3
"""Diff two bench reports, ignoring host telemetry.

The simulated metrics in a BENCH_<name>.json report are deterministic:
they must be byte-identical across MITOSIM_SNAPSHOTS={0,1}, across
MITOSIM_BATCH={0,1} and MITOSIM_FUSE={0,1}, across --jobs values, and
(unless the model changed) across commits. Only two top-level sections
are allowed to differ: "wall_ms" (host telemetry) and "metrics" (the
src/obs registry flatten plus vmcheck's check_* counters — an
observability surface free to grow richer between PRs, and one that
vmcheck legitimately moves).

This tool strips exactly those two sections and requires everything
else, including every per-run metric, to be equal. CI uses it as the
determinism wall for the populate snapshot cache and the batched and
fused replay paths.

Usage:
  tools/cmp_reports.py A.json B.json   # exit 1 + unified diff on drift
"""

import difflib
import json
import sys


def strip_host_telemetry(doc):
    doc = json.loads(json.dumps(doc))
    for sec in ("wall_ms", "metrics"):
        doc.pop(sec, None)
    return doc


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    path_a, path_b = sys.argv[1], sys.argv[2]
    with open(path_a) as f:
        doc_a = strip_host_telemetry(json.load(f))
    with open(path_b) as f:
        doc_b = strip_host_telemetry(json.load(f))
    if doc_a == doc_b:
        print(f"identical (host telemetry excluded): "
              f"{path_a} == {path_b}")
        return 0
    lines_a = json.dumps(doc_a, indent=1, sort_keys=True).splitlines()
    lines_b = json.dumps(doc_b, indent=1, sort_keys=True).splitlines()
    print(f"DIFF {path_a} vs {path_b}", file=sys.stderr)
    for line in difflib.unified_diff(lines_a, lines_b,
                                     fromfile=path_a, tofile=path_b,
                                     lineterm=""):
        print(line, file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
