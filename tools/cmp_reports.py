#!/usr/bin/env python3
"""Diff two bench reports, ignoring host wall-clock telemetry.

The simulated metrics in a BENCH_<name>.json report are deterministic:
they must be byte-identical across MITOSIM_SNAPSHOTS={0,1}, across
MITOSIM_BATCH={0,1} and MITOSIM_FUSE={0,1}, across MITOSIM_TRACE, across
--jobs values, and (unless the model changed) across commits.

The command line strips only the top-level "wall_ms" section (host
wall-clock telemetry) and requires everything else to be equal: every
per-run metric and the "metrics" section (the src/obs registry flatten).
CI uses it as the determinism wall for the populate snapshot cache, the
batched and fused replay paths and the tracer.

strip_host_telemetry() also drops "metrics": the vmcheck CI steps import
it to compare a MITOSIM_CHECK=1 run with an unchecked one, and vmcheck
legitimately adds check_* counters to that section.

Usage:
  tools/cmp_reports.py A.json B.json   # exit 1 + unified diff on drift
"""

import difflib
import json
import sys


def strip_sections(doc, sections):
    doc = json.loads(json.dumps(doc))
    for sec in sections:
        doc.pop(sec, None)
    return doc


def strip_host_telemetry(doc):
    return strip_sections(doc, ("wall_ms", "metrics"))


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    path_a, path_b = sys.argv[1], sys.argv[2]
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


if __name__ == "__main__":
    sys.exit(main())
