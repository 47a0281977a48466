#!/usr/bin/env python3
"""Static lint for the PV-Ops seam (CI-enforced).

The repo's central correctness contract is that *all* page-table
storage mutation flows through the PV-Ops seam: the `pvops::PvOps`
interface and the page-table walkers/operations built directly on it.
Everything else — kernel, scheduler, THP daemons, AutoNUMA, analysis,
benches — must go through a backend, or replicas silently diverge and
the Mitosis model breaks (vmcheck class 1 catches that at runtime;
this lint catches it at review time).

Concretely: `PhysicalMemory::table(pfn)` means "I will write" — it
detaches a snapshot fork's shared copy-on-write table chunk — and
every read goes through `PhysicalMemory::tableView(pfn)` (reads are
fine and ubiquitous: dumps, checks, the walker's lookups). The lint
flags, for every `.cc`/`.h` under `src/` outside the seam:

  * direct element writes:        `...table(pfn)[i] = / |= / &= ...`
  * non-const pointer bindings:   `std::uint64_t *p = ...table(pfn)...`
  * taking a mutable element address: `&...table(pfn)[i]`

and anywhere under `src/`, the seam included:

  * read-only bindings from the write accessor:
                                  `const std::uint64_t *p = ...table(pfn)...`

The seam (mutation allowed):

  * `src/pvops/`   — the PvOps interface + native backend
  * `src/pt/`      — page-table operations layered on raw storage
  * `src/core/`    — the Mitosis/lazy backends (PvOps implementations;
                     the seam's server side, not clients around it)

Known non-seam mutator, allow-listed with a reason:

  * `src/sim/walker.h` — the simulated MMU's A/D-bit update path.
    Hardware sets Accessed/Dirty below the OS; it is not an OS-side
    PTE write and has no replica-coherence obligation (§5.4: A/D bits
    are compared OR-ed across replicas).

A line may also carry an inline waiver comment

    // pvops-seam: <why this direct write is sound>

which skips it; waivers are for hardware-model code only and should be
as rare as the allowlist above.

Exit status: 0 clean, 1 violations (printed GCC-style), 2 usage error.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

# Directories whose files ARE the seam: mutation is their job.
SEAM_DIRS = ("src/pvops", "src/pt", "src/core")

# file -> reason; keep this list short and justified.
ALLOWLIST = {
    "src/sim/walker.h": "simulated MMU A/D-bit update (hardware, not OS)",
}

WAIVER_RE = re.compile(r"//\s*pvops-seam:\s*\S")

# `...table(pfn)[idx] =` and compound assignments / inc / dec.
WRITE_RE = re.compile(
    r"\.table\s*\([^()]*\)\s*\[[^\]]*\]\s*"
    r"(?:=[^=]|(?:[|&^+\-*/%]|<<|>>)=|\+\+|--)"
)
# `std::uint64_t *p = ...table(...)` without const.
NONCONST_PTR_RE = re.compile(
    r"(?<!const\s)(?<!const)\bstd::uint64_t\s*\*\s*\w+\s*=[^;]*\.table\s*\("
)
# `&...table(...)[...]` — mutable element address escapes.
ADDR_RE = re.compile(r"&\s*[\w.()\->]*\.table\s*\([^()]*\)\s*\[")
# `const std::uint64_t *p = ...table(...)` — a read through the write
# accessor, which detaches a shared chunk for nothing.
CONST_PTR_RE = re.compile(
    r"\bconst\s+std::uint64_t\s*\*\s*\w+\s*=[^;]*(?:\.|->)table\s*\("
)

# Checked outside the seam only.
MUTATION_PATTERNS = (
    (WRITE_RE, "direct PTE element write outside the PV-Ops seam"),
    (NONCONST_PTR_RE, "non-const pointer into PTE storage outside the "
                      "PV-Ops seam"),
    (ADDR_RE, "mutable address of a PTE element outside the PV-Ops seam"),
)
# Checked everywhere under src/.
READ_PATTERNS = (
    (CONST_PTR_RE, "read-only PTE pointer from the mutable table(); "
                   "reads use tableView()"),
)


def strip_strings(line: str) -> str:
    """Blank out string/char literals so patterns can't match inside."""
    return re.sub(r'"(?:[^"\\]|\\.)*"|\'(?:[^\'\\]|\\.)*\'', '""', line)


def lint_file(path: pathlib.Path, rel: str, patterns) -> list[str]:
    violations = []
    in_block_comment = False
    for lineno, raw in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw
        if in_block_comment:
            end = line.find("*/")
            if end < 0:
                continue
            line = line[end + 2:]
            in_block_comment = False
        start = line.find("/*")
        if start >= 0 and line.find("*/", start) < 0:
            in_block_comment = True
            line = line[:start]
        if WAIVER_RE.search(line):
            continue
        code = strip_strings(line).split("//", 1)[0]
        for pattern, what in patterns:
            if pattern.search(code):
                violations.append(
                    f"{rel}:{lineno}: error: {what}: {raw.strip()}")
                break
    return violations


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description="PV-Ops seam lint (see module docstring)")
    parser.add_argument(
        "root", nargs="?", default=".",
        help="repository root (default: cwd)")
    args = parser.parse_args(argv)

    root = pathlib.Path(args.root).resolve()
    src = root / "src"
    if not src.is_dir():
        print(f"lint_pvops_seam: no src/ under {root}", file=sys.stderr)
        return 2

    violations = []
    checked = 0
    for path in sorted(src.rglob("*")):
        if path.suffix not in (".cc", ".h"):
            continue
        rel = path.relative_to(root).as_posix()
        patterns = READ_PATTERNS
        if not (rel.startswith(tuple(d + "/" for d in SEAM_DIRS)) or
                rel in ALLOWLIST):
            patterns += MUTATION_PATTERNS
        checked += 1
        violations.extend(lint_file(path, rel, patterns))

    for v in violations:
        print(v)
    if violations:
        print(f"\nlint_pvops_seam: {len(violations)} violation(s) in "
              f"{checked} files. PTE storage writes belong behind the "
              f"PV-Ops seam ({', '.join(d + '/' for d in SEAM_DIRS)}); "
              f"PTE reads use tableView().",
              file=sys.stderr)
        return 1
    print(f"lint_pvops_seam: OK ({checked} files checked, "
          f"{len(ALLOWLIST)} allow-listed)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
