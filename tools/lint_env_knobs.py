#!/usr/bin/env python3
"""Knob-drift lint: README and the code must name the same MITOSIM_* knobs
(CI-enforced).

A knob is a `MITOSIM_*` environment variable read by `getenv("...")` in
a `.cc`/`.h` file under `src/` or `bench/`, or a `MITOSIM_*` CMake
`option(` in the root CMakeLists.txt. The lint fails when:

  * a variable read by `getenv` is never named in README.md, so a user
    cannot learn that it exists; or
  * README.md names a `MITOSIM_*` variable that no `getenv` and no
    CMake `option(` defines, so the docs describe a knob that is gone.

Names `#define`d in the sources (include guards such as
`MITOSIM_SIM_MACHINE_H`, macros such as `MITOSIM_ASSERT`) are not
knobs, and README may mention them freely.

Exit status: 0 clean, 1 drift (printed GCC-style), 2 usage error.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

NAME_RE = re.compile(r"\bMITOSIM_[A-Z0-9_]+\b")
GETENV_RE = re.compile(r'getenv\s*\(\s*"(MITOSIM_[A-Z0-9_]+)"')
OPTION_RE = re.compile(r"^\s*option\s*\(\s*(MITOSIM_[A-Z0-9_]+)\b",
                       re.MULTILINE)
DEFINE_RE = re.compile(r"^\s*#\s*define\s+(MITOSIM_[A-Z0-9_]+)",
                       re.MULTILINE)

CODE_DIRS = ("src", "bench")


def sources(root: pathlib.Path, dirs):
    """Every .cc/.h file under @p dirs of @p root, sorted per dir."""
    for d in dirs:
        for path in sorted((root / d).rglob("*")):
            if path.suffix in (".cc", ".h"):
                yield path


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description="MITOSIM_* knob-drift lint (see module docstring)")
    parser.add_argument(
        "root", nargs="?", default=".",
        help="repository root (default: cwd)")
    args = parser.parse_args(argv)

    root = pathlib.Path(args.root).resolve()
    readme = root / "README.md"
    cmake = root / "CMakeLists.txt"
    if not readme.is_file() or not cmake.is_file():
        print(f"lint_env_knobs: no README.md/CMakeLists.txt under {root}",
              file=sys.stderr)
        return 2

    # name -> first "path:line" that reads it
    read_at: dict[str, str] = {}
    macros = set()
    for path in sources(root, CODE_DIRS):
        rel = path.relative_to(root).as_posix()
        text = path.read_text(encoding="utf-8")
        macros.update(DEFINE_RE.findall(text))
        for lineno, line in enumerate(text.splitlines(), start=1):
            for name in GETENV_RE.findall(line):
                read_at.setdefault(name, f"{rel}:{lineno}")
    options = set(OPTION_RE.findall(cmake.read_text(encoding="utf-8")))

    # name -> first README line that names it
    named_at: dict[str, int] = {}
    for lineno, line in enumerate(
            readme.read_text(encoding="utf-8").splitlines(), start=1):
        for name in NAME_RE.findall(line):
            named_at.setdefault(name, lineno)

    errors = []
    for name, where in sorted(read_at.items()):
        if name not in named_at:
            errors.append(f"{where}: error: {name} is read by getenv but "
                          f"README.md never names it")
    for name, lineno in sorted(named_at.items(), key=lambda kv: kv[1]):
        if name in read_at or name in options or name in macros:
            continue
        errors.append(f"README.md:{lineno}: error: {name} is named but no "
                      f"getenv in {'/, '.join(CODE_DIRS)}/ and no CMake "
                      f"option( defines it")

    for e in errors:
        print(e)
    if errors:
        print(f"\nlint_env_knobs: {len(errors)} drift(s). Document every "
              f"env knob in README.md, and drop a deleted knob from it.",
              file=sys.stderr)
        return 1
    print(f"lint_env_knobs: OK ({len(read_at)} env knobs, "
          f"{len(options)} CMake options)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
