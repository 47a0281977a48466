#!/usr/bin/env python3
"""Run one command and fail if its peak resident set exceeds a bound.

    python3 tools/rss_guard.py --max-mib 512 -- ./fig11_fragmentation --jobs=4

The peak is RUSAGE_CHILDREN's ru_maxrss (KiB on Linux): the largest
resident set of any child this process waited for, and the command is
the only child. It has a floor of about 15 MiB, the interpreter image
the child holds between fork and exec. Prints the peak, then exits
with the command's status if it failed, 1 if the peak is over the
bound, and 0 otherwise.
"""

import argparse
import resource
import subprocess
import sys


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-mib", type=float, required=True,
                    help="fail when the command's peak RSS exceeds this")
    ap.add_argument("command", nargs=argparse.REMAINDER,
                    help="the command to run, after --")
    args = ap.parse_args(argv)
    cmd = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not cmd:
        ap.error("no command given")

    status = subprocess.run(cmd).returncode
    peak_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print("rss_guard: %s peak RSS %.1f MiB (bound %.0f MiB)"
          % (cmd[0], peak_mib, args.max_mib))
    if status != 0:
        return status
    if peak_mib > args.max_mib:
        print("rss_guard: peak RSS over the bound", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
