#!/usr/bin/env bash
# Profile one bench binary: gprof by default and in --diff mode, a
# SIGPROF sampler in --lines, --incl and --pcs modes.
#
# Maintains a dedicated instrumented build tree (build-pg/: Release
# codegen + -pg) so profiling never dirties the main build, rebuilds
# the requested bench there, runs it (extra arguments are passed
# through, e.g. --filter), and prints the flat profile plus the call
# graph of the hottest functions.
#
# gprof is the one profiler the toolchain image ships — perf is not
# installed, and gprof's instrumented call counts are exact (not
# sampled), which is what the per-access cost estimates in
# EXPERIMENTS.md "Hot-path engineering" are based on. Mind its
# blind spot: time in inlined callees is attributed to the caller, so
# a flat Core::access line means "access + everything inlined into
# it". For finer splits use --lines below, not gprof -l: on a -pg
# hostbench build `gprof -l` aborts with "somebody miscounted".
#
# Usage:
#   tools/profile_bench.sh fig09b_multisocket_2m
#   tools/profile_bench.sh ext_thp_aging --filter='gups/*'
#   LINES=80 tools/profile_bench.sh fig11_fragmentation
#
# Diff mode: run the same bench in two already-configured -pg build
# trees (e.g. build-pg on this commit and a worktree's build-pg on the
# baseline commit) and print the top-N per-function self-seconds side
# by side, sorted by absolute delta — where the hot path actually
# moved, not just what is hot:
#   tools/profile_bench.sh --diff build-pg-base build-pg \
#       fig09b_multisocket_2m [bench args...]
#
# Line mode: sample the PC on SIGPROF (tools/pc_sampler.c, preloaded
# into the profiled process only) in a Release build with debug info
# (build-lines/, or build-lines-hostbench/ for the host-cost
# benchmark's driver), symbolize with `addr2line -i` so inlined source
# lines stay visible, and print the top source lines (each sample
# charged to the innermost line in this repository, so an inlined
# std::vector::operator[] counts for the line that indexes) and the
# top three-deep call chains (innermost first, inlined frames
# included):
#   tools/profile_bench.sh --lines fig09a_multisocket_4k
#   tools/profile_bench.sh --lines hostbench --workload replay-ms \
#       --seed 42 --seconds 2 --trace 0
# The sampling period is 1 ms of CPU time.
#
# Sampling skid: the sampler records the PC the timer signal
# interrupted, which is the next instruction to retire, not the one
# that was waiting. A load that stalls on a cache miss is therefore
# charged to the instruction after it, and so to that instruction's
# source line. In AutoNuma::scan, for example, the PTE load of the
# leaf walk showed up as the `sampled.push_back` line (~35 % of the
# scan's samples). When a line looks too hot for what it does, read
# the instructions just before its hot PCs.
#
# Inclusive mode says which layer owns the time under one function,
# which a flat --lines profile hides. Same build and sampler as
# --lines; of the samples whose stack (inlined frames included) holds a
# function whose name contains ROOT, it prints each callee's inclusive
# share (the share of those samples with that function anywhere below
# ROOT) and the self share by source line:
#   tools/profile_bench.sh --incl Workload::populateRegion hostbench \
#       --workload populate-4k --seed 42 --seconds 2 --trace 0
#
# PC mode reads those instructions: same build and sampler as --lines,
# but it lists the hottest sampled PCs inside functions whose name contains FUNC
# (the function that holds the machine code, after inlining), each
# with its instruction, the instruction before it (the likely stalled
# one, given the skid above) and its innermost repository source line:
#   tools/profile_bench.sh --pcs AutoNuma::scan hostbench \
#       --workload vma-churn --seed 42 --seconds 3 --trace 0

set -euo pipefail

repo=$(cd "$(dirname "$0")/.." && pwd)
lines=${LINES:-40}

if [ "${1:-}" = --lines ] || [ "${1:-}" = --pcs ] ||
    [ "${1:-}" = --incl ]; then
    mode=$1
    shift
    func=
    if [ "$mode" != --lines ]; then
        if [ $# -lt 2 ]; then
            arg=FUNC
            [ "$mode" = --incl ] && arg=ROOT
            echo "usage: $0 $mode $arg <bench|hostbench> [args...]" >&2
            exit 2
        fi
        func=$1
        shift
    fi
    if [ $# -lt 1 ]; then
        echo "usage: $0 $mode <bench|hostbench> [args...]" >&2
        exit 2
    fi
    bench=$1
    shift
    src="$repo"
    tree="$repo/build-lines"
    if [ "$bench" = hostbench ]; then
        src="$repo/hostbench"
        tree="$repo/build-lines-hostbench"
    fi
    # -g adds debug info only: the code is the Release build's.
    cmake -B "$tree" -S "$src" \
        -DCMAKE_BUILD_TYPE=Release \
        -DCMAKE_CXX_FLAGS=-g \
        -DMITOSIM_BUILD_TESTS=OFF \
        -DMITOSIM_BUILD_EXAMPLES=OFF >/dev/null
    cmake --build "$tree" -j "$(nproc)" --target "$bench"
    cc -O2 -shared -fPIC -o "$tree/pc_sampler.so" "$repo/tools/pc_sampler.c"
    samples="$tree/pc_samples.txt"
    (cd "$tree" && PC_SAMPLER_OUT="$samples" \
        LD_PRELOAD="$tree/pc_sampler.so" "./$bench" "$@" >/dev/null)
    python3 - "$tree/$bench" "$samples" "$repo/" "$lines" "$mode" "$func" \
        <<'EOF'
import collections
import re
import subprocess
import sys

exe, path, prefix, top, mode, func = (sys.argv[1], sys.argv[2],
                                      sys.argv[3], int(sys.argv[4]),
                                      sys.argv[5], sys.argv[6])
# One sample per line: the PC, then its callers' return addresses.
# A return address points past its call, so look up the byte before.
samples = [[int(a, 16) - (k > 0) for k, a in enumerate(line.split())]
           for line in open(path) if line.strip()]
if not samples:
    sys.exit("no samples: the run was too short")

def short(name):
    # Drop template and parameter lists, keep Class::function. A
    # lambda is its enclosing Class::function plus {lambda#N}: its
    # operator() (or the _FUN thunk of a captureless one) is dropped.
    name = name.replace("(anonymous namespace)::", "")
    kept, depth = [], 0
    for c in name.replace("operator()", "operator@"):
        depth += c in "<("
        if depth == 0:
            kept.append(c)
        depth -= c in ">)" and depth > 0
    flat = re.sub(r" const\b| \[clone [^]]*\]", "", "".join(kept))
    parts = flat.replace("operator@", "operator()").split("::")
    parts[0] = parts[0].split(" ")[-1]  # a template's return type
    lambdas = [k for k, p in enumerate(parts) if p.startswith("{lambda")]
    if not lambdas:
        return "::".join(parts[-2:])
    parts = [p for k, p in enumerate(parts)
             if p not in ("operator()", "_FUN")
             or not parts[k - 1].startswith("{lambda")]
    return "::".join(parts[max(lambdas[0] - 2, 0):])

def lambda_scope(caller):
    # The debug info names an inlined lambda body just "operator()".
    # A caller that takes the lambda (std::function's invoker, a
    # template) spells the closure type as "Class::function(...)::
    # <lambda(...)>" or "...::{lambda(...)#N}": the last one it names
    # is the innermost, and its scope runs back to the template
    # argument's start.
    found = list(re.finditer(r"::(<|\{)lambda\(", caller))
    if not found:
        return None
    end = found[-1].start()
    tag = "{lambda}"
    if found[-1].group(1) == "{":
        tag = caller[end + 2:caller.index("}", end) + 1]
    start, depth = end, 0
    while start > 0:
        c = caller[start - 1]
        if depth == 0 and c in "<, ":
            break
        depth += (c in ")>") - (c in "(<")
        start -= 1
    return short(caller[start:end] + "::" + tag)

def frame_name(chain, k):
    # Short name of chain[k]. A bare "operator()" is a lambda inlined
    # into chain[k + 1]: into a template or invoker that names its
    # closure type, or else into the function that defines it.
    name = chain[k][0]
    if name == "operator()" and k + 1 < len(chain):
        caller = chain[k + 1][0]
        return lambda_scope(caller) or short(caller) + "::{lambda}"
    return short(name)

def symbolize(addrs):
    # addr2line -a: an address line, then (function, file:line) pairs,
    # innermost inlined frame first.
    out = subprocess.run(
        ["addr2line", "-e", exe, "-i", "-f", "-C", "-a"],
        input="\n".join(map(hex, sorted(addrs))), capture_output=True,
        text=True, check=True).stdout.splitlines()
    frames, raw, i = {}, {}, 0
    while i < len(out):
        if out[i].startswith("0x"):
            cur = raw.setdefault(int(out[i], 16), [])
            i += 1
        else:
            where = out[i + 1].split(" (discriminator")[0]
            cur.append((out[i], where.replace(prefix, "")))
            i += 2
    for pc, chain in raw.items():
        frames[pc] = [(frame_name(chain, k), where)
                      for k, (_, where) in enumerate(chain)]
    return frames

frames = symbolize({a for s in samples for a in s})
n = len(samples)

def source(pc):
    # The innermost repository frame of @p pc, else its innermost one,
    # so a library helper inlined into a line (vector::operator[])
    # counts for the line that uses it.
    ours = [f for f in frames[pc] if not f[1].startswith(("/", "?"))]
    return (ours or frames[pc])[0]

if mode == "--incl":
    under = 0
    callees = collections.Counter()
    self_lines = collections.Counter()
    for s in samples:
        # Every frame of the sample, innermost first, inlined included.
        stack = [f for a in s for f, _ in frames[a]]
        roots = [i for i, f in enumerate(stack) if func in f]
        if not roots:
            continue
        under += 1
        # Below the outermost ROOT frame, each function counts once per
        # sample, so recursion cannot push a share past 100 %.
        callees.update({f for f in stack[:roots[-1]] if func not in f})
        fn, where = source(s[0])
        self_lines[f"{where}  {fn}"] += 1
    if not under:
        sys.exit(f"no samples with a function matching {func!r} on the "
                 "stack")
    print(f"{under} of {n} samples ({100 * under / n:.1f}%) have a "
          f"function matching {func!r} on the stack; shares below are "
          "of those samples")
    for title, counts in (("inclusive share by callee", callees),
                          ("self share by source line", self_lines)):
        print(f"\n{'share':>6}  {title}")
        for key, c in counts.most_common(top):
            print(f"{100 * c / under:5.1f}%  {key}")
    sys.exit(0)

if mode == "--pcs":
    # The function holding the code is the outermost inlined frame.
    hits = collections.Counter(s[0] for s in samples
                               if func in frames[s[0]][-1][0])
    if not hits:
        sys.exit(f"no samples in a function matching {func!r}")
    # Disassemble each symbol that holds a hot PC, so the instruction
    # before a PC is found on a real instruction boundary.
    syms = set()
    for line in subprocess.run(["nm", "-S", "--defined-only", exe],
                               capture_output=True, text=True,
                               check=True).stdout.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[2] in "tTwW":
            start, size = int(parts[0], 16), int(parts[1], 16)
            if any(start <= pc < start + size for pc in hits):
                syms.add((start, size))
    insns = {}
    for start, size in sorted(syms):
        dis = subprocess.run(
            ["objdump", "-d", "-C", "--no-show-raw-insn",
             f"--start-address={start:#x}",
             f"--stop-address={start + size:#x}", exe],
            capture_output=True, text=True, check=True).stdout
        for m in re.finditer(r"^\s*([0-9a-f]+):\s*(.*)$", dis, re.M):
            insns[int(m.group(1), 16)] = m.group(2).strip()
    order = sorted(insns)
    top_pcs = hits.most_common(top)
    prev = {pc: order[order.index(pc) - 1] for pc, _ in top_pcs
            if pc in insns and order.index(pc) > 0}
    frames.update(symbolize(set(prev.values()) - set(frames)))
    total = sum(hits.values())
    print(f"{total} of {n} samples ({100 * total / n:.1f}%) in functions "
          f"matching {func!r}")
    print(f"\n{'share':>6}  pc, instruction, innermost source line "
          "(indented: the instruction before, which skid may hide)")
    for pc, c in top_pcs:
        if pc in prev:
            p = prev[pc]
            print(f"{'':>8}{p:#x}  {insns[p]:<44} {source(p)[1]}")
        print(f"{100 * c / total:5.1f}%  {pc:#x}  {insns.get(pc, '?'):<44} "
              f"{source(pc)[1]}")
    sys.exit(0)

by_line = collections.Counter()
by_chain = collections.Counter()
for s in samples:
    fn, where = source(s[0])
    by_line[f"{where}  {fn}"] += 1
    chain = []
    for a in s:
        for f, _ in frames[a]:
            if not chain or chain[-1] != f:
                chain.append(f)
    by_chain[" < ".join(chain[:3])] += 1
print(f"{n} samples")
for title, counts in (("self samples by source line", by_line),
                      ("samples by call chain", by_chain)):
    print(f"\n{'share':>6}  {title}")
    for key, c in counts.most_common(top):
        print(f"{100 * c / n:5.1f}%  {key}")
EOF
    exit 0
fi

profile_tree() {
    # Build + run $bench in tree $1; flat profile on stdout.
    local t=$1
    shift
    cmake --build "$t" -j "$(nproc)" --target "$bench" >&2
    (cd "$t" && rm -f gmon.out && "./$bench" "$@" >/dev/null &&
        gprof -b -p "./$bench" gmon.out)
}

if [ "${1:-}" = --diff ]; then
    shift
    if [ $# -lt 3 ]; then
        echo "usage: $0 --diff <buildA> <buildB> <bench> [args...]" >&2
        exit 2
    fi
    tree_a=$1
    tree_b=$2
    bench=$3
    shift 3
    for t in "$tree_a" "$tree_b"; do
        if [ ! -f "$t/CMakeCache.txt" ]; then
            echo "error: $t is not a configured build tree" >&2
            exit 2
        fi
    done
    profile_tree "$tree_a" "$@" > /tmp/profile_a.$$
    profile_tree "$tree_b" "$@" > /tmp/profile_b.$$
    python3 - "$tree_a" "$tree_b" "$lines" \
        /tmp/profile_a.$$ /tmp/profile_b.$$ <<'EOF'
import sys

tree_a, tree_b, lines, file_a, file_b = sys.argv[1:6]

def parse(path):
    # gprof -b -p flat lines: "%time cum self [calls ms ms] name";
    # the name keeps internal spaces (template/argument lists), so
    # strip the leading numeric columns and join the rest.
    out = {}
    for line in open(path):
        parts = line.split(None, 3)
        if len(parts) < 4:
            continue
        try:
            self_s = float(parts[2])
        except ValueError:
            continue
        tokens = parts[3].split()
        calls = None
        while tokens:
            try:
                v = float(tokens[0])
            except ValueError:
                break
            if calls is None:
                calls = int(v)
            tokens.pop(0)
        name = " ".join(tokens)
        if name:
            out[name] = (self_s, calls)
    return out

a, b = parse(file_a), parse(file_b)
rows = []
for name in a.keys() | b.keys():
    sa, ca = a.get(name, (0.0, None))
    sb, cb = b.get(name, (0.0, None))
    rows.append((abs(sb - sa), sa, sb, ca, cb, name))
# Ties on delta are common (0.00 vs 0.00): key on (delta, name) only,
# since the calls columns may be None and don't order.
rows.sort(key=lambda r: (r[0], r[5]), reverse=True)

fmt_calls = lambda c: "-" if c is None else str(c)
print(f"{'A_self_s':>9} {'B_self_s':>9} {'delta':>8} "
      f"{'A_calls':>12} {'B_calls':>12}  function")
print(f"(A = {tree_a}, B = {tree_b}; sorted by |delta self seconds|)")
for _, sa, sb, ca, cb, name in rows[: int(lines)]:
    print(f"{sa:>9.2f} {sb:>9.2f} {sb - sa:>+8.2f} "
          f"{fmt_calls(ca):>12} {fmt_calls(cb):>12}  {name[:90]}")
EOF
    rm -f /tmp/profile_a.$$ /tmp/profile_b.$$
    exit 0
fi

if [ $# -lt 1 ]; then
    echo "usage: $0 <bench> [bench args...]" >&2
    exit 2
fi

bench=$1
shift

tree="$repo/build-pg"

cmake -B "$tree" -S "$repo" \
    -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_FLAGS=-pg \
    -DCMAKE_EXE_LINKER_FLAGS=-pg \
    -DMITOSIM_BUILD_TESTS=OFF \
    -DMITOSIM_BUILD_EXAMPLES=OFF >/dev/null
cmake --build "$tree" -j "$(nproc)" --target "$bench"

cd "$tree"
rm -f gmon.out
"./$bench" "$@" >/dev/null
gprof -b "./$bench" gmon.out | head -n "$lines"
echo
echo "[full output: (cd build-pg && gprof ./$bench gmon.out | less)]"
