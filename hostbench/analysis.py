"""Pure functions shared by run.py, ab.py and the tests.

Turns what the hostbench driver printed (one JSON document of
iterations) and the Chrome trace it wrote into the benchmark's metrics:
medians and percentiles of host time, span self time per layer, and the
exact simulated counts with their determinism and fingerprint checks.
"""

import statistics

# Public calls counted as simulated syscalls for syscall_p50/p99_us.
SYSCALLS = ("os.mmap", "os.mprotect", "os.munmap", "os.madvise")

# The layers whose self time makes up each workload's target share.
CHURN_LAYERS = ("os.", "thp.")


def percentile(values, q):
    """Linear-interpolated percentile q in [0, 100] of a non-empty list."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def self_times(spans):
    """Self time of every span: its duration minus the union of the
    intervals its direct children cover (clipped to the span).

    spans: list of dicts with keys id, parent, start, end (any unit).
    Returns {span id: self time}.
    """
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        kids = sorted(
            (max(c["start"], s["start"]), min(c["end"], s["end"]))
            for c in children.get(s["id"], [])
        )
        for lo, hi in kids:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def spans_from_chrome(trace):
    """Spans (start/end in seconds) from the driver's Chrome trace JSON."""
    spans = []
    for ev in trace["traceEvents"]:
        args = ev["args"]
        start = ev["ts"] * 1e-6
        spans.append({
            "name": ev["name"],
            "id": args["span"],
            "parent": args["parent"],
            "iter": args["iter"],
            "start": start,
            "end": start + ev["dur"] * 1e-6,
        })
    return spans


def layer_self_time(spans):
    """{iteration: {layer name: summed self seconds}} over all spans."""
    selfs = self_times(spans)
    out = {}
    for s in spans:
        layers = out.setdefault(s["iter"], {})
        layers[s["name"]] = layers.get(s["name"], 0.0) + selfs[s["id"]]
    return out


def count_mismatches(reference, counts):
    """Names whose exact count differs between two count dicts."""
    names = sorted(set(reference) | set(counts))
    return [n for n in names if reference.get(n) != counts.get(n)]


def measured(iterations, traced=None):
    """Complete iterations after the warm-up, optionally only
    (un)traced ones. An aborted iteration's timings are incomplete."""
    return [it for it in iterations
            if not it["warmup"] and not it["aborted"]
            and (traced is None or it["traced"] == traced)]


def measurable(iterations, trace):
    """Whether the run left the iterations its metrics are taken from:
    untraced ones, and for a traced run traced ones too."""
    return bool(measured(iterations, traced=False)) and (
        not trace or bool(measured(iterations, traced=True)))


# Share of a run's iterations, the fastest by body wall time, that every
# host-time figure of the run is taken from (at least QUIET_MIN of them).
QUIET_SHARE = 0.2
QUIET_MIN = 3


def syscall_us(it):
    """Host time of every simulated syscall of one iteration, in us."""
    return [us for name in SYSCALLS for us in it["calls_us"].get(name, [])]


def quietest(iterations, traced, cost=lambda it: it["wall_s"]):
    """The fifth of the measured (un)traced iterations that spent the
    least host time on @p cost (default: the whole body).

    The host's CPUs are shared: neighbours slow single iterations, and
    whole CPUs for seconds at a time, by up to 1.6x. The driver rotates
    iterations over every CPU it may use; each figure of a run comes
    from the iterations that ran least disturbed in what it measures."""
    its = sorted(measured(iterations, traced=traced), key=cost)
    return its[:max(QUIET_MIN, int(len(its) * QUIET_SHARE))]


def end_to_end(doc):
    """The end-to-end metrics of an untraced run's driver output."""
    its = quietest(doc["iterations"], traced=False)
    calls = [us for it in quietest(doc["iterations"], traced=False,
                                   cost=lambda it: sum(syscall_us(it)))
             for us in syscall_us(it)]
    return {
        "wall_s": (statistics.median(it["wall_s"] for it in its), "s"),
        "cpu_s": (statistics.median(it["cpu_s"] for it in its), "s"),
        "sim_accesses_per_s": (statistics.median(
            it["accesses"] / it["cpu_s"] for it in its), "1/s"),
        "setup_s": (statistics.median(it["setup_s"] for it in its), "s"),
        "peak_rss_mib": (doc["peak_rss_kib"] / 1024.0, "MiB"),
        "syscall_p50_us": (percentile(calls, 50), "us"),
        # The tail is what neighbours disturb most. On a shared 4-vCPU
        # VM, p99 pooled over the quietest fifth spread 0.19-0.27 over
        # ten replay-ms runs; the lowest per-iteration p99 spread 0.07.
        "syscall_p99_us": (min(percentile(syscall_us(it), 99) for it in
                               measured(doc["iterations"], traced=False)),
                           "us"),
    }


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(doc, spans, failed_frac):
    """The per-layer metrics of a traced run: span self time per layer
    and per-call percentiles of span durations, each per iteration and
    then the median over the quietest traced iterations, and the exact
    simulated counts."""
    traced = quietest(doc["iterations"], traced=True)
    plain = quietest(doc["iterations"], traced=False)
    counts = traced[0]["counts"]
    keep = {i for i, it in enumerate(doc["iterations"])
            if any(it is t for t in traced)}
    spans = [s for s in spans if s["iter"] in keep]
    selfs = layer_self_time(spans)
    iters = [selfs.get(i, {}) for i in sorted(keep)]

    def med_ms(name):
        return statistics.median(it.get(name, 0.0) for it in iters) * 1e3

    def share(match):
        return statistics.median(
            _ratio(sum(v for k, v in it.items() if match(k)),
                   sum(it.values()))
            for it in iters)

    def call_us(name, q):
        per_iter = {}
        for s in spans:
            if s["name"] == name:
                per_iter.setdefault(s["iter"], []).append(
                    (s["end"] - s["start"]) * 1e6)
        return statistics.median(percentile(d, q)
                                 for d in per_iter.values()) \
            if per_iter else 0.0

    populate_ms = med_ms("workloads.populate")
    replay_ms = med_ms("sim.replay")
    c = counts
    m = {
        "workloads.populate_ms": (populate_ms, "ms"),
        "workloads.populate_ns_per_page": (
            _ratio(populate_ms * 1e6, c["workloads.pages_populated"]), "ns"),
        "os.faults": (c["os.faults"], "count"),
        "pt.pt_pages": (c["pt.pt_pages"], "count"),
        "mem.arena_chunks": (c["mem.arena_chunks"], "count"),
        "snapshot.fork_ms": (med_ms("snapshot.fork"), "ms"),
        "snapshot.finalize_ms": (med_ms("snapshot.finalize"), "ms"),
        "core.replicate_ms": (med_ms("core.replicate"), "ms"),
        "core.migrate_ms": (med_ms("core.migrate"), "ms"),
        "core.replica_pages": (c["core.replica_pages"], "count"),
        "sim.replay_ms": (replay_ms, "ms"),
        "sim.ns_per_access": (
            _ratio(replay_ms * 1e6, c["sim.accesses"]), "ns"),
        "sim.accesses": (c["sim.accesses"], "count"),
        "sim.fused_share": (
            _ratio(c["sim.fused_ops"], c["sim.accesses"]), "share"),
        "sim.walks": (c["sim.walks"], "count"),
        "sim.walk_mem_refs": (c["sim.walk_mem_refs"], "count"),
        "sim.pt_remote_share": (_ratio(
            c["sim.pt_dram_remote"],
            c["sim.pt_dram_local"] + c["sim.pt_dram_remote"]), "share"),
        "tlb.misses": (c["tlb.misses"], "count"),
        "tlb.hit_ratio": (
            1.0 - _ratio(c["tlb.misses"], c["sim.accesses"]), "share"),
        "cache.l1d_hits": (c["cache.l1d_hits"], "count"),
        "cache.l3_local_hits": (c["cache.l3_local_hits"], "count"),
        "cache.l3_remote_hits": (c["cache.l3_remote_hits"], "count"),
        "os.mmap_us_p50": (call_us("os.mmap", 50), "us"),
        "os.mmap_us_p99": (call_us("os.mmap", 99), "us"),
        "os.mprotect_us_p50": (call_us("os.mprotect", 50), "us"),
        "os.mprotect_us_p99": (call_us("os.mprotect", 99), "us"),
        "os.munmap_us_p50": (call_us("os.munmap", 50), "us"),
        "os.munmap_us_p99": (call_us("os.munmap", 99), "us"),
        "os.madvise_us_p50": (call_us("os.madvise", 50), "us"),
        "os.shootdowns": (c["os.shootdowns"], "count"),
        "core.eager_updates": (c["core.eager_updates"], "count"),
        "core.replica_refs": (c["core.replica_refs"], "count"),
        "core.degraded_allocs": (c["core.degraded_allocs"], "count"),
        "thp.tick_ms": (med_ms("thp.tick"), "ms"),
        "thp.collapses": (c["thp.collapses"], "count"),
        "thp.splits": (c["thp.splits"], "count"),
        "thp.collapse_failed": (c["thp.collapse_failed"], "count"),
        "thp.compaction_pages_moved": (
            c["thp.compaction_pages_moved"], "count"),
        "os.autonuma_tick_ms": (med_ms("os.autonuma_tick"), "ms"),
        "os.autonuma_pages_migrated": (
            c["os.autonuma_pages_migrated"], "count"),
        "obs.flatten_ms": (med_ms("obs.flatten"), "ms"),
        "workloads.populate_share": (
            share(lambda k: k == "workloads.populate"), "share"),
        "sim.replay_share": (share(lambda k: k == "sim.replay"), "share"),
        "os.churn_share": (
            share(lambda k: k.startswith(CHURN_LAYERS)), "share"),
        "bench.trace_overhead_share": (
            statistics.median(it["wall_s"] for it in traced)
            / statistics.median(it["wall_s"] for it in plain) - 1.0,
            "share"),
        "failed_frac": (failed_frac, "share"),
    }
    return m
