/**
 * @file
 * Machine-readable benchmark results. Every fig/tab/abl bench main
 * builds a BenchReport alongside its stdout table and writes
 * BENCH_<name>.json — the artifact perf-trajectory tooling diffs across
 * commits. The schema is deliberately small and stable:
 *
 *   {
 *     "schema_version": 1,
 *     "bench":   "<name>",
 *     "config":  { "<key>": <string|number>, ... },
 *     "runs":    [ { "label":   "<row label>",
 *                    "tags":    { "<key>": "<string>", ... },
 *                    "metrics": { "<key>": <finite number>, ... } }, ... ],
 *     "speedups": { "<label>": <finite number>, ... },
 *     "wall_ms":  { "<job>": { "total": <number>, "populate": <number>,
 *                              "run": <number>, "report": <number> }
 *                           | <number>, ..., "total": <number> },
 *     "metrics":  { "<job>": { "<metric>": <number>, ... }, ... }
 *   }
 *
 * One section is excluded from report comparisons: "wall_ms" is
 * host-side telemetry (per-job and total wall-clock, recorded by the
 * driver), expected to drift with host load and to improve with
 * host-side optimizations, while simulated results must be
 * bit-identical across commits unless the model changed. "metrics" is
 * the one simulated-telemetry channel: the src/obs registry flatten
 * (named counters — scheduler sched_*, THP lifecycle thp_*, ... —
 * gauge snapshots, histogram digests, walk-cycle attribution) plus,
 * on checked runs, the vmcheck check_* counters. It is deterministic,
 * so tools/cmp_reports.py compares it like the per-run metrics; only
 * a MITOSIM_CHECK=1 run, whose check_* counters an unchecked run
 * lacks, is compared without it (strip_host_telemetry).
 *
 * A minimal JSON value/writer/parser keeps the repo dependency-free; the
 * parser exists so tests and tools can round-trip what the writer emits.
 */

#ifndef MITOSIM_BENCH_REPORT_H
#define MITOSIM_BENCH_REPORT_H

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace mitosim::bench
{

/// @name Minimal JSON model
/// @{

/** A JSON value; objects preserve insertion order. */
class JsonValue
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    JsonValue() = default;
    static JsonValue null() { return JsonValue(); }
    static JsonValue boolean(bool b);
    /** Non-finite values degrade to null: JSON has no NaN/Inf. */
    static JsonValue number(double v);
    static JsonValue string(std::string s);
    static JsonValue array();
    static JsonValue object();

    Kind kind() const { return kind_; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    bool asBool() const { return bool_; }
    double asNumber() const { return number_; }
    const std::string &asString() const { return string_; }

    /** Array/object element count (0 for scalars). */
    std::size_t size() const;
    /** Array element (must be an array; index in range). */
    const JsonValue &at(std::size_t index) const;
    /** Object member lookup; nullptr when absent or not an object. */
    const JsonValue *find(const std::string &key) const;
    /** Object members in insertion order. */
    const std::vector<std::pair<std::string, JsonValue>> &members() const
    {
        return object_;
    }

    /** Append to an array (converts a default-constructed value). */
    void append(JsonValue v);
    /** Set an object member, replacing an existing key. */
    void set(const std::string &key, JsonValue v);

    /** Serialize; indent > 0 pretty-prints with that many spaces. */
    std::string str(int indent = 0) const;

    /**
     * Deep structural equality (member order is significant — the
     * writer preserves insertion order). Lets tests compare a parallel
     * run's report against a serial run's without string-diffing.
     */
    bool operator==(const JsonValue &other) const = default;

  private:
    void write(std::string &out, int indent, int depth) const;

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double number_ = 0.0;
    std::string string_;
    std::vector<JsonValue> array_;
    std::vector<std::pair<std::string, JsonValue>> object_;
};

/** Strict parse of one JSON document; nullopt on any syntax error. */
std::optional<JsonValue> parseJson(const std::string &text);

/// @}
/// @name Benchmark report
/// @{

/** One measured configuration: a row of the printed table. */
class BenchRun
{
  public:
    explicit BenchRun(std::string label) : label_(std::move(label)) {}

    /** Attach a string dimension (workload, config name, page size). */
    BenchRun &tag(const std::string &key, std::string value);
    /** Attach a finite numeric result (norm_runtime, walk_fraction...). */
    BenchRun &metric(const std::string &key, double value);

    JsonValue toJson() const;

  private:
    std::string label_;
    std::vector<std::pair<std::string, std::string>> tags_;
    std::vector<std::pair<std::string, double>> metrics_;
};

/** One job's host time in ms: the whole thunk and two of its phases. */
struct PhaseMs
{
    double total = 0.0;
    double populate = 0.0;
    double run = 0.0;
};

/** Accumulates a bench binary's results and writes BENCH_<name>.json. */
class BenchReport
{
  public:
    explicit BenchReport(std::string name);

    const std::string &name() const { return name_; }

    /** Config-matrix entries (machine shape, footprint, op counts). */
    void config(const std::string &key, std::string value);
    void config(const std::string &key, double value);

    /** Add a run; the reference stays valid until the next addRun. */
    BenchRun &addRun(std::string label);

    /** Record a headline speedup (e.g. "canneal F/F+M"). */
    void speedup(const std::string &label, double value);

    /**
     * Record host wall-clock telemetry for @p label (a job name, or
     * "total"). Kept outside "metrics" — excluded from comparisons.
     */
    void wallMs(const std::string &label, double ms);

    /**
     * Record a job's wall-clock with its phase breakdown: the entry
     * becomes {"total", "populate", "run", "report"} where "report" is
     * the remainder (teardown + end-of-run checks + analysis), plus
     * the same spans in the job thread's CPU time as "total_cpu",
     * "populate_cpu" and "run_cpu". A job that never stamped phases
     * reads populate = run = 0. The whole section stays excluded from
     * metric comparisons.
     *
     * When @p sim_accesses is non-zero (a timed run), the entry also
     * carries "sim_accesses" (the job's simulated memory accesses —
     * deterministic, but host throughput context rather than a result)
     * and "host_ops_per_sec" (sim_accesses over the run phase, or over
     * the total when the job never stamped phases): the simulator's
     * host throughput for this job, the number the hot-path work in
     * EXPERIMENTS.md optimizes.
     */
    void wallMsPhases(const std::string &label, const PhaseMs &wall,
                      const PhaseMs &cpu, std::uint64_t sim_accesses = 0);

    /**
     * Extend job @p label's wall_ms entry with one host-side hot-path
     * telemetry counter (fused_runs, fused_ops, arena slab activity,
     * ...). Host state, not simulated state: it lands inside the
     * "wall_ms" section next to host_ops_per_sec and is excluded from
     * metric comparisons with the rest of that section. A scalar
     * entry written earlier by wallMs() is promoted to the object form
     * ({"total": <scalar>, ...}) so both shapes compose.
     */
    void wallMsHostStat(const std::string &label, const std::string &key,
                        double value);

    /**
     * Record one observability metric (a flattened src/obs registry
     * entry or a walk-cycle attribution bucket) for job @p label. The
     * "metrics" section only appears when a job recorded any; unlike
     * "wall_ms" it is deterministic and compared between reports.
     */
    void metricStat(const std::string &label, const std::string &key,
                    double value);

    JsonValue toJson() const;
    std::string str() const { return toJson().str(2); }

    /**
     * Output file: $MITOSIM_BENCH_DIR/BENCH_<name>.json, or the current
     * directory when the variable is unset.
     */
    std::string outputPath() const;

    /** Write outputPath(); returns false (and keeps going) on I/O error. */
    bool write() const;

  private:
    std::string name_;
    JsonValue config_ = JsonValue::object();
    std::vector<std::unique_ptr<BenchRun>> runs_;
    JsonValue speedups_ = JsonValue::object();
    JsonValue wallMs_ = JsonValue::object();
    JsonValue metricsStats_ = JsonValue::object();
};

/// @}

} // namespace mitosim::bench

#endif // MITOSIM_BENCH_REPORT_H
