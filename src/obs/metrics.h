/**
 * @file
 * Metrics registry: named counters, gauges and log2-bucketed
 * histograms with label dimensions (pid, socket, page size, walk
 * level, ...).
 *
 * Subsystems register instruments once (at construction or lazily at
 * the first event) and hold the returned pointer; bumping an
 * instrument is then a single inlined integer add with no lookup, map
 * access or branch on the hot path. The registry owns the storage
 * (std::deque, so handles stay stable across registrations) and
 * flattens everything into an ordered name -> value list for the
 * report's "metrics" section.
 *
 * Instruments are plain value accumulators — they never touch
 * simulated state, so the "metrics" report section is excluded from
 * the paper-metric identity contract (tools/cmp_reports.py strips it
 * alongside "wall_ms").
 */

#ifndef MITOSIM_OBS_METRICS_H
#define MITOSIM_OBS_METRICS_H

#include <bit>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace mitosim::obs
{

/** One label dimension: key -> value, e.g. {"socket", "1"}. */
using Label = std::pair<std::string, std::string>;
using Labels = std::vector<Label>;

/** Monotonic counter. */
struct Counter
{
    std::uint64_t value = 0;

    void inc(std::uint64_t n = 1) { value += n; }
};

/**
 * Last-write-wins gauge. Signed: a gauge tracking live objects can dip
 * below its post-reset() baseline when objects created before the
 * reset are freed after it (e.g. populate-phase replicas freed during
 * measurement), and -3 reads better than a wrapped uint64.
 */
struct Gauge
{
    std::int64_t value = 0;

    void set(std::int64_t v) { value = v; }
    void add(std::int64_t n) { value += n; }
    void sub(std::int64_t n) { value -= n; }
};

/**
 * Log2-bucketed histogram: bucket 0 holds value 0, bucket k >= 1
 * holds values in [2^(k-1), 2^k). 64-bit values need 65 buckets.
 * Percentiles are reported as the lower bound of the bucket holding
 * the requested rank — deterministic and integer-only.
 */
struct Histogram
{
    static constexpr int NumBuckets = 65;

    std::uint64_t buckets[NumBuckets] = {};
    std::uint64_t count = 0;
    std::uint64_t sum = 0;

    void
    observe(std::uint64_t v)
    {
        ++buckets[std::bit_width(v)];
        ++count;
        sum += v;
    }

    /** Lower bound of bucket @p b (the reported percentile value). */
    static std::uint64_t
    bucketFloor(int b)
    {
        return b == 0 ? 0 : 1ull << (b - 1);
    }

    /** Percentile @p q in [0,1]; 0 when empty. */
    std::uint64_t percentile(double q) const;
};

/**
 * Registry of named instruments. Registration is idempotent: asking
 * for the same name+labels again returns the existing instrument, so
 * per-event lazy registration is safe (but callers should still cache
 * the handle — registration does a map lookup).
 */
class MetricsRegistry
{
  public:
    Counter &counter(std::string name, Labels labels = {});
    Gauge &gauge(std::string name, Labels labels = {});
    Histogram &histogram(std::string name, Labels labels = {});

    /**
     * Flatten every instrument into (name, value) pairs in
     * registration order. Counter/gauge emit one pair; a histogram
     * emits name_count / name_sum / name_p50 / name_p90 / name_p99.
     * Labels render as name{k=v,...} with keys in registration order.
     * Values are doubles (the report's number type); every counter and
     * bucket bound in practice is far below 2^53, so the conversion is
     * exact.
     */
    std::vector<std::pair<std::string, double>> flatten() const;

    /**
     * Zero every instrument, keeping registrations (and therefore
     * every handle held by kernel/scheduler/backend code) valid.
     * Used after snapshot populate so observability state is
     * identical whether a job ran fresh or from a fork.
     */
    void reset();

    bool empty() const { return entries_.empty(); }

  private:
    enum class Kind
    {
        Counter,
        Gauge,
        Histogram
    };

    struct Entry
    {
        std::string key; //!< rendered name{labels}
        Kind kind;
        Counter counter;
        Gauge gauge;
        Histogram hist;
    };

    Entry &find(Kind kind, std::string name, Labels &labels);

    static std::string render(const std::string &name,
                              const Labels &labels);

    std::deque<Entry> entries_; //!< deque: stable handle addresses
    std::map<std::string, std::size_t> index_;
};

} // namespace mitosim::obs

#endif // MITOSIM_OBS_METRICS_H
