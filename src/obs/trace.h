/**
 * @file
 * Event tracer: an opt-in, fixed-capacity ring buffer of
 * virtual-cycle-stamped simulation events, exported as Chrome /
 * Perfetto trace-event JSON so a whole run can be opened on a
 * timeline (chrome://tracing or https://ui.perfetto.dev).
 *
 * Off by default: `MITOSIM_TRACE=<categories>` enables it (see
 * TraceCat for names; "all" enables everything). While disabled every
 * emission point is a single inlined mask test against zero, so the
 * hot path stays within the perf regression gate and reports remain
 * metric-identical. `MITOSIM_TRACE_CAP=N` sets the ring capacity in
 * events (default 65536); on overflow the ring keeps the NEWEST
 * events and counts the overwritten ones.
 *
 * Timestamps are virtual cycles advanced by the owning job's
 * execution context; the exported JSON maps 1 cycle = 1 trace
 * microsecond (integer-only, so traces are byte-stable across hosts).
 */

#ifndef MITOSIM_OBS_TRACE_H
#define MITOSIM_OBS_TRACE_H

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/types.h"

namespace mitosim::obs
{

/** Event categories (bit positions for the enable mask). */
enum class TraceCat : unsigned
{
    Fault = 0,     //!< page-fault handled (complete event, dur = cost)
    Shootdown = 1, //!< TLB shootdown / remote flush
    Replica = 2,   //!< replica page create / update / free
    Sched = 3,     //!< dispatch / preempt / migrate
    Thp = 4,       //!< khugepaged collapse, kcompactd relocation
    Asid = 5,      //!< ASID recycle flush
};
inline constexpr unsigned NumTraceCats = 6;

/** Category display name ("fault", "sched", ...). */
const char *traceCatName(TraceCat cat);

/** One trace event. Names point at string literals — never freed. */
struct TraceEvent
{
    const char *name = nullptr;
    const char *arg0Name = nullptr; //!< nullptr: no args
    const char *arg1Name = nullptr; //!< nullptr: one arg at most
    std::uint64_t ts = 0;           //!< virtual cycles
    std::uint64_t dur = 0;          //!< complete events only
    std::uint64_t arg0 = 0;
    std::uint64_t arg1 = 0;
    std::int32_t pid = 0;
    std::int32_t tid = 0;
    TraceCat cat = TraceCat::Fault;
    char ph = 'i'; //!< 'X' complete, 'i' instant
};

/**
 * Per-machine tracer. One tracer per job (it lives on the job's
 * sim::Machine), so traces are deterministic regardless of how many
 * jobs run concurrently.
 */
class Tracer
{
  public:
    /** Read MITOSIM_TRACE* from the environment (done by Machine). */
    void initFromEnv();

    /** Test hook: override the env-derived configuration. */
    void configure(unsigned mask, std::size_t capacity);

    bool enabled() const { return mask_ != 0; }

    bool
    enabled(TraceCat cat) const
    {
        return (mask_ >> static_cast<unsigned>(cat)) & 1u;
    }

    /** Advance the virtual clock (called per workload op; a single
     *  inlined test-against-zero when tracing is off). */
    void
    advance(Cycles c)
    {
        if (mask_)
            now_ += c;
    }

    std::uint64_t now() const { return now_; }

    /** Instant event at the current virtual time. */
    void
    instant(TraceCat cat, const char *name, std::int32_t pid,
            std::int32_t tid, const char *arg0_name = nullptr,
            std::uint64_t arg0 = 0, const char *arg1_name = nullptr,
            std::uint64_t arg1 = 0)
    {
        if (!enabled(cat))
            return;
        TraceEvent ev;
        ev.name = name;
        ev.cat = cat;
        ev.ph = 'i';
        ev.ts = now_;
        ev.pid = pid;
        ev.tid = tid;
        ev.arg0Name = arg0_name;
        ev.arg0 = arg0;
        ev.arg1Name = arg1_name;
        ev.arg1 = arg1;
        push(ev);
    }

    /** Complete event starting now, lasting @p dur virtual cycles. */
    void
    complete(TraceCat cat, const char *name, std::uint64_t dur,
             std::int32_t pid, std::int32_t tid,
             const char *arg0_name = nullptr, std::uint64_t arg0 = 0,
             const char *arg1_name = nullptr, std::uint64_t arg1 = 0)
    {
        if (!enabled(cat))
            return;
        TraceEvent ev;
        ev.name = name;
        ev.cat = cat;
        ev.ph = 'X';
        ev.ts = now_;
        ev.dur = dur;
        ev.pid = pid;
        ev.tid = tid;
        ev.arg0Name = arg0_name;
        ev.arg0 = arg0;
        ev.arg1Name = arg1_name;
        ev.arg1 = arg1;
        push(ev);
    }

    /** Events in chronological order (oldest retained first). */
    std::vector<TraceEvent> events() const;

    /** Events overwritten because the ring was full. */
    std::uint64_t dropped() const { return dropped_; }

    /** Chrome trace-event JSON ("" when nothing was recorded). */
    std::string exportJson() const;

    /**
     * Drop recorded events, the dropped-count and the virtual clock;
     * keep the configuration.
     * Used after snapshot populate so a forked job starts from the
     * same observability state as a fresh one.
     */
    void reset();

  private:
    void push(const TraceEvent &ev);

    unsigned mask_ = 0; //!< 0 = tracing off (the default)
    std::size_t cap_ = 65536;
    std::uint64_t now_ = 0;
    std::uint64_t dropped_ = 0;
    std::size_t head_ = 0; //!< next write position once full
    std::vector<TraceEvent> ring_;
};

} // namespace mitosim::obs

#endif // MITOSIM_OBS_TRACE_H
