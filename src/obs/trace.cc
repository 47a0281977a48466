#include "trace.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace mitosim::obs
{

namespace
{

const char *const kCatNames[NumTraceCats] = {
    "fault", "shootdown", "replica", "sched", "thp", "asid",
};

unsigned
parseMask(const char *spec)
{
    if (!spec || !*spec || std::strcmp(spec, "0") == 0)
        return 0;
    if (std::strcmp(spec, "all") == 0 || std::strcmp(spec, "1") == 0)
        return (1u << NumTraceCats) - 1;
    unsigned mask = 0;
    const char *p = spec;
    while (*p) {
        const char *end = p;
        while (*end && *end != ',')
            ++end;
        std::size_t len = static_cast<std::size_t>(end - p);
        for (unsigned c = 0; c < NumTraceCats; ++c)
            if (len == std::strlen(kCatNames[c]) &&
                std::strncmp(p, kCatNames[c], len) == 0)
                mask |= 1u << c;
        p = *end ? end + 1 : end;
    }
    return mask;
}

std::uint64_t
envU64(const char *name, std::uint64_t fallback)
{
    const char *v = std::getenv(name);
    if (!v || !*v)
        return fallback;
    return std::strtoull(v, nullptr, 10);
}

void
appendU64(std::string &out, std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%llu",
                  static_cast<unsigned long long>(v));
    out += buf;
}

} // namespace

const char *
traceCatName(TraceCat cat)
{
    return kCatNames[static_cast<unsigned>(cat)];
}

void
Tracer::initFromEnv()
{
    mask_ = parseMask(std::getenv("MITOSIM_TRACE"));
    cap_ = static_cast<std::size_t>(envU64("MITOSIM_TRACE_CAP", 65536));
    if (cap_ == 0)
        cap_ = 1;
}

void
Tracer::configure(unsigned mask, std::size_t capacity)
{
    mask_ = mask & ((1u << NumTraceCats) - 1);
    cap_ = capacity ? capacity : 1;
    reset();
}

void
Tracer::push(const TraceEvent &ev)
{
    if (ring_.size() < cap_) {
        ring_.push_back(ev);
        return;
    }
    // Full: overwrite the oldest so the ring keeps the newest events.
    ring_[head_] = ev;
    head_ = (head_ + 1) % cap_;
    ++dropped_;
}

std::vector<TraceEvent>
Tracer::events() const
{
    std::vector<TraceEvent> out;
    out.reserve(ring_.size());
    for (std::size_t i = 0; i < ring_.size(); ++i)
        out.push_back(ring_[(head_ + i) % ring_.size()]);
    return out;
}

std::string
Tracer::exportJson() const
{
    if (ring_.empty())
        return "";
    std::string out;
    out.reserve(ring_.size() * 96 + 256);
    out += "{\"traceEvents\":[\n";
    bool first = true;
    for (const TraceEvent &ev : events()) {
        if (!first)
            out += ",\n";
        first = false;
        out += "{\"name\":\"";
        out += ev.name;
        out += "\",\"cat\":\"";
        out += traceCatName(ev.cat);
        out += "\",\"ph\":\"";
        out += ev.ph;
        out += "\",\"ts\":";
        appendU64(out, ev.ts);
        if (ev.ph == 'X') {
            out += ",\"dur\":";
            appendU64(out, ev.dur);
        } else {
            out += ",\"s\":\"t\"";
        }
        out += ",\"pid\":";
        appendU64(out, static_cast<std::uint64_t>(
                           static_cast<std::uint32_t>(ev.pid)));
        out += ",\"tid\":";
        appendU64(out, static_cast<std::uint64_t>(
                           static_cast<std::uint32_t>(ev.tid)));
        if (ev.arg0Name) {
            out += ",\"args\":{\"";
            out += ev.arg0Name;
            out += "\":";
            appendU64(out, ev.arg0);
            if (ev.arg1Name) {
                out += ",\"";
                out += ev.arg1Name;
                out += "\":";
                appendU64(out, ev.arg1);
            }
            out += "}";
        }
        out += "}";
    }
    out += "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{"
           "\"dropped_events\":";
    appendU64(out, dropped_);
    out += ",\"virtual_cycles_per_us\":1}}\n";
    return out;
}

void
Tracer::reset()
{
    ring_.clear();
    head_ = 0;
    dropped_ = 0;
    now_ = 0;
}

} // namespace mitosim::obs
