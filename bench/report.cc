#include "report.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace mitosim::bench
{

/// @name JsonValue
/// @{

JsonValue
JsonValue::boolean(bool b)
{
    JsonValue v;
    v.kind_ = Kind::Bool;
    v.bool_ = b;
    return v;
}

JsonValue
JsonValue::number(double value)
{
    if (!std::isfinite(value))
        return null();
    JsonValue v;
    v.kind_ = Kind::Number;
    v.number_ = value;
    return v;
}

JsonValue
JsonValue::string(std::string s)
{
    JsonValue v;
    v.kind_ = Kind::String;
    v.string_ = std::move(s);
    return v;
}

JsonValue
JsonValue::array()
{
    JsonValue v;
    v.kind_ = Kind::Array;
    return v;
}

JsonValue
JsonValue::object()
{
    JsonValue v;
    v.kind_ = Kind::Object;
    return v;
}

std::size_t
JsonValue::size() const
{
    if (kind_ == Kind::Array)
        return array_.size();
    if (kind_ == Kind::Object)
        return object_.size();
    return 0;
}

const JsonValue &
JsonValue::at(std::size_t index) const
{
    return array_.at(index);
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (kind_ != Kind::Object)
        return nullptr;
    for (const auto &[k, v] : object_)
        if (k == key)
            return &v;
    return nullptr;
}

void
JsonValue::append(JsonValue v)
{
    if (kind_ == Kind::Null)
        kind_ = Kind::Array;
    array_.push_back(std::move(v));
}

void
JsonValue::set(const std::string &key, JsonValue v)
{
    if (kind_ == Kind::Null)
        kind_ = Kind::Object;
    for (auto &[k, existing] : object_) {
        if (k == key) {
            existing = std::move(v);
            return;
        }
    }
    object_.emplace_back(key, std::move(v));
}

namespace
{

void
escapeTo(std::string &out, const std::string &s)
{
    out += '"';
    for (unsigned char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    out += '"';
}

/** Shortest decimal form that parses back to exactly @p value. */
void
numberTo(std::string &out, double value)
{
    char buf[40];
    for (int precision = 15; precision <= 17; ++precision) {
        std::snprintf(buf, sizeof buf, "%.*g", precision, value);
        if (std::strtod(buf, nullptr) == value)
            break;
    }
    out += buf;
}

void
newlineIndent(std::string &out, int indent, int depth)
{
    if (indent <= 0)
        return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent) *
                   static_cast<std::size_t>(depth),
               ' ');
}

} // namespace

void
JsonValue::write(std::string &out, int indent, int depth) const
{
    switch (kind_) {
      case Kind::Null:
        out += "null";
        break;
      case Kind::Bool:
        out += bool_ ? "true" : "false";
        break;
      case Kind::Number:
        numberTo(out, number_);
        break;
      case Kind::String:
        escapeTo(out, string_);
        break;
      case Kind::Array:
        if (array_.empty()) {
            out += "[]";
            break;
        }
        out += '[';
        for (std::size_t i = 0; i < array_.size(); ++i) {
            if (i)
                out += indent > 0 ? "," : ", ";
            newlineIndent(out, indent, depth + 1);
            array_[i].write(out, indent, depth + 1);
        }
        newlineIndent(out, indent, depth);
        out += ']';
        break;
      case Kind::Object:
        if (object_.empty()) {
            out += "{}";
            break;
        }
        out += '{';
        for (std::size_t i = 0; i < object_.size(); ++i) {
            if (i)
                out += indent > 0 ? "," : ", ";
            newlineIndent(out, indent, depth + 1);
            escapeTo(out, object_[i].first);
            out += ": ";
            object_[i].second.write(out, indent, depth + 1);
        }
        newlineIndent(out, indent, depth);
        out += '}';
        break;
    }
}

std::string
JsonValue::str(int indent) const
{
    std::string out;
    write(out, indent, 0);
    if (indent > 0)
        out += '\n';
    return out;
}

/// @}
/// @name Parser (recursive descent, strict)
/// @{

namespace
{

struct Parser
{
    const char *p;
    const char *end;
    int depth = 0;

    static constexpr int MaxDepth = 64;

    void
    skipWs()
    {
        while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' ||
                           *p == '\r'))
            ++p;
    }

    bool
    consume(char c)
    {
        if (p < end && *p == c) {
            ++p;
            return true;
        }
        return false;
    }

    bool
    literal(const char *word, std::size_t n)
    {
        if (static_cast<std::size_t>(end - p) < n ||
            std::memcmp(p, word, n) != 0)
            return false;
        p += n;
        return true;
    }

    bool
    parseString(std::string &out)
    {
        if (!consume('"'))
            return false;
        out.clear();
        while (p < end && *p != '"') {
            unsigned char c = static_cast<unsigned char>(*p);
            if (c < 0x20)
                return false; // raw control character
            if (c == '\\') {
                ++p;
                if (p >= end)
                    return false;
                switch (*p) {
                  case '"':
                    out += '"';
                    break;
                  case '\\':
                    out += '\\';
                    break;
                  case '/':
                    out += '/';
                    break;
                  case 'b':
                    out += '\b';
                    break;
                  case 'f':
                    out += '\f';
                    break;
                  case 'n':
                    out += '\n';
                    break;
                  case 'r':
                    out += '\r';
                    break;
                  case 't':
                    out += '\t';
                    break;
                  case 'u': {
                    if (end - p < 5)
                        return false;
                    unsigned code = 0;
                    for (int i = 1; i <= 4; ++i) {
                        char h = p[i];
                        code <<= 4;
                        if (h >= '0' && h <= '9')
                            code |= static_cast<unsigned>(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            code |= static_cast<unsigned>(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F')
                            code |= static_cast<unsigned>(h - 'A' + 10);
                        else
                            return false;
                    }
                    p += 4;
                    // UTF-8 encode the BMP code point (no surrogate
                    // pairing: the writer never emits them).
                    if (code < 0x80) {
                        out += static_cast<char>(code);
                    } else if (code < 0x800) {
                        out += static_cast<char>(0xC0 | (code >> 6));
                        out += static_cast<char>(0x80 | (code & 0x3F));
                    } else {
                        out += static_cast<char>(0xE0 | (code >> 12));
                        out += static_cast<char>(0x80 |
                                                 ((code >> 6) & 0x3F));
                        out += static_cast<char>(0x80 | (code & 0x3F));
                    }
                    break;
                  }
                  default:
                    return false;
                }
                ++p;
            } else {
                out += static_cast<char>(c);
                ++p;
            }
        }
        return consume('"');
    }

    bool
    parseValue(JsonValue &out)
    {
        if (++depth > MaxDepth)
            return false;
        skipWs();
        if (p >= end)
            return false;
        bool ok = false;
        switch (*p) {
          case 'n':
            ok = literal("null", 4);
            out = JsonValue::null();
            break;
          case 't':
            ok = literal("true", 4);
            out = JsonValue::boolean(true);
            break;
          case 'f':
            ok = literal("false", 5);
            out = JsonValue::boolean(false);
            break;
          case '"': {
            std::string s;
            ok = parseString(s);
            out = JsonValue::string(std::move(s));
            break;
          }
          case '[': {
            ++p;
            out = JsonValue::array();
            skipWs();
            if (consume(']')) {
                ok = true;
                break;
            }
            for (;;) {
                JsonValue elem;
                if (!parseValue(elem))
                    return false;
                out.append(std::move(elem));
                skipWs();
                if (consume(']')) {
                    ok = true;
                    break;
                }
                if (!consume(','))
                    return false;
            }
            break;
          }
          case '{': {
            ++p;
            out = JsonValue::object();
            skipWs();
            if (consume('}')) {
                ok = true;
                break;
            }
            for (;;) {
                skipWs();
                std::string key;
                if (!parseString(key))
                    return false;
                skipWs();
                if (!consume(':'))
                    return false;
                JsonValue val;
                if (!parseValue(val))
                    return false;
                out.set(key, std::move(val));
                skipWs();
                if (consume('}')) {
                    ok = true;
                    break;
                }
                if (!consume(','))
                    return false;
            }
            break;
          }
          default: {
            // Walk the RFC 8259 number grammar by hand: strtod alone
            // accepts forms JSON forbids (hex, inf/nan, "+1", "01",
            // ".5", "5.").
            const char *q = p;
            if (q < end && *q == '-')
                ++q;
            if (q >= end || !std::isdigit(static_cast<unsigned char>(*q)))
                return false;
            if (*q == '0')
                ++q; // a leading zero must stand alone
            else
                while (q < end &&
                       std::isdigit(static_cast<unsigned char>(*q)))
                    ++q;
            if (q < end && *q == '.') {
                ++q;
                if (q >= end ||
                    !std::isdigit(static_cast<unsigned char>(*q)))
                    return false;
                while (q < end &&
                       std::isdigit(static_cast<unsigned char>(*q)))
                    ++q;
            }
            if (q < end && (*q == 'e' || *q == 'E')) {
                ++q;
                if (q < end && (*q == '+' || *q == '-'))
                    ++q;
                if (q >= end ||
                    !std::isdigit(static_cast<unsigned char>(*q)))
                    return false;
                while (q < end &&
                       std::isdigit(static_cast<unsigned char>(*q)))
                    ++q;
            }
            char *num_end = nullptr;
            double v = std::strtod(p, &num_end);
            if (num_end != q || !std::isfinite(v))
                return false;
            p = num_end;
            out = JsonValue::number(v);
            ok = true;
            break;
          }
        }
        --depth;
        return ok;
    }
};

} // namespace

std::optional<JsonValue>
parseJson(const std::string &text)
{
    Parser parser{text.data(), text.data() + text.size()};
    JsonValue out;
    if (!parser.parseValue(out))
        return std::nullopt;
    parser.skipWs();
    if (parser.p != parser.end)
        return std::nullopt; // trailing garbage
    return out;
}

/// @}
/// @name BenchRun / BenchReport
/// @{

BenchRun &
BenchRun::tag(const std::string &key, std::string value)
{
    tags_.emplace_back(key, std::move(value));
    return *this;
}

BenchRun &
BenchRun::metric(const std::string &key, double value)
{
    metrics_.emplace_back(key, value);
    return *this;
}

JsonValue
BenchRun::toJson() const
{
    JsonValue run = JsonValue::object();
    run.set("label", JsonValue::string(label_));
    JsonValue tags = JsonValue::object();
    for (const auto &[k, v] : tags_)
        tags.set(k, JsonValue::string(v));
    run.set("tags", std::move(tags));
    JsonValue metrics = JsonValue::object();
    for (const auto &[k, v] : metrics_)
        metrics.set(k, JsonValue::number(v));
    run.set("metrics", std::move(metrics));
    return run;
}

BenchReport::BenchReport(std::string name) : name_(std::move(name)) {}

void
BenchReport::config(const std::string &key, std::string value)
{
    config_.set(key, JsonValue::string(std::move(value)));
}

void
BenchReport::config(const std::string &key, double value)
{
    config_.set(key, JsonValue::number(value));
}

BenchRun &
BenchReport::addRun(std::string label)
{
    runs_.push_back(std::make_unique<BenchRun>(std::move(label)));
    return *runs_.back();
}

void
BenchReport::speedup(const std::string &label, double value)
{
    speedups_.set(label, JsonValue::number(value));
}

void
BenchReport::wallMs(const std::string &label, double ms)
{
    wallMs_.set(label, JsonValue::number(ms));
}

void
BenchReport::wallMsPhases(const std::string &label, double total,
                          double populate, double run,
                          std::uint64_t sim_accesses)
{
    if (populate <= 0.0 && run <= 0.0 && sim_accesses == 0) {
        wallMs(label, total);
        return;
    }
    double report = total - populate - run;
    JsonValue entry = JsonValue::object();
    entry.set("total", JsonValue::number(total));
    entry.set("populate", JsonValue::number(populate));
    entry.set("run", JsonValue::number(run));
    entry.set("report", JsonValue::number(report > 0.0 ? report : 0.0));
    if (sim_accesses) {
        entry.set("sim_accesses",
                  JsonValue::number(static_cast<double>(sim_accesses)));
        double denom_ms = run > 0.0 ? run : total;
        if (denom_ms > 0.0)
            entry.set("host_ops_per_sec",
                      JsonValue::number(static_cast<double>(sim_accesses) /
                                        (denom_ms / 1000.0)));
    }
    wallMs_.set(label, std::move(entry));
}

void
BenchReport::wallMsHostStat(const std::string &label,
                            const std::string &key, double value)
{
    JsonValue entry = JsonValue::object();
    if (const JsonValue *existing = wallMs_.find(label)) {
        if (existing->isObject())
            entry = *existing;
        else if (existing->isNumber())
            entry.set("total", *existing);
    }
    entry.set(key, JsonValue::number(value));
    wallMs_.set(label, std::move(entry));
}

void
BenchReport::metricStat(const std::string &label, const std::string &key,
                        double value)
{
    JsonValue job = JsonValue::object();
    if (const JsonValue *existing = metricsStats_.find(label))
        job = *existing;
    job.set(key, JsonValue::number(value));
    metricsStats_.set(label, std::move(job));
}

JsonValue
BenchReport::toJson() const
{
    JsonValue doc = JsonValue::object();
    doc.set("schema_version", JsonValue::number(1));
    doc.set("bench", JsonValue::string(name_));
    doc.set("config", config_);
    JsonValue runs = JsonValue::array();
    for (const auto &run : runs_)
        runs.append(run->toJson());
    doc.set("runs", std::move(runs));
    doc.set("speedups", speedups_);
    if (wallMs_.size())
        doc.set("wall_ms", wallMs_);
    if (metricsStats_.size())
        doc.set("metrics", metricsStats_);
    return doc;
}

std::string
BenchReport::outputPath() const
{
    std::string path;
    if (const char *dir = std::getenv("MITOSIM_BENCH_DIR");
        dir && *dir) {
        path = dir;
        if (path.back() != '/')
            path += '/';
    }
    return path + "BENCH_" + name_ + ".json";
}

bool
BenchReport::write() const
{
    const std::string path = outputPath();
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "BenchReport: cannot open %s\n",
                     path.c_str());
        return false;
    }
    const std::string text = str();
    bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
    ok = std::fclose(f) == 0 && ok;
    if (!ok)
        std::fprintf(stderr, "BenchReport: short write to %s\n",
                     path.c_str());
    return ok;
}

/// @}

} // namespace mitosim::bench
