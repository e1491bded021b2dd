#include "trace.hpp"

#include <algorithm>
#include <fstream>

#include "bench.hpp"
#include "ruby/serve/json.hpp"

namespace perfbench
{

namespace
{

/** Innermost open span of this thread (for parent links). */
thread_local std::int64_t tCurrent = -1;

} // namespace

Tracer &
Tracer::global()
{
    static Tracer tracer;
    return tracer;
}

std::int64_t
Tracer::open(const char *name, const char *layer,
             const std::string &requestId)
{
    SpanRecord rec;
    rec.name = name;
    rec.layer = layer;
    rec.parent = tCurrent;
    rec.requestId = requestId;
    std::int64_t index;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (rec.requestId.empty() && rec.parent >= 0)
            rec.requestId =
                spans_[static_cast<std::size_t>(rec.parent)].requestId;
        index = static_cast<std::int64_t>(spans_.size());
        spans_.push_back(std::move(rec));
    }
    tCurrent = index;
    const std::int64_t start = nowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(index)].startNs = start;
    return index;
}

void
Tracer::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.clear();
}

void
Tracer::close(std::int64_t index)
{
    const std::int64_t end = nowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    SpanRecord &rec = spans_[static_cast<std::size_t>(index)];
    rec.endNs = end;
    tCurrent = rec.parent;
}

void
Tracer::add(const char *name, const char *layer, std::int64_t startNs,
            std::int64_t endNs, const std::string &requestId)
{
    SpanRecord rec;
    rec.name = name;
    rec.layer = layer;
    rec.startNs = startNs;
    rec.endNs = endNs;
    rec.requestId = requestId;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(rec));
}

std::size_t
Tracer::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
}

std::map<std::string, double>
Tracer::selfMsByLayer() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::vector<std::size_t>> children(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        if (spans_[i].parent >= 0)
            children[static_cast<std::size_t>(spans_[i].parent)]
                .push_back(i);
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord &s = spans_[i];
        // Union of the children's intervals, clipped to the parent.
        std::vector<std::pair<std::int64_t, std::int64_t>> iv;
        for (const std::size_t c : children[i])
            iv.emplace_back(std::max(spans_[c].startNs, s.startNs),
                            std::min(spans_[c].endNs, s.endNs));
        std::sort(iv.begin(), iv.end());
        std::int64_t covered = 0;
        std::int64_t reach = s.startNs;
        for (const auto &[a, b] : iv) {
            const std::int64_t from = std::max(a, reach);
            if (b > from) {
                covered += b - from;
                reach = b;
            }
        }
        out[s.layer] +=
            static_cast<double>(s.endNs - s.startNs - covered) / 1e6;
    }
    return out;
}

bool
Tracer::write(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream os(path);
    if (!os)
        return false;
    using ruby::serve::JsonValue;
    for (const SpanRecord &s : spans_) {
        JsonValue o = JsonValue::makeObject();
        o.set("name", JsonValue::makeString(s.name));
        o.set("layer", JsonValue::makeString(s.layer));
        o.set("start_ns", JsonValue::makeI64(s.startNs));
        o.set("end_ns", JsonValue::makeI64(s.endNs));
        o.set("parent", JsonValue::makeI64(s.parent));
        o.set("request", JsonValue::makeString(s.requestId));
        os << ruby::serve::writeJson(o) << '\n';
    }
    return static_cast<bool>(os);
}

} // namespace perfbench
