/**
 * @file
 * In-memory span recorder for the traced run. Spans are taken in the
 * benchmark's own code around each call into a layer of the program
 * (name, layer, start, end, parent, request id), kept in memory and
 * written out as JSON lines when the run ends. With tracing off a
 * Span costs one branch.
 */

#ifndef PERFBENCH_TRACE_HPP
#define PERFBENCH_TRACE_HPP

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

struct SpanRecord
{
    const char *name = "";  ///< the called function
    const char *layer = ""; ///< repo module the function belongs to
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::int64_t parent = -1; ///< index of the enclosing span
    std::string requestId;    ///< spans of one request share it
};

class Tracer
{
  public:
    static Tracer &global();

    bool enabled() const { return enabled_; }
    void enable(bool on) { enabled_ = on; }

    /** Open a span on this thread; returns its index. */
    std::int64_t open(const char *name, const char *layer,
                      const std::string &requestId);
    void close(std::int64_t index);

    /** Record a finished span measured elsewhere (no nesting). */
    void add(const char *name, const char *layer, std::int64_t startNs,
             std::int64_t endNs, const std::string &requestId);

    std::size_t size() const;
    /** Drop every recorded span (none may be open). */
    void clear();

    /**
     * Self time per layer, ms: each span's duration minus the part of
     * its interval covered by its child spans.
     */
    std::map<std::string, double> selfMsByLayer() const;

    /** Write every span as one JSON object per line. */
    bool write(const std::string &path) const;

  private:
    bool enabled_ = false;
    mutable std::mutex mutex_;
    std::vector<SpanRecord> spans_;
};

/** RAII span; inert when tracing is off. */
class Span
{
  public:
    Span(const char *name, const char *layer,
         const std::string &requestId = std::string())
    {
        Tracer &t = Tracer::global();
        if (t.enabled())
            index_ = t.open(name, layer, requestId);
    }
    ~Span()
    {
        if (index_ >= 0)
            Tracer::global().close(index_);
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    std::int64_t index_ = -1;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HPP
