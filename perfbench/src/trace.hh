/**
 * @file
 * In-memory span recorder for the traced run.
 *
 * The benchmark records a span around each call it makes into a
 * layer's public functions: name, start, end, the span that caused
 * it, and a trace id shared by every span of one request (serve) or
 * one shard (Monte-Carlo).  Spans stay in memory while the run is
 * timed and are written as JSON lines when the benchmark ends.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** Monotonic clock reading in nanoseconds. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Nanoseconds as seconds. */
inline double
seconds(std::int64_t ns)
{
    return static_cast<double>(ns) * 1e-9;
}

struct Span
{
    std::uint64_t trace = 0;  //!< request index or shard id
    std::uint32_t id = 0;     //!< 1-based; 0 means "no span"
    std::uint32_t parent = 0; //!< causing span, 0 for a root
    const char *name = "";    //!< layer-qualified, static storage
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
};

class SpanRecorder
{
  public:
    /** A disabled recorder keeps nothing: open() and add() return 0
     *  and finish() does nothing, so the same code runs untraced. */
    explicit SpanRecorder(bool enabled = true) : enabled_(enabled) {}

    /** Record a finished span; returns its id for children. */
    std::uint32_t add(const char *name, std::uint64_t trace,
                      std::uint32_t parent, std::int64_t startNs,
                      std::int64_t endNs);

    /** Reserve an id for a span whose end is not known yet; finish()
     *  fills it in.  Lets children name their parent while it runs. */
    std::uint32_t open(const char *name, std::uint64_t trace,
                       std::uint32_t parent, std::int64_t startNs);
    void finish(std::uint32_t id, std::int64_t endNs);

    const std::vector<Span> &spans() const { return spans_; }

    /** Write every span as one JSON object per line; false on an I/O
     *  error. */
    bool writeJsonl(const std::string &path) const;

  private:
    bool enabled_;
    std::vector<Span> spans_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
