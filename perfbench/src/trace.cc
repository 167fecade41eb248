#include "trace.hh"

#include <cstdio>

namespace perfbench {

std::uint32_t
SpanRecorder::add(const char *name, std::uint64_t trace,
                  std::uint32_t parent, std::int64_t startNs,
                  std::int64_t endNs)
{
    if (!enabled_)
        return 0;
    const std::uint32_t id = open(name, trace, parent, startNs);
    finish(id, endNs);
    return id;
}

std::uint32_t
SpanRecorder::open(const char *name, std::uint64_t trace,
                   std::uint32_t parent, std::int64_t startNs)
{
    if (!enabled_)
        return 0;
    Span s;
    s.trace = trace;
    s.id = static_cast<std::uint32_t>(spans_.size() + 1);
    s.parent = parent;
    s.name = name;
    s.startNs = startNs;
    s.endNs = startNs;
    spans_.push_back(s);
    return s.id;
}

void
SpanRecorder::finish(std::uint32_t id, std::int64_t endNs)
{
    if (id != 0)
        spans_[id - 1].endNs = endNs;
}

bool
SpanRecorder::writeJsonl(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    for (const Span &s : spans_)
        std::fprintf(f,
                     "{\"trace\":%llu,\"id\":%u,\"parent\":%u,"
                     "\"name\":\"%s\",\"start_ns\":%lld,"
                     "\"end_ns\":%lld}\n",
                     static_cast<unsigned long long>(s.trace), s.id,
                     s.parent, s.name,
                     static_cast<long long>(s.startNs),
                     static_cast<long long>(s.endNs));
    const bool ok = std::ferror(f) == 0;
    return std::fclose(f) == 0 && ok;
}

} // namespace perfbench
