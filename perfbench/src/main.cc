/**
 * @file
 * traq_perfbench: one run of one benchmark workload.
 *
 *     traq_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                    --serve PATH/traq_serve [--trace-dir DIR]
 *
 * Untraced (--trace 0) it times the workload's Monte-Carlo half
 * (MonteCarloEngine runs) and serve half (traq_serve sessions) for
 * about S seconds, checks their outputs, and prints the end-to-end
 * metrics.  Traced (--trace 1) it prints the per-layer split instead
 * and writes the recorded spans to DIR.  Human-readable lines come
 * first; the last stdout line is the JSON result.  perfbench/run.py
 * builds this binary and is the command to run.
 */

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "mc_bench.hh"
#include "serve_bench.hh"
#include "stats.hh"
#include "stream.hh"
#include "workloads.hh"

extern char **environ;

namespace {

using namespace perfbench;

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string serve;
    std::string traceDir = ".";
};

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "traq_perfbench: %s\n"
                 "usage: traq_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 --serve PATH "
                 "[--trace-dir DIR]\n",
                 why);
    return 2;
}

template <typename T>
bool
parseNumber(std::string_view text, T &out)
{
    const auto [ptr, ec] =
        std::from_chars(text.data(), text.data() + text.size(), out);
    return ec == std::errc() && ptr == text.data() + text.size();
}

/** Drop every inherited TRAQ_* knob (threads, decoder, backend,
 *  dispatch, memo and cache tiers, cache file) so a stray shell
 *  variable cannot change a workload; traq_serve children inherit the
 *  scrubbed environment. */
void
scrubTraqEnv()
{
    std::vector<std::string> names;
    for (char **e = environ; *e != nullptr; ++e)
        if (std::strncmp(*e, "TRAQ_", 5) == 0)
            names.emplace_back(*e, std::strcspn(*e, "="));
    for (const std::string &n : names)
        ::unsetenv(n.c_str());
}

std::string
jsonNumber(double v)
{
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
}

void
printResult(const Report &report)
{
    std::string out = "{\"correct\":";
    out += report.problems.empty() ? "true" : "false";
    out += ",\"attempted\":" + std::to_string(report.attempted);
    out += ",\"failed\":" + std::to_string(report.failed);
    out += ",\"metrics\":{";
    for (std::size_t i = 0; i < report.metrics.size(); ++i) {
        const Metric &m = report.metrics[i];
        out += (i ? ",\"" : "\"") + m.name + "\":{\"value\":" +
               jsonNumber(m.value) + ",\"unit\":\"" + m.unit + "\"}";
    }
    out += "}}\n";
    std::fputs(out.c_str(), stdout);
}

std::vector<double>
pooledLatencies(const ServeTimed &t)
{
    std::vector<double> all;
    for (const SessionResult &s : t.sessions)
        all.insert(all.end(), s.latencyMs.begin(), s.latencyMs.end());
    std::sort(all.begin(), all.end());
    return all;
}

void
runUntraced(const Args &a, const Workload &w, const Stream &stream,
            std::uint64_t mcSeed, std::uint64_t sampleSeed,
            Report &report)
{
    McTimer mcTimer(w.mc, mcSeed);
    ServeTimer serveTimer(stream, sampleSeed, a.serve, w.probesPerSession);
    // The halves alternate in steps over the whole run, so that both
    // sample every phase of the machine's speed, which drifts over
    // seconds.  The next step goes to the half furthest behind its
    // share of the time; steps go on while the next one is expected
    // to end within --seconds, and until each half has what its
    // checks need.
    const double share[2] = {w.mcTimeShare, 1.0 - w.mcTimeShare};
    std::int64_t busyNs[2] = {0, 0};
    std::size_t steps[2] = {0, 0};
    const std::int64_t start = nowNs();
    while (true) {
        const int h = busyNs[0] / share[0] <= busyNs[1] / share[1] ? 0 : 1;
        const bool needed =
            mcTimer.runs() < 2 || serveTimer.fullSessions() < 1;
        const double expectedS =
            steps[h] ? seconds(busyNs[h]) / static_cast<double>(steps[h])
                     : 0.0;
        if (!needed && seconds(nowNs() - start) + expectedS > a.seconds)
            break;
        const std::int64_t t0 = nowNs();
        if (h == 0)
            mcTimer.step();
        else
            serveTimer.step();
        busyNs[h] += nowNs() - t0;
        ++steps[h];
    }

    const McTimed &mc = mcTimer.result();
    checkMc(w.mc, mc, report);
    std::printf("%s runs=%zu shots_per_s_per_run=",
                describeRun(mc.last).c_str(), mc.shotsPerS.size());
    for (double r : mc.shotsPerS)
        std::printf(" %.6g", r);
    std::printf("\n");
    const ServeTimed &sv = serveTimer.result();
    checkServe(stream, sv, report);

    std::vector<double> cpuUs, rps, rss;
    for (const SessionResult &s : sv.sessions)
        if (s.sent == stream.size()) {
            cpuUs.push_back(s.childCpuS * 1e6 /
                            static_cast<double>(stream.size()));
            rps.push_back(s.closedRps);
            rss.push_back(s.childPeakRssMb);
        }
    const std::vector<double> lat = pooledLatencies(sv);
    const double tail = highestResolvedPercentile(lat.size());
    std::printf("serve: sessions=%zu lines_per_session=%zu "
                "latency_samples=%zu p50_ms=%.6g",
                rps.size(), stream.size(), lat.size(),
                percentileSorted(lat, 50));
    // The highest percentile with at least ten samples beyond it.
    if (tail > 50)
        std::printf(" p%g_ms=%.6g", tail, percentileSorted(lat, tail));
    std::printf(" closed_rps_median=%.6g rps_per_session=", median(rps));
    for (double r : rps)
        std::printf(" %.6g", r);
    std::printf(" cpu_us_per_session=");
    for (double c : cpuUs)
        std::printf(" %.6g", c);
    std::printf("\n");

    report.add("mc_shots_per_s", median(mc.shotsPerS), "1/s");
    report.add("serve_cpu_us_per_line", median(cpuUs), "us");
    const bool service = w.probesPerSession > 0;
    report.add("setup_s",
               median(service ? sv.probeSetupS : mc.setupS), "s");
    report.add("peak_rss_mb", service ? median(rss) : mc.peakRssMb,
               "MB");
}

void
runTraced(const Args &a, const Workload &w, const Stream &stream,
          std::uint64_t mcSeed, Report &report)
{
    SpanRecorder spans;
    traceMc(w.mc, mcSeed, a.seconds * w.mcTimeShare, spans, report);
    traceServe(stream, a.serve, spans, report);
    const std::string path = a.traceDir + "/" + w.name + "-seed" +
                             std::to_string(a.seed) + ".spans.jsonl";
    if (spans.writeJsonl(path))
        std::printf("spans: %zu written to %s\n", spans.spans().size(),
                    path.c_str());
    else
        report.problems.push_back("cannot write spans to " + path);
}

} // namespace

int
main(int argc, char **argv)
{
    Args a;
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string_view key = argv[i], value = argv[i + 1];
        if (key == "--workload")
            a.workload = value;
        else if (key == "--seed")
            haveSeed = parseNumber(value, a.seed);
        else if (key == "--seconds")
            haveSeconds = parseNumber(value, a.seconds) &&
                          a.seconds > 0 && std::isfinite(a.seconds);
        else if (key == "--trace") {
            haveTrace = value == "0" || value == "1";
            a.trace = value == "1";
        }
        else if (key == "--serve")
            a.serve = value;
        else if (key == "--trace-dir")
            a.traceDir = value;
        else
            return usage("unknown argument");
    }
    if (argc % 2 == 0)
        return usage("arguments come in --key value pairs");
    const Workload *w = findWorkload(a.workload);
    if (w == nullptr)
        return usage("unknown --workload");
    if (!haveSeed || !haveSeconds || !haveTrace || a.serve.empty())
        return usage("--seed, --seconds, --trace and --serve are "
                     "required");
    scrubTraqEnv();

    try {
        const std::uint64_t mcSeed = deriveSeed(a.seed, 1);
        const Stream stream =
            makeStream(serveStream(), deriveSeed(a.seed, 2));
        std::printf("workload: %s seed=%llu trace=%d\n", w->name.c_str(),
                    static_cast<unsigned long long>(a.seed),
                    a.trace ? 1 : 0);
        std::printf("inputs: lines=%zu unique_key_ratio=%.6g "
                    "mc_share=%.6g repeats=%zu mc_seed=%llu\n",
                    stream.size(), stream.uniqueRatio(), stream.mcShare(),
                    stream.repeatLines,
                    static_cast<unsigned long long>(mcSeed));

        Report report;
        if (a.trace)
            runTraced(a, *w, stream, mcSeed, report);
        else
            runUntraced(a, *w, stream, mcSeed, deriveSeed(a.seed, 3),
                        report);

        for (Metric &m : report.metrics) {
            if (!std::isfinite(m.value)) {
                report.problems.push_back(m.name + " is not finite");
                m.value = 0.0;
            }
            std::printf("%-34s %.6g %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
        }
        for (const std::string &p : report.problems)
            std::printf("CHECK FAILED: %s\n", p.c_str());
        std::fflush(stdout);
        printResult(report);
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "traq_perfbench: %s\n", e.what());
        return 1;
    }
}
