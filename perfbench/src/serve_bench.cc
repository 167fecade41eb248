#include "serve_bench.hh"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <memory>
#include <set>
#include <thread>
#include <unordered_map>

#include "src/service/dispatcher.hh"
#include "src/service/job_service.hh"
#include "src/service/validation.hh"
#include "src/service/wire.hh"
#include "stats.hh"

namespace perfbench {

using namespace traq;

namespace {

/** Answers compared in-process per session. */
constexpr std::size_t kSampleClosedForm = 32;
constexpr std::size_t kSampleMc = 4;

est::EstimateRequest
requestOf(const std::string &line)
{
    service::ParsedLine parsed = service::parseRequestLine(line);
    TRAQ_REQUIRE(parsed.error.empty() && parsed.requests.size() == 1,
                 "benchmark line is not one request: " + line);
    return std::move(parsed.requests.front());
}

/** Runs `body` on a thread; rethrows its exception on join. */
class Feeder
{
  public:
    template <typename F>
    explicit Feeder(F body)
        : thread_([this, body] {
              try {
                  body();
              } catch (...) {
                  error_ = std::current_exception();
              }
          })
    {}
    ~Feeder()
    {
        if (thread_.joinable())
            thread_.join();
    }
    Feeder(const Feeder &) = delete;
    Feeder &operator=(const Feeder &) = delete;

    void join()
    {
        thread_.join();
        if (error_)
            std::rethrow_exception(error_);
    }

  private:
    std::exception_ptr error_;
    std::thread thread_;
};

} // namespace

std::vector<std::size_t>
sampleIndices(const Stream &stream, std::uint64_t seed)
{
    std::vector<std::size_t> mc, closedForm;
    for (std::size_t i = 0; i < stream.size(); ++i)
        (stream.isMc[i] ? mc : closedForm).push_back(i);
    std::uint64_t state = seed;
    std::set<std::size_t> picked;
    auto pick = [&](const std::vector<std::size_t> &from,
                    std::size_t n) {
        n = std::min(n, from.size());
        for (std::size_t added = 0; added < n;)
            added += picked
                         .insert(from[splitmix64(state) % from.size()])
                         .second;
    };
    pick(closedForm, kSampleClosedForm);
    pick(mc, kSampleMc);
    return {picked.begin(), picked.end()};
}

ServeTimer::ServeTimer(const Stream &stream, std::uint64_t seed,
                       std::string servePath, int probesPerSession)
    : stream_(stream), servePath_(std::move(servePath)),
      probesPerSession_(probesPerSession)
{
    t_.sample = sampleIndices(stream, seed);
    probe_.lines = {stream.lines.front()};
    probe_.isMc = {stream.isMc.front()};
    probe_.closed = 1;
}

void
ServeTimer::step()
{
    for (int p = 0; p < probesPerSession_; ++p) {
        SessionResult r =
            runSession(servePath_, kServeThreads, probe_, 1, 1.0, {});
        t_.probeSetupS.push_back(r.setupS);
        t_.sessions.push_back(std::move(r));
    }
    const StreamSpec &spec = serveStream();
    t_.sessions.push_back(runSession(servePath_, kServeThreads, stream_,
                                     spec.window, spec.openRate,
                                     t_.sample));
    ++full_;
}

void
checkServe(const Stream &stream, const ServeTimed &t, Report &report)
{
    service::JobQueueOptions opts;
    opts.threads = 1;
    service::JobService reference(opts);
    std::unordered_map<std::size_t, std::string> expected;
    for (std::size_t i : t.sample)
        expected[i] =
            reference.wait(reference.submit(requestOf(stream.lines[i])))
                .toJson();

    for (const SessionResult &s : t.sessions) {
        std::string problem = s.problem;
        for (const auto &[i, payload] : s.sampled)
            if (problem.empty() && payload != expected.at(i))
                problem = "answer to line " + std::to_string(i) +
                          " differs from the in-process evaluation";
        // A full session must have returned every sampled answer.
        if (problem.empty() && s.sent == stream.size() &&
            s.sampled.size() != t.sample.size())
            problem = "sampled answers missing";
        report.operations(std::max<std::size_t>(s.sent, 1), problem);
    }
}

namespace {

/** Each line through the service layers' public functions, a span
 *  per call; repeats skip evaluation as the result cache would.
 *  Returns the summed estimator evaluation time in seconds. */
double
tracePerCall(const Stream &stream, SpanRecorder &spans, Report &report)
{
    auto pool = std::make_shared<service::EstimatorPool>();
    const service::Validator validator(pool, true);
    std::unordered_map<std::string, service::JobOutcome> cache;
    // Per-call times; medians keep first-call costs out of the
    // figures.
    std::vector<double> parseUs, validateUs, emitUs, closedFormUs,
        mcMs;
    std::int64_t evaluateNs = 0;
    std::string problem;
    for (std::size_t i = 0; i < stream.size(); ++i) {
        const std::int64_t t0 = nowNs();
        const std::uint32_t root =
            spans.open("service.request", i, 0, t0);
        service::ParsedLine parsed =
            service::parseRequestLine(stream.lines[i]);
        const std::int64_t t1 = nowNs();
        const service::Validated v =
            validator.validate(std::move(parsed.requests.at(0)));
        const std::int64_t t2 = nowNs();
        spans.add("service.parse", i, root, t0, t1);
        spans.add("service.validate", i, root, t1, t2);
        parseUs.push_back((t1 - t0) * 1e-3);
        validateUs.push_back((t2 - t1) * 1e-3);
        if (!v.ok() && problem.empty())
            problem = "line " + std::to_string(i) + " failed validation";

        auto it = cache.find(v.key);
        if (it == cache.end()) {
            service::JobOutcome o;
            const std::int64_t e0 = nowNs();
            try {
                o.result = pool->get(v.request.kind)->estimate(v.request);
                o.ok = true;
            } catch (const std::exception &e) {
                o.error = e.what();
                if (problem.empty())
                    problem = "line " + std::to_string(i) +
                              " failed: " + o.error;
            }
            const std::int64_t e1 = nowNs();
            spans.add("estimator.evaluate", i, root, e0, e1);
            evaluateNs += e1 - e0;
            if (stream.isMc[i])
                mcMs.push_back((e1 - e0) * 1e-6);
            else
                closedFormUs.push_back((e1 - e0) * 1e-3);
            it = cache.emplace(v.key, std::move(o)).first;
        }
        // Emitted as traq_serve would; only the cost is kept.
        const std::int64_t t3 = nowNs();
        const std::string tagged =
            service::wire::tagLine(i, it->second.toJson());
        const std::int64_t t4 = nowNs();
        spans.add("service.emit", i, root, t3, t4);
        spans.finish(root, t4);
        emitUs.push_back((t4 - t3) * 1e-3);
    }
    report.operations(stream.size(), problem);
    report.add("service.parse_us", median(parseUs), "us");
    report.add("service.validate_us", median(validateUs), "us");
    report.add("service.emit_us", median(emitUs), "us");
    report.add("estimator.closed_form_us", median(closedFormUs), "us");
    report.add("estimator.mc_request_ms", median(mcMs), "ms");
    return seconds(evaluateNs);
}

/** The closed-phase lines through an in-process JobService: what
 *  traq_serve's threads could do without the pipe and its serial
 *  parse/emit. */
void
traceInProcess(const Stream &stream, Report &report)
{
    service::JobQueueOptions opts;
    opts.threads = kServeThreads;
    service::JobService svc(opts);
    const std::int64_t start = nowNs();
    Feeder feeder([&] {
        for (std::size_t i = 0; i < stream.closed; ++i)
            svc.submit(requestOf(stream.lines[i]));
        svc.closeSubmissions();
    });
    std::size_t answered = 0, failed = 0;
    while (const auto id = svc.waitCompleted()) {
        const service::JobOutcome &o = svc.wait(*id);
        failed += !o.ok;
        answered += !service::wire::tagLine(*id, o.toJson()).empty();
    }
    feeder.join();
    const double dt = seconds(nowNs() - start);
    const service::JobQueueStats st = svc.stats();
    report.operations(stream.closed,
                      answered == stream.closed && failed == 0
                          ? ""
                          : "in-process JobService lost or failed "
                            "lines");
    report.add("service.inproc_rps", answered / dt, "1/s");
    report.add("service.cache_hit_ratio",
               static_cast<double>(st.cacheHits) /
                   static_cast<double>(st.submitted),
               "ratio");
}

/** One session through the binary: its wall-clock rate, open-loop
 *  latency, and the share of its CPU time that is not estimator
 *  evaluation (`evaluateS`, measured in-process on the same lines). */
void
traceSession(const Stream &stream, const std::string &servePath,
             double evaluateS, Report &report)
{
    const StreamSpec &spec = serveStream();
    const SessionResult s = runSession(servePath, kServeThreads, stream,
                                       spec.window, spec.openRate, {});
    report.operations(std::max<std::size_t>(s.sent, 1), s.problem);
    std::printf("service: cpu_us_per_line=%.6g evaluate_us_per_line=%.6g "
                "closed_rps=%.6g\n",
                s.childCpuS * 1e6 / static_cast<double>(stream.size()),
                evaluateS * 1e6 / static_cast<double>(stream.size()),
                s.closedRps);
    report.add("service.closed_rps", s.closedRps, "1/s");
    report.add("service.outside_eval_cpu_share",
               1.0 - evaluateS / s.childCpuS, "ratio");
    std::vector<double> lat = s.latencyMs;
    std::sort(lat.begin(), lat.end());
    report.add("service.latency_p50_ms", percentileSorted(lat, 50),
               "ms");
    report.add("service.latency_p99_ms", percentileSorted(lat, 99),
               "ms");
    report.add("service.generator_late_max_ms",
               s.generatorLateMaxMs, "ms");
}

/** The closed-phase lines through the 2-worker dispatcher. */
void
traceDispatcher(const Stream &stream, const std::string &servePath,
                Report &report)
{
    service::DispatcherOptions opts;
    opts.servePath = servePath;
    opts.workers = 2;
    std::string dispatchProblem;
    double rps = 0.0, blockedS = 0.0;
    try {
        service::Dispatcher disp(opts);
        std::int64_t blockedNs = 0;
        const std::int64_t start = nowNs();
        Feeder feeder([&] {
            for (std::size_t i = 0; i < stream.closed; ++i) {
                const std::int64_t t0 = nowNs();
                disp.submit(i, stream.lines[i]);
                blockedNs += nowNs() - t0;
            }
            disp.closeSubmissions();
        });
        std::vector<bool> seen(stream.closed, false);
        std::size_t answered = 0;
        while (const auto r = disp.waitResult()) {
            if (r->index >= stream.closed || seen[r->index] ||
                r->payload.rfind("{\"error\"", 0) == 0)
                dispatchProblem = "dispatcher answer " +
                                  std::to_string(r->index) +
                                  " unknown, repeated or an error";
            else
                seen[r->index] = true;
            ++answered;
        }
        feeder.join();
        rps = answered / seconds(nowNs() - start);
        blockedS = seconds(blockedNs);
        if (dispatchProblem.empty() && answered != stream.closed)
            dispatchProblem = "dispatcher lost lines";
    } catch (const std::exception &e) {
        dispatchProblem = std::string("dispatcher: ") + e.what();
    }
    report.operations(stream.closed, dispatchProblem);
    report.add("dispatch.rps_2w", rps, "1/s");
    report.add("dispatch.submit_blocked_s", blockedS, "s");
}

} // namespace

void
traceServe(const Stream &stream, const std::string &servePath,
           SpanRecorder &spans, Report &report)
{
    const double evaluateS = tracePerCall(stream, spans, report);
    traceInProcess(stream, report);
    traceSession(stream, servePath, evaluateS, report);
    traceDispatcher(stream, servePath, report);
}

} // namespace perfbench
