#include "serve_session.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <mutex>
#include <string_view>
#include <thread>

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "src/common/assert.hh"
#include "src/service/wire.hh"
#include "trace.hh"

extern char **environ;

namespace perfbench {

namespace {

/** No answer for this long means the child is stuck: kill it. */
constexpr std::chrono::seconds kStallLimit{60};

bool
writeAll(int fd, std::string_view data)
{
    while (!data.empty()) {
        const ssize_t n = ::write(fd, data.data(), data.size());
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        data.remove_prefix(static_cast<std::size_t>(n));
    }
    return true;
}

/** Answers as the reader thread sees them; guarded by `mu`. */
struct Answers
{
    std::mutex mu;
    std::condition_variable cv;
    std::size_t count = 0;
    bool eof = false;

    /** Wait until `target` answers arrived; false on EOF or stall. */
    bool waitFor(std::size_t target)
    {
        std::unique_lock<std::mutex> lock(mu);
        std::size_t last = count;
        while (count < target && !eof) {
            if (!cv.wait_for(lock, kStallLimit,
                             [&] { return count != last || eof; }))
                return false;
            last = count;
        }
        return count >= target;
    }
};

/** Reads tagged answer lines until EOF (reader-thread side). */
struct Reader
{
    std::vector<bool> inSample;
    std::vector<std::int64_t> recvNs; //!< -1 until answered
    std::map<std::size_t, std::string> sampled;
    std::string problem;
    Answers &answers;

    void onLine(std::string_view line, std::int64_t now)
    {
        if (!problem.empty())
            return;
        traq::service::wire::TaggedLine tl;
        try {
            tl = traq::service::wire::splitTagged(line);
        } catch (const std::exception &e) {
            problem = std::string("unparseable answer: ") + e.what();
            return;
        }
        if (tl.index >= recvNs.size()) {
            problem = "answer for unknown index " +
                      std::to_string(tl.index);
        } else if (recvNs[tl.index] >= 0) {
            problem = "index " + std::to_string(tl.index) +
                      " answered twice";
        } else if (tl.payload.rfind("{\"error\"", 0) == 0) {
            problem = "error answer for index " +
                      std::to_string(tl.index) + ": " + tl.payload;
        } else {
            recvNs[tl.index] = now;
            if (inSample[tl.index])
                sampled.emplace(tl.index, std::move(tl.payload));
        }
    }

    void run(int fd)
    {
        std::string pending;
        char buf[1 << 16];
        while (true) {
            const ssize_t n = ::read(fd, buf, sizeof buf);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                break;
            const std::int64_t now = nowNs();
            pending.append(buf, static_cast<std::size_t>(n));
            std::size_t start = 0, nl, lines = 0;
            while ((nl = pending.find('\n', start)) !=
                   std::string::npos) {
                onLine(std::string_view(pending).substr(
                           start, nl - start),
                       now);
                start = nl + 1;
                ++lines;
            }
            pending.erase(0, start);
            if (lines) {
                std::lock_guard<std::mutex> lock(answers.mu);
                answers.count += lines;
            }
            answers.cv.notify_all();
        }
        {
            std::lock_guard<std::mutex> lock(answers.mu);
            answers.eof = true;
        }
        answers.cv.notify_all();
    }
};

} // namespace

SessionResult
runSession(const std::string &servePath, unsigned threads,
           const Stream &stream, std::size_t window, double openRate,
           const std::vector<std::size_t> &sample)
{
    // A child that dies mid-write must surface as a failed write,
    // not kill the benchmark.
    std::signal(SIGPIPE, SIG_IGN);
    TRAQ_REQUIRE(stream.closed >= 1 && stream.closed <= stream.size(),
                 "session needs a set-up probe line");
    TRAQ_REQUIRE(window >= 1 && openRate > 0.0,
                 "session needs a window and an open-loop rate");

    SessionResult out;
    int toChild[2], fromChild[2];
    TRAQ_REQUIRE(::pipe2(toChild, O_CLOEXEC) == 0 &&
                     ::pipe2(fromChild, O_CLOEXEC) == 0,
                 "pipe2 failed");
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, toChild[0], 0);
    posix_spawn_file_actions_adddup2(&fa, fromChild[1], 1);
    const std::string threadArg = std::to_string(threads);
    std::vector<char *> argv = {const_cast<char *>(servePath.c_str()),
                                const_cast<char *>("--threads"),
                                const_cast<char *>(threadArg.c_str()),
                                nullptr};
    pid_t pid = -1;
    const std::int64_t spawnNs = nowNs();
    const int rc = posix_spawn(&pid, servePath.c_str(), &fa, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    ::close(toChild[0]);
    ::close(fromChild[1]);
    if (rc != 0) {
        ::close(toChild[1]);
        ::close(fromChild[0]);
        out.problem = "cannot spawn " + servePath;
        return out;
    }

    Answers answers;
    Reader reader{std::vector<bool>(stream.size(), false),
                  std::vector<std::int64_t>(stream.size(), -1),
                  {}, {}, answers};
    for (std::size_t i : sample)
        if (i < stream.size())
            reader.inSample[i] = true;
    std::thread readerThread([&] { reader.run(fromChild[0]); });

    const int in = toChild[1];
    auto send = [&](std::size_t from, std::size_t to) {
        std::string buf;
        for (std::size_t i = from; i < to; ++i) {
            buf += stream.lines[i];
            buf += '\n';
        }
        out.sent = to;
        return writeAll(in, buf);
    };

    std::string failure;
    // 1. Set-up probe.
    if (!send(0, 1) || !answers.waitFor(1))
        failure = "no answer to the set-up probe";
    else
        out.setupS = seconds(nowNs() - spawnNs);

    // 2. Closed phase: keep up to `window` lines unanswered.
    const std::int64_t closedStart = nowNs();
    std::size_t next = 1;
    while (failure.empty() && next < stream.closed) {
        std::size_t answered;
        {
            std::unique_lock<std::mutex> lock(answers.mu);
            answers.cv.wait_for(lock, kStallLimit, [&] {
                return next - answers.count < window || answers.eof;
            });
            answered = answers.count;
        }
        if (next - answered >= window) {
            failure = "closed phase stalled";
            break;
        }
        const std::size_t to =
            std::min(stream.closed, answered + window);
        if (!send(next, to))
            failure = "write to traq_serve failed";
        next = to;
    }
    if (failure.empty() && !answers.waitFor(stream.closed))
        failure = "closed phase did not complete";
    if (failure.empty())
        out.closedRps = static_cast<double>(stream.closed - 1) /
                        seconds(nowNs() - closedStart);

    // 3. Open loop at a fixed rate, batching lines already due.
    const std::int64_t openStart = nowNs();
    const double periodNs = 1e9 / openRate;
    auto due = [&](std::size_t i) {
        return openStart + static_cast<std::int64_t>(
                               static_cast<double>(i - stream.closed) *
                               periodNs);
    };
    std::int64_t lateMaxNs = 0;
    while (failure.empty() && next < stream.size()) {
        const std::int64_t now = nowNs();
        if (due(next) > now) {
            std::this_thread::sleep_for(
                std::chrono::nanoseconds(due(next) - now));
            continue;
        }
        std::size_t to = next;
        while (to < stream.size() && due(to) <= now)
            ++to;
        if (!send(next, to))
            failure = "write to traq_serve failed";
        lateMaxNs = std::max(lateMaxNs, nowNs() - due(next));
        next = to;
    }
    if (failure.empty() && !answers.waitFor(stream.size()))
        failure = "open loop did not complete";

    if (!failure.empty())
        ::kill(pid, SIGKILL);
    ::close(in);
    readerThread.join();
    ::close(fromChild[0]);
    int status = 0;
    struct rusage ru = {};
    while (::wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
    }
    out.childPeakRssMb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    out.childCpuS = static_cast<double>(ru.ru_utime.tv_sec) +
                    static_cast<double>(ru.ru_stime.tv_sec) +
                    static_cast<double>(ru.ru_utime.tv_usec +
                                        ru.ru_stime.tv_usec) *
                        1e-6;
    out.generatorLateMaxMs = lateMaxNs * 1e-6;

    if (failure.empty() && !reader.problem.empty())
        failure = reader.problem;
    if (failure.empty() &&
        !(WIFEXITED(status) && WEXITSTATUS(status) == 0))
        failure = "traq_serve exited abnormally";
    if (failure.empty())
        for (std::size_t i = 0; i < stream.size(); ++i)
            if (reader.recvNs[i] < 0) {
                failure = "index " + std::to_string(i) +
                          " never answered";
                break;
            }
    out.problem = failure;
    if (failure.empty())
        for (std::size_t i = stream.closed; i < stream.size(); ++i)
            out.latencyMs.push_back((reader.recvNs[i] - due(i)) * 1e-6);
    out.sampled = std::move(reader.sampled);
    return out;
}

} // namespace perfbench
