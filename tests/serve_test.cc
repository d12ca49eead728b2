/**
 * @file
 * Tests for the live serving stack: ServeEngine invariants (grid
 * decisions, warmup, bounded queue, error replies, stats JSON,
 * decision-log accounting), decision identity between the engine and a
 * hand-driven exact controller fed the same event stream, the
 * LatencyHistogram, and — when RUBIK_CLI points at the built binary —
 * the daemon lifecycle end to end: start, ping, replay producing a
 * decision hash byte-identical to the one-shot CLI's, well-formed
 * --stats, a SIGTERM shutdown that exits 0 and removes the socket, a
 * client streaming an over-long line being dropped without stalling
 * the others, pipelined and chunked streams answered exactly like an
 * in-process engine, a client that never reads its replies stalling
 * only itself, non-finite event times refused by the engine and the
 * daemon alike, and strict parsing of every subcommand's numeric
 * flags.
 */

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "core/rubik_controller.h"
#include "runner/subproc.h"
#include "serve/daemon.h"
#include "serve/serve_engine.h"
#include "stats/latency_histogram.h"
#include "util/rng.h"
#include "util/units.h"

namespace rubik {
namespace {

// ------------------------------------------------------------------
// LatencyHistogram

TEST(LatencyHistogram, BucketsCountsAndPercentiles)
{
    EXPECT_EQ(LatencyHistogram::bucketOf(0), 0u);
    EXPECT_EQ(LatencyHistogram::bucketOf(1), 0u);
    EXPECT_EQ(LatencyHistogram::bucketOf(2), 1u);
    EXPECT_EQ(LatencyHistogram::bucketOf(3), 2u);
    EXPECT_EQ(LatencyHistogram::bucketOf(4), 2u);
    EXPECT_EQ(LatencyHistogram::bucketOf(5), 3u);
    // Samples at/above 2^63 (clz == 0) clamp into the top bucket
    // instead of indexing one past the array.
    EXPECT_EQ(LatencyHistogram::bucketOf(1ull << 63),
              LatencyHistogram::kBuckets - 1);
    EXPECT_EQ(LatencyHistogram::bucketOf(UINT64_MAX),
              LatencyHistogram::kBuckets - 1);

    LatencyHistogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.percentileNs(0.5), 0.0);
    for (uint64_t ns : {10u, 20u, 30u, 40u, 1000u})
        h.add(ns);
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.maxNs(), 1000u);
    EXPECT_DOUBLE_EQ(h.meanNs(), 220.0);
    // Percentiles are monotone and clamped to the observed max.
    double prev = 0.0;
    for (double q : {0.1, 0.5, 0.9, 0.99, 1.0}) {
        const double p = h.percentileNs(q);
        EXPECT_GE(p, prev);
        EXPECT_LE(p, 1000.0);
        prev = p;
    }

    LatencyHistogram other;
    other.add(5000);
    h.merge(other);
    EXPECT_EQ(h.count(), 6u);
    EXPECT_EQ(h.maxNs(), 5000u);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.maxNs(), 0u);
}

// ------------------------------------------------------------------
// ServeEngine

/// One event of a synthetic serving stream.
struct Event
{
    double t = 0.0;
    bool arrival = true;
    double cycles = 0.0; ///< completions: measured compute cycles
    double mem = 0.0;    ///< completions: measured memory time
};

/// Deterministic open-loop stream: Poisson-ish arrivals, FIFO
/// completions a service time later, merged into one time-ordered
/// event list spanning several update periods.
std::vector<Event>
makeStream(int requests, uint64_t seed)
{
    Rng rng(seed);
    std::vector<Event> arrivals(requests), completions(requests);
    double t = 0.0, done = 0.0;
    for (int i = 0; i < requests; ++i) {
        t += rng.uniform(5e-5, 2e-4);
        arrivals[i] = {t, true, 0.0, 0.0};
        // Service mean below the arrival gap mean: the queue drains,
        // ages stay inside the bound, and decisions actually vary
        // (an overloaded stream saturates at max frequency forever).
        const double service = rng.uniform(2e-5, 1e-4);
        done = std::max(done, t) + service;
        completions[i] = {done, false, rng.lognormal(13.0, 0.3),
                          rng.lognormal(-9.0, 0.3)};
    }
    std::vector<Event> events;
    events.reserve(2 * static_cast<std::size_t>(requests));
    std::size_t a = 0, c = 0;
    while (a < arrivals.size() || c < completions.size()) {
        // Completions only fire for already-arrived requests, so on a
        // tie the arrival goes first.
        if (a < arrivals.size() &&
            (c >= completions.size() || arrivals[a].t <= completions[c].t))
            events.push_back(arrivals[a++]);
        else
            events.push_back(completions[c++]);
    }
    return events;
}

ServeConfig
testConfig()
{
    ServeConfig cfg;
    cfg.latencyBound = 1.0 * kMs;
    cfg.updatePeriod = 10.0 * kMs;
    cfg.timeDecisions = false; // determinism over telemetry in tests
    return cfg;
}

TEST(ServeEngine, DecisionsStayOnTheGridAndWarmUp)
{
    const DvfsModel dvfs = DvfsModel::haswell();
    ServeEngine engine(dvfs, testConfig());
    EXPECT_FALSE(engine.warm());

    const std::vector<Event> events = makeStream(400, 9);
    const std::vector<double> &grid = dvfs.frequencies();
    uint64_t okEvents = 0;
    for (const Event &e : events) {
        const ServeDecision d =
            e.arrival ? engine.onArrival(e.t)
                      : engine.onCompletion(e.t, e.cycles, e.mem);
        ASSERT_TRUE(d.ok);
        ++okEvents;
        EXPECT_TRUE(std::find(grid.begin(), grid.end(), d.frequency) !=
                    grid.end())
            << "off-grid decision " << d.frequency;
    }
    EXPECT_TRUE(engine.warm());
    EXPECT_GE(engine.tableRebuilds(), 1u);
    EXPECT_EQ(engine.queueDepth(), 0u);
    // Every accepted event produced exactly one recorded decision.
    EXPECT_EQ(engine.decisionLog().count, okEvents);
    EXPECT_GT(engine.transitions(), 0u);
}

TEST(ServeEngine, CompletionOnEmptyQueueIsAnError)
{
    const DvfsModel dvfs = DvfsModel::haswell();
    ServeEngine engine(dvfs, testConfig());
    const ServeDecision d = engine.onCompletion(1e-3, 1e5, 1e-5);
    EXPECT_FALSE(d.ok);
    ASSERT_NE(d.error, nullptr);
    EXPECT_STREQ(d.error, "completion with empty queue");
    EXPECT_EQ(engine.decisionLog().count, 0u);
}

// A non-finite event time used to spin advanceTo's periodic-update
// catch-up forever (inf). The engine now refuses any non-finite time,
// cycles or memory time, changes nothing, and keeps serving. The calls
// run in a child under an alarm, so a regression fails instead of
// hanging the suite.
TEST(ServeEngine, NonFiniteEventsAreRefused)
{
    EXPECT_EXIT(
        {
            ::alarm(30);
            ServeEngine engine(DvfsModel::haswell(), testConfig());
            const double inf = std::numeric_limits<double>::infinity();
            const double nan = std::numeric_limits<double>::quiet_NaN();
            int bad = 0;
            const auto refused = [&bad](const ServeDecision &d) {
                bad += d.ok || d.error == nullptr;
            };
            refused(engine.onArrival(inf));
            refused(engine.onArrival(-inf));
            refused(engine.onArrival(nan));
            refused(engine.onArrival(1e-3, inf));
            bad += engine.queueDepth() != 0;
            bad += !engine.onArrival(1e-3).ok;
            refused(engine.onCompletion(inf, 1e5, 1e-5));
            refused(engine.onCompletion(2e-3, nan, 1e-5));
            refused(engine.onCompletion(2e-3, 1e5, -inf));
            bad += engine.queueDepth() != 1;
            bad += !engine.onCompletion(2e-3, 1e5, 1e-5).ok;
            bad += engine.decisionLog().count != 2;
            std::fprintf(stderr, "bad=%d\n", bad);
            std::exit(bad == 0 ? 0 : 1);
        },
        ::testing::ExitedWithCode(0), "bad=0");
}

TEST(ServeEngine, BoundedQueueRejectsOverflow)
{
    const DvfsModel dvfs = DvfsModel::haswell();
    ServeConfig cfg = testConfig();
    cfg.maxQueue = 4;
    ServeEngine engine(dvfs, cfg);
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(engine.onArrival(1e-5 * (i + 1)).ok);
    const ServeDecision d = engine.onArrival(5e-5);
    EXPECT_FALSE(d.ok);
    ASSERT_NE(d.error, nullptr);
    EXPECT_STREQ(d.error, "queue full");
    EXPECT_EQ(engine.queueDepth(), 4u);
    EXPECT_EQ(engine.decisionLog().count, 4u);
    EXPECT_NE(engine.statsJson().find("\"rejected\":1"),
              std::string::npos);
}

TEST(ServeEngine, DecisionTimingLandsInHistogram)
{
    const DvfsModel dvfs = DvfsModel::haswell();
    ServeConfig cfg = testConfig();
    cfg.timeDecisions = true;
    ServeEngine engine(dvfs, cfg);
    for (const Event &e : makeStream(100, 3)) {
        if (e.arrival)
            engine.onArrival(e.t);
        else
            engine.onCompletion(e.t, e.cycles, e.mem);
    }
    EXPECT_EQ(engine.decisionLatency().count(),
              engine.decisionLog().count);
    EXPECT_GT(engine.decisionLatency().maxNs(), 0u);
}

TEST(ServeEngine, StatsJsonIsWellFormed)
{
    const DvfsModel dvfs = DvfsModel::haswell();
    ServeEngine engine(dvfs, testConfig());
    for (const Event &e : makeStream(150, 5)) {
        if (e.arrival)
            engine.onArrival(e.t);
        else
            engine.onCompletion(e.t, e.cycles, e.mem);
    }
    const std::string json = engine.statsJson();
    ASSERT_FALSE(json.empty());
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
    int depth = 0;
    for (char ch : json) {
        if (ch == '{')
            ++depth;
        else if (ch == '}')
            --depth;
        ASSERT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
    for (const char *key :
         {"\"table_version\":", "\"warm\":", "\"internal_target_ms\":",
          "\"queue_depth\":", "\"frequency_ghz\":", "\"decisions\":",
          "\"decision_hash\":", "\"transitions\":", "\"latency_ns\":",
          "\"distilled\":", "\"rejected\":"}) {
        EXPECT_NE(json.find(key), std::string::npos) << key;
    }
}

// The engine is a stream-driven wrapper over the exact controller; a
// hand-driven mirror replicating its event ordering (periodic updates
// due before the event, then completion feed, then one decision) must
// see the identical frequency at every step.
TEST(ServeEngine, MatchesHandDrivenExactController)
{
    const DvfsModel dvfs = DvfsModel::haswell();
    const ServeConfig cfg = testConfig();
    ServeEngine engine(dvfs, cfg);

    RubikConfig rc;
    rc.latencyBound = cfg.latencyBound;
    rc.percentile = cfg.percentile;
    rc.updatePeriod = cfg.updatePeriod;
    rc.feedback = cfg.feedback;
    rc.table = cfg.table;
    RubikController mirror(dvfs, rc);
    std::deque<double> queue;
    std::vector<double> lane;
    std::vector<int> hints;
    double now = 0.0, elapsed = 0.0;
    double frequency = dvfs.maxFrequency();

    auto mirrorView = [&]() {
        lane.assign(queue.begin(), queue.end());
        hints.assign(queue.size(), -1);
        CoreView v;
        v.now = now;
        v.frequency = frequency;
        v.elapsedCycles = elapsed;
        v.count = lane.size();
        v.busy = !lane.empty();
        v.arrivals = lane.data();
        v.classHints = hints.data();
        v.dvfs = &dvfs;
        return v;
    };
    auto advanceTo = [&](double t) {
        while (mirror.nextPeriodicUpdate() <= t) {
            const double at = mirror.nextPeriodicUpdate();
            const double save = now;
            now = at;
            mirror.periodicUpdate(mirrorView());
            now = save;
        }
        if (t > now)
            now = t;
    };

    for (const Event &e : makeStream(400, 9)) {
        double got = 0.0, want = 0.0;
        if (e.arrival) {
            got = engine.onArrival(e.t).frequency;
            advanceTo(e.t);
            queue.push_back(e.t);
            elapsed = 0.0;
            want = mirror.selectFrequency(mirrorView());
        } else {
            got = engine.onCompletion(e.t, e.cycles, e.mem).frequency;
            advanceTo(e.t);
            CompletedRequest done;
            done.arrivalTime = queue.front();
            done.completionTime = e.t;
            done.computeCycles = e.cycles;
            done.memoryTime = e.mem;
            done.classHint = -1;
            queue.pop_front();
            elapsed = 0.0;
            mirror.onCompletion(done, mirrorView());
            want = mirror.selectFrequency(mirrorView());
        }
        frequency = want;
        ASSERT_EQ(got, want) << "diverged at t=" << e.t;
    }
    EXPECT_TRUE(engine.warm());
}

TEST(ServeEngine, DistilledModeTrainsAndServesFastPath)
{
    const DvfsModel dvfs = DvfsModel::haswell();
    ServeConfig cfg = testConfig();
    cfg.distill = true;
    ServeEngine engine(dvfs, cfg);
    ASSERT_NE(engine.distilled(), nullptr);
    EXPECT_FALSE(engine.distilled()->model().trained());

    const std::vector<double> &grid = dvfs.frequencies();
    for (const Event &e : makeStream(400, 9)) {
        const ServeDecision d =
            e.arrival ? engine.onArrival(e.t)
                      : engine.onCompletion(e.t, e.cycles, e.mem);
        ASSERT_TRUE(d.ok);
        EXPECT_TRUE(std::find(grid.begin(), grid.end(), d.frequency) !=
                    grid.end());
    }
    EXPECT_TRUE(engine.warm());
    EXPECT_TRUE(engine.distilled()->model().trained());
    EXPECT_GE(engine.distilled()->retrains(), 1u);
    EXPECT_GT(engine.distilled()->fastDecisions(), 0u);
    const std::string json = engine.statsJson();
    EXPECT_NE(json.find("\"enabled\":true"), std::string::npos);
    EXPECT_NE(json.find("\"trained\":true"), std::string::npos);
}

// ------------------------------------------------------------------
// Daemon lifecycle (needs the built CLI)

struct ScratchDir
{
    ScratchDir()
    {
        char tmpl[] = "/tmp/rubik_serve_test_XXXXXX";
        if (mkdtemp(tmpl))
            path = tmpl;
    }
    ~ScratchDir()
    {
        if (!path.empty()) {
            std::error_code ec;
            std::filesystem::remove_all(path, ec);
        }
    }
    std::string path;
};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

struct CommandResult
{
    int status = -1;
    std::string out;
    std::string err;
};

CommandResult
runCommand(const std::string &cmd, const std::string &dir,
           const std::string &tag)
{
    const std::string out = dir + "/" + tag + ".stdout";
    const std::string err = dir + "/" + tag + ".stderr";
    CommandResult r;
    r.status = waitCommand(spawnShellCommand(cmd, out, err));
    r.out = readFile(out);
    r.err = readFile(err);
    return r;
}

class ServeDaemonCli : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        const char *env = std::getenv("RUBIK_CLI");
        if (!env || !*env || !std::filesystem::exists(env))
            GTEST_SKIP() << "RUBIK_CLI not set or missing";
        cli = env;
        ASSERT_FALSE(scratch.path.empty());
        socketPath = scratch.path + "/daemon.sock";
    }

    void TearDown() override
    {
        if (daemonPid > 0) {
            int status = 0;
            if (!waitCommandFor(daemonPid, 0.0, &status))
                killCommandGroup(daemonPid);
            daemonPid = -1;
        }
    }

    /// Start the daemon and block until it answers ping.
    void startDaemon(const std::string &extraFlags)
    {
        // "exec": the pid must be the daemon itself (not a lingering
        // sh wrapper) so ::kill(pid, SIGTERM) exercises its handler.
        daemonPid = spawnShellCommand(
            "exec " + cli + " serve --socket " + socketPath +
                " --bound-ms 2 " + extraFlags,
            scratch.path + "/daemon.stdout",
            scratch.path + "/daemon.stderr");
        ASSERT_GT(daemonPid, 0);
        for (int i = 0; i < 200; ++i) {
            try {
                if (serveQuery(socketPath, "ping", 2.0) == "ok")
                    return;
            } catch (const std::exception &) {
            }
            int status = 0;
            ASSERT_FALSE(waitCommandFor(daemonPid, 0.0, &status))
                << "daemon died during startup: "
                << describeWaitStatus(status) << "\n"
                << readFile(scratch.path + "/daemon.stderr");
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
        FAIL() << "daemon never answered ping";
    }

    std::string cli;
    ScratchDir scratch;
    std::string socketPath;
    pid_t daemonPid = -1;
};

/// Pull `"key":"value"` out of a one-line JSON reply.
std::string
jsonStringField(const std::string &json, const std::string &key)
{
    const std::string needle = "\"" + key + "\":\"";
    const std::size_t at = json.find(needle);
    if (at == std::string::npos)
        return "";
    const std::size_t start = at + needle.size();
    const std::size_t end = json.find('"', start);
    return end == std::string::npos ? "" : json.substr(start, end - start);
}

TEST_F(ServeDaemonCli, ReplayMatchesOneShotAndShutsDownOnSigterm)
{
    const std::string tracePath = scratch.path + "/t.rtrace";
    const std::string gen = " --app masstree --load 0.4 --requests 1500"
                            " --seed 42";

    // 1. A class-annotated trace, generated exactly like the one-shot
    //    run's.
    CommandResult r = runCommand(
        cli + " trace gen --out " + tracePath + gen, scratch.path, "gen");
    ASSERT_TRUE(commandSucceeded(r.status)) << r.err;

    // 2. The one-shot reference hash for the same workload and bound.
    r = runCommand(cli + gen +
                       " --bound-ms 2 --policy rubik --decision-hash"
                       " --csv",
                   scratch.path, "oneshot");
    ASSERT_TRUE(commandSucceeded(r.status)) << r.err;
    std::istringstream csv(r.out);
    std::string header, row;
    ASSERT_TRUE(std::getline(csv, header));
    ASSERT_TRUE(std::getline(csv, row));
    ASSERT_NE(header.find(",decisions,decision_hash"),
              std::string::npos)
        << header;
    const std::string wantHash = row.substr(row.rfind(',') + 1);
    ASSERT_EQ(wantHash.size(), 16u) << row;

    // 3. Daemon replay of the same trace must reproduce the decision
    //    stream byte for byte — same hash, via the same runPolicy path.
    startDaemon("");
    const std::string reply =
        serveQuery(socketPath, "replay " + tracePath + " rubik", 60.0);
    ASSERT_EQ(reply.compare(0, 1, "{"), 0) << reply;
    EXPECT_EQ(jsonStringField(reply, "decision_hash"), wantHash)
        << reply;

    // 4. Live events answer with frequencies; errors answer with err.
    EXPECT_EQ(serveQuery(socketPath, "a 0.001").compare(0, 2, "f "), 0);
    EXPECT_EQ(serveQuery(socketPath, "c 0.002 5e5 1e-4")
                  .compare(0, 2, "f "),
              0);
    EXPECT_EQ(serveQuery(socketPath, "c 0.003 5e5 1e-4")
                  .compare(0, 4, "err "),
              0);
    EXPECT_EQ(serveQuery(socketPath, "bogus").compare(0, 4, "err "), 0);

    // 5. --stats is one well-formed JSON line (python validates in CI;
    //    here: brace balance plus the keys the gate greps for).
    r = runCommand(cli + " serve --socket " + socketPath + " --stats",
                   scratch.path, "stats");
    ASSERT_TRUE(commandSucceeded(r.status)) << r.err;
    const std::string stats = r.out.substr(0, r.out.find('\n'));
    ASSERT_FALSE(stats.empty());
    EXPECT_EQ(stats.front(), '{');
    EXPECT_EQ(stats.back(), '}');
    EXPECT_NE(stats.find("\"decisions\":"), std::string::npos);
    EXPECT_NE(stats.find("\"decision_hash\":"), std::string::npos);

    // 6. SIGTERM: clean exit 0, socket removed.
    ASSERT_EQ(::kill(daemonPid, SIGTERM), 0);
    int status = 0;
    ASSERT_TRUE(waitCommandFor(daemonPid, 30.0, &status))
        << "daemon ignored SIGTERM";
    daemonPid = -1;
    EXPECT_TRUE(commandSucceeded(status)) << describeWaitStatus(status);
    EXPECT_FALSE(std::filesystem::exists(socketPath));
}

TEST_F(ServeDaemonCli, ShutdownCommandExitsCleanly)
{
    startDaemon("--distill --age-buckets 512");
    EXPECT_EQ(serveQuery(socketPath, "shutdown"), "ok");
    int status = 0;
    ASSERT_TRUE(waitCommandFor(daemonPid, 30.0, &status));
    daemonPid = -1;
    EXPECT_TRUE(commandSucceeded(status)) << describeWaitStatus(status);
    EXPECT_FALSE(std::filesystem::exists(socketPath));
}

/// Raw client connection with 2 s send/receive timeouts (-1 on error).
int
connectWithTimeouts(const std::string &path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path))
        return -1;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    timeval tv{2, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

/// Send `bytes` newline-free bytes; stops early once the peer is gone.
void
sendFiller(int fd, std::size_t bytes)
{
    const std::string chunk(4096, 'x');
    while (bytes > 0) {
        const std::size_t len = std::min(bytes, chunk.size());
        const ssize_t n = ::send(fd, chunk.data(), len, MSG_NOSIGNAL);
        if (n <= 0)
            return;
        bytes -= static_cast<std::size_t>(n);
    }
}

TEST_F(ServeDaemonCli, OverlongLineClientIsDroppedOthersStillServed)
{
    startDaemon("");
    // The daemon's line cap is 64 KiB.
    constexpr std::size_t kCap = 64 * 1024;
    const int hog = connectWithTimeouts(socketPath);
    ASSERT_GE(hog, 0);

    // Half a cap of pending line: the daemon buffers it and keeps
    // serving everyone else.
    sendFiller(hog, kCap / 2);
    EXPECT_EQ(serveQuery(socketPath, "ping", 2.0), "ok");

    // Past the cap: the hog is answered and dropped.
    sendFiller(hog, 4 * kCap);
    std::string reply;
    char buf[256];
    ssize_t n;
    while ((n = ::read(hog, buf, sizeof buf)) > 0)
        reply.append(buf, static_cast<std::size_t>(n));
    // EOF, or ECONNRESET for the filler the daemon never read; a
    // timeout (EAGAIN) means the hog was never dropped.
    EXPECT_TRUE(n == 0 || errno == ECONNRESET)
        << "read: " << std::strerror(errno);
    ::close(hog);
    EXPECT_EQ(reply, "err line too long\n");
    EXPECT_EQ(serveQuery(socketPath, "ping", 2.0), "ok");
}

/// Read from `fd` until `want` newline-terminated lines have arrived,
/// the peer closes, or `seconds` pass; returns the lines read.
std::vector<std::string>
readLines(int fd, std::size_t want, double seconds)
{
    std::vector<std::string> lines;
    std::string pending;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(seconds);
    char buf[65536];
    while (lines.size() < want &&
           std::chrono::steady_clock::now() < deadline) {
        pollfd p{fd, POLLIN, 0};
        if (::poll(&p, 1, 100) <= 0)
            continue;
        const ssize_t n = ::read(fd, buf, sizeof buf);
        if (n <= 0)
            break;
        pending.append(buf, static_cast<std::size_t>(n));
        std::size_t start = 0, nl;
        while ((nl = pending.find('\n', start)) != std::string::npos) {
            lines.emplace_back(pending, start, nl - start);
            start = nl + 1;
        }
        pending.erase(0, start);
    }
    return lines;
}

/// Send all of `data`; false once the peer is gone.
bool
sendAll(int fd, const char *data, std::size_t size)
{
    while (size > 0) {
        const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
        if (n <= 0)
            return false;
        data += n;
        size -= static_cast<std::size_t>(n);
    }
    return true;
}

std::string
fmt17(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

// Replies to a pipelined stream — first sent in one write, then split
// mid-line into odd-sized chunks — come back in order and equal to an
// in-process ServeEngine's decisions on the same events, with the same
// decision count and chained hash.
TEST_F(ServeDaemonCli, PipelinedAndChunkedStreamsMatchTheEngine)
{
    startDaemon("");
    // The engine the daemon builds from `--bound-ms 2` and its
    // defaults.
    ServeConfig sc;
    sc.latencyBound = 2.0 * kMs;
    sc.updatePeriod = 100.0 * kMs;
    ServeEngine engine(DvfsModel::haswell(4.0 * kUs), sc);

    const std::vector<Event> events = makeStream(1500, 21);
    std::string whole, chunked;
    std::vector<std::string> want;
    for (std::size_t i = 0; i < events.size(); ++i) {
        const Event &e = events[i];
        const std::string line =
            e.arrival ? "a " + fmt17(e.t) + "\n"
                      : "c " + fmt17(e.t) + " " + fmt17(e.cycles) + " " +
                            fmt17(e.mem) + "\n";
        (i < events.size() / 2 ? whole : chunked) += line;
        const ServeDecision d =
            e.arrival ? engine.onArrival(e.t)
                      : engine.onCompletion(e.t, e.cycles, e.mem);
        char buf[64];
        if (d.ok)
            std::snprintf(buf, sizeof buf, "f %.9g", d.frequency);
        else
            std::snprintf(buf, sizeof buf, "err %s", d.error);
        want.push_back(buf);
    }

    const int fd = connectWithTimeouts(socketPath);
    ASSERT_GE(fd, 0);
    std::thread sender([&] {
        if (!sendAll(fd, whole.data(), whole.size()))
            return;
        static const std::size_t kChunks[] = {1, 7, 13, 61, 127, 509, 3};
        std::size_t off = 0;
        for (std::size_t k = 0; off < chunked.size(); ++k) {
            const std::size_t len =
                std::min(kChunks[k % 7], chunked.size() - off);
            if (!sendAll(fd, chunked.data() + off, len))
                return;
            off += len;
            if (k % 16 == 0)
                std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
    });
    const std::vector<std::string> got = readLines(fd, want.size(), 60.0);
    sender.join();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i)
        ASSERT_EQ(got[i], want[i]) << "reply " << i;

    ASSERT_TRUE(sendAll(fd, "stats\n", 6));
    const std::vector<std::string> stats = readLines(fd, 1, 10.0);
    ::close(fd);
    ASSERT_EQ(stats.size(), 1u);
    char hash[24];
    std::snprintf(hash, sizeof hash, "%016" PRIx64,
                  engine.decisionLog().hash);
    EXPECT_EQ(jsonStringField(stats[0], "decision_hash"), hash)
        << stats[0];
    EXPECT_NE(stats[0].find("\"decisions\":" +
                            std::to_string(engine.decisionLog().count) +
                            ","),
              std::string::npos)
        << stats[0];
}

// A client that pipelines megabytes of requests and never reads its
// replies must not delay anyone else: the daemon stops reading it once
// its reply queue is full, and answers the rest when it reads.
TEST_F(ServeDaemonCli, ClientThatNeverReadsStallsOnlyItself)
{
    startDaemon("");
    // 2 MiB of pings, with a distinct bad command every 4096 lines so
    // that the order of the replies is checked too.
    std::string input, want;
    for (std::size_t i = 0; input.size() < (std::size_t(2) << 20); ++i) {
        if (i % 4096 == 4095) {
            const std::string cmd = "x" + std::to_string(i);
            input += cmd + "\n";
            want += "err unknown command: " + cmd + "\n";
        } else {
            input += "ping\n";
            want += "ok\n";
        }
    }
    const int hog = connectWithTimeouts(socketPath);
    ASSERT_GE(hog, 0);
    // Sends block for as long as the daemon holds the hog back; the
    // replies may take a while under a sanitizer.
    timeval none{0, 0}, patient{30, 0};
    ::setsockopt(hog, SOL_SOCKET, SO_SNDTIMEO, &none, sizeof(none));
    ::setsockopt(hog, SOL_SOCKET, SO_RCVTIMEO, &patient, sizeof(patient));
    std::atomic<std::size_t> sent{0};
    std::thread sender([&] {
        std::size_t off = 0;
        while (off < input.size()) {
            const ssize_t n = ::send(hog, input.data() + off,
                                     input.size() - off, MSG_NOSIGNAL);
            if (n <= 0)
                break;
            off += static_cast<std::size_t>(n);
            sent = off;
        }
        ::shutdown(hog, SHUT_WR);
    });
    // Wait until the hog's stream stalls: the daemon stopped reading.
    std::size_t last = 0;
    for (int i = 0; i < 100 && sent < input.size(); ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        if (sent == last)
            break;
        last = sent;
    }

    const auto t0 = std::chrono::steady_clock::now();
    std::string reply;
    try {
        reply = serveQuery(socketPath, "ping", 2.0);
    } catch (const std::exception &e) {
        reply = e.what();
    }
    const std::chrono::duration<double> waited =
        std::chrono::steady_clock::now() - t0;
    EXPECT_EQ(reply, "ok");
    EXPECT_LT(waited.count(), 2.0);

    // Now the hog reads: every reply arrives, in order.
    std::string got;
    char buf[65536];
    while (got.size() < want.size()) {
        const ssize_t n = ::read(hog, buf, sizeof buf);
        if (n <= 0)
            break;
        got.append(buf, static_cast<std::size_t>(n));
    }
    ::shutdown(hog, SHUT_RDWR); // a sender still blocked fails now
    sender.join();
    ::close(hog);
    ASSERT_EQ(got.size(), want.size());
    const auto diff = std::mismatch(got.begin(), got.end(), want.begin());
    EXPECT_TRUE(diff.first == got.end())
        << "replies differ at byte " << (diff.first - got.begin());
}

// Non-finite event times are answered with a named err, and the same
// connection keeps being served. `a inf` used to hang the daemon for
// every client; readLines' deadline bounds the wait if it regresses.
TEST_F(ServeDaemonCli, NonFiniteTimesGetErrAndConnectionStaysUp)
{
    startDaemon("");
    const int fd = connectWithTimeouts(socketPath);
    ASSERT_GE(fd, 0);
    const std::string input = "a inf\na -inf\na nan\na 1e-3\n"
                              "c 1 nan 0\nc 2e-3 5e5 1e-4\nping\n";
    ASSERT_TRUE(sendAll(fd, input.data(), input.size()));
    const std::vector<std::string> got = readLines(fd, 7, 10.0);
    ::close(fd);
    ASSERT_EQ(got.size(), 7u) << "the daemon stopped answering";
    const std::string usageA = "err usage: a <t> [elapsed_cycles] "
                               "[class_hint]";
    EXPECT_EQ(got[0], usageA);
    EXPECT_EQ(got[1], usageA);
    EXPECT_EQ(got[2], usageA);
    EXPECT_EQ(got[3].compare(0, 2, "f "), 0) << got[3];
    EXPECT_EQ(got[4], "err usage: c <t> <compute_cycles> <memory_time>");
    EXPECT_EQ(got[5].compare(0, 2, "f "), 0) << got[5];
    EXPECT_EQ(got[6], "ok");
    EXPECT_EQ(serveQuery(socketPath, "ping", 2.0), "ok");
}

TEST_F(ServeDaemonCli, RefusesSecondDaemonOnLiveSocket)
{
    startDaemon("");
    const CommandResult r = runCommand(
        cli + " serve --socket " + socketPath + " --bound-ms 2",
        scratch.path, "second");
    EXPECT_FALSE(commandSucceeded(r.status));
    EXPECT_NE(r.err.find("already listening"), std::string::npos)
        << r.err;
    // The loser must not have unlinked the winner's socket.
    EXPECT_EQ(serveQuery(socketPath, "ping"), "ok");
    EXPECT_EQ(serveQuery(socketPath, "shutdown"), "ok");
    int status = 0;
    ASSERT_TRUE(waitCommandFor(daemonPid, 30.0, &status));
    daemonPid = -1;
}

// Every subcommand's numeric flags parse strictly
// (util/parse_number.h): a malformed or out-of-range value is a named
// error (exit 1), never a wrapped or silently defaulted number, and an
// unregistered flag is refused. Each command carries flags that stop
// it right after parsing (serve --stats with no daemon, --csv with
// --json, no --out, vacuum with no --cap), so a value that parsed
// fails the message check instead of starting real work.
TEST(CliFlags, RejectMalformedValues)
{
    const char *cli = std::getenv("RUBIK_CLI");
    if (!cli || !*cli || !std::filesystem::exists(cli))
        GTEST_SKIP() << "RUBIK_CLI not set or missing";
    ScratchDir dir;
    ASSERT_FALSE(dir.path.empty());
    struct Case
    {
        std::string subcommand, flag, value; ///< value "": boolean flag
    };
    const std::string serve =
        "serve --socket " + dir.path + "/none.sock --stats";
    const std::vector<Case> cases = {
        {serve, "--age-buckets", "-1"},
        {serve, "--age-buckets", "1"},
        {serve, "--leaves", "abc"},
        {serve, "--leaves", "129"},
        {serve, "--max-positions", "0"},
        {serve, "--fallback-band", "2x"},
        {serve, "--max-queue", "-5"},
        {serve, "--max-queue", "0"},
        {serve, "--bound-ms", "nope"},
        {serve, "--bound-ms", "-2"},
        {serve, "--update-ms", "inf"},
        {serve, "--percentile", "1"},
        {serve, "--percentile", "0"},
        {serve, "--percentile", "nan"},
        {serve, "--transition-us", "-4"},
        {serve, "--transition-us", "4us"},
        {"--csv --json", "--load", "abc"},
        {"--csv --json", "--loads", "0.5,x"},
        {"--csv --json", "--bound-ms", "+2"},
        {"fleet --csv --json", "--cores", "96,abc"},
        {"fleet --csv --json", "--budget-frac", "0.5,"},
        {"fleet --csv --json", "--epochs", "-1"},
        {"fleet --csv --json", "--seed", "-1"},
        {"distill", "--leaves", "-1"},
        {"distill", "--load", "0x1"},
        {"trace gen", "--load", "nan"},
        {"trace gen", "--requests", "1e3"},
        {"cache vacuum --dir " + dir.path + "/cache", "--fix", ""},
    };
    for (const Case &c : cases) {
        const CommandResult r = runCommand(
            std::string(cli) + " " + c.subcommand + " " + c.flag +
                (c.value.empty() ? "" : " '" + c.value + "'"),
            dir.path, "flag");
        const std::string want =
            c.value.empty() ? "unknown flag " + c.flag
                            : c.flag + ": invalid value '" + c.value + "'";
        EXPECT_TRUE(WIFEXITED(r.status) && WEXITSTATUS(r.status) == 1)
            << c.subcommand << " " << c.flag << " " << c.value << ": "
            << describeWaitStatus(r.status);
        EXPECT_NE(r.err.find(want), std::string::npos)
            << c.subcommand << " " << c.flag << " " << c.value << ": "
            << r.err;
    }
}

// A distilled shape whose LUT would be too large fails serve startup,
// before the socket exists.
TEST(ServeFlags, OversizedDistilledShapeFailsStartup)
{
    const char *cli = std::getenv("RUBIK_CLI");
    if (!cli || !*cli || !std::filesystem::exists(cli))
        GTEST_SKIP() << "RUBIK_CLI not set or missing";
    ScratchDir dir;
    ASSERT_FALSE(dir.path.empty());
    const std::string sock = dir.path + "/big.sock";
    const pid_t pid = spawnShellCommand(
        "exec " + std::string(cli) + " serve --socket " + sock +
            " --bound-ms 2 --distill --age-buckets 16777216"
            " --max-positions 1048576",
        dir.path + "/big.stdout", dir.path + "/big.stderr");
    ASSERT_GT(pid, 0);
    int status = 0;
    if (!waitCommandFor(pid, 10.0, &status)) {
        killCommandGroup(pid);
        FAIL() << "daemon started with an oversized distilled shape";
    }
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 1)
        << describeWaitStatus(status);
    EXPECT_NE(readFile(dir.path + "/big.stderr")
                  .find("serve: distilled model: LUT too large"),
              std::string::npos);
    EXPECT_FALSE(std::filesystem::exists(sock));
}

} // namespace
} // namespace rubik
