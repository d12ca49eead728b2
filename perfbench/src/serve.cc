/**
 * @file
 * The `serve` and `serve_distill` workloads: `rubik_cli serve` (exact,
 * or with --distill) driven over its Unix socket by one client thread
 * on one connection.
 *
 * The event stream is masstree at 50% load: arrivals from the generated
 * trace, completions from a fixed-nominal replay of the same trace.
 *
 *   Phase 1, open loop at real time: each event is sent when it is due
 *   (stream time == wall time) and its reply is timed from that due
 *   instant, so a daemon stall is charged to every event queued behind
 *   it. The generator's own lateness is recorded, and a run whose
 *   generator fell behind by more than kMaxLateP99Us is refused.
 *   Phase 2, closed loop: the same events with a fixed window of
 *   outstanding requests, on a fresh daemon per pass; wall_s is the
 *   median pass time and sat_eps the reply rate over all passes.
 *
 * An in-process ServeEngine pass over the same events is the oracle:
 * every reply must equal its decision, and the daemon's decision count
 * and chained hash must equal the engine's. A traced run makes a second
 * pass with every engine call timed, for the per-layer metrics: a call
 * during which tableRebuilds() advanced is a `core` rebuild span (with
 * --distill it includes the retraining that follows), any other call a
 * `policies` decision span.
 */

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common.h"
#include "policies/replay.h"
#include "power/dvfs_model.h"
#include "power/power_model.h"
#include "serve/serve_engine.h"
#include "util/units.h"
#include "workloads/apps.h"
#include "workloads/trace_gen.h"

using namespace rubik;

namespace perfbench {

namespace {

constexpr double kLoad = 0.5;
constexpr std::size_t kWindow = 64;     ///< closed-loop outstanding cap
constexpr int kSetupSpawns = 2;         ///< extra spawn+ping samples
constexpr double kMaxLateP99Us = 5000.0; ///< open-loop generator guard
constexpr double kReplyTimeoutS = 60.0;
/**
 * reply_p999_us is the median over windows of this much stream time
 * (about 2.3k events each) of each window's p99.9. A whole-run p99.9 is
 * set by the 10-20 ms pauses a shared host gives either process a few
 * times in ten seconds; the windowed median keeps the rebuild stalls
 * the daemon itself causes, ten times a second. The whole-run p99.9 is
 * reported by the traced run as client.reply_p999_us.
 */
constexpr double kTailWindowS = 0.5;

struct Event
{
    double t = 0.0;
    bool arrival = true;
    double cycles = 0.0; ///< completions: measured compute cycles
    double mem = 0.0;    ///< completions: measured memory time
    std::string line;    ///< protocol line, newline-terminated
};

struct Stream
{
    std::vector<Event> events;
    std::string boundMs; ///< exactly what the daemon is given
    double traceGenS = 0.0; ///< generateLoadTrace
};

std::string
fmt17(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

Stream
makeStream(uint64_t seed, double seconds)
{
    const DvfsModel dvfs = DvfsModel::haswell(4.0 * kUs);
    const PowerModel power(dvfs);
    const double nominal = dvfs.nominalFrequency();
    const AppProfile app = makeApp(AppId::Masstree);
    const int n = static_cast<int>(
        seconds * kLoad * app.maxQps(nominal, nominal) + 0.5);
    Stream s;
    const double t0 = now();
    const Trace trace = generateLoadTrace(app, kLoad, n, nominal, seed);
    s.traceGenS = now() - t0;
    const ReplayResult fixed = replayFixed(trace, nominal, power);

    // The daemon's bound is the fixed-nominal tail at 50% load, as
    // `rubik_cli serve` users derive it.
    s.boundMs = fmt17(fixed.tailLatency(0.95) / kMs);
    std::size_t a = 0, c = 0;
    while (c < trace.size()) {
        const double done = trace[c].arrivalTime + fixed.latencies[c];
        if (a < trace.size() && trace[a].arrivalTime <= done) {
            const double t = trace[a++].arrivalTime;
            s.events.push_back({t, true, 0.0, 0.0, "a " + fmt17(t) + "\n"});
        } else {
            const TraceRecord &r = trace[c++];
            s.events.push_back({done, false, r.computeCycles, r.memoryTime,
                                "c " + fmt17(done) + " " +
                                    fmt17(r.computeCycles) + " " +
                                    fmt17(r.memoryTime) + "\n"});
        }
    }
    return s;
}

/// One nonblocking client connection with line framing.
class Conn
{
  public:
    explicit Conn(const std::string &path)
    {
        fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (fd_ < 0 || path.size() >= sizeof(addr.sun_path))
            throw std::runtime_error("socket path too long: " + path);
        std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
        if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                      sizeof addr) != 0) {
            ::close(fd_);
            throw std::runtime_error("connect failed");
        }
        ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
    }
    ~Conn() { ::close(fd_); }
    Conn(const Conn &) = delete;
    Conn &operator=(const Conn &) = delete;

    void queue(const std::string &line) { out_ += line; }
    bool pendingOut() const { return off_ < out_.size(); }

    /// Push queued bytes without blocking.
    void flush()
    {
        while (off_ < out_.size()) {
            const ssize_t n =
                ::write(fd_, out_.data() + off_, out_.size() - off_);
            if (n < 0) {
                if (errno == EAGAIN || errno == EINTR)
                    return;
                throw std::runtime_error("write to daemon failed");
            }
            off_ += static_cast<std::size_t>(n);
        }
        out_.clear();
        off_ = 0;
    }

    /// Wait until readable/writable or `timeout` seconds pass.
    void wait(double timeout)
    {
        pollfd p{fd_, static_cast<short>(POLLIN | (pendingOut() ? POLLOUT : 0)),
                 0};
        timeout = std::max(timeout, 0.0);
        struct timespec ts;
        ts.tv_sec = static_cast<time_t>(timeout);
        ts.tv_nsec = static_cast<long>((timeout - ts.tv_sec) * 1e9);
        ::ppoll(&p, 1, &ts, nullptr);
    }

    /// Read what is available; append complete lines to `lines`.
    void drain(std::vector<std::string> &lines)
    {
        char buf[65536];
        for (;;) {
            const ssize_t n = ::read(fd_, buf, sizeof buf);
            if (n < 0 && errno == EINTR)
                continue;
            if (n < 0 && errno == EAGAIN)
                return;
            if (n <= 0)
                throw std::runtime_error("daemon closed the connection");
            in_.append(buf, static_cast<std::size_t>(n));
            std::size_t start = 0, nl;
            while ((nl = in_.find('\n', start)) != std::string::npos) {
                lines.emplace_back(in_, start, nl - start);
                start = nl + 1;
            }
            in_.erase(0, start);
        }
    }

    /// Blocking request/reply for control lines (stats, shutdown).
    std::string query(const std::string &line)
    {
        queue(line + "\n");
        std::vector<std::string> lines;
        const double deadline = now() + kReplyTimeoutS;
        while (lines.empty()) {
            if (now() > deadline)
                throw std::runtime_error("daemon did not answer " + line);
            flush();
            wait(0.05);
            drain(lines);
        }
        return lines[0];
    }

  private:
    int fd_ = -1;
    std::string out_, in_;
    std::size_t off_ = 0;
};

void
pinTo(int cpu)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    ::sched_setaffinity(0, sizeof set, &set);
}

/**
 * Pins this process to its last allowed CPU and returns the one before
 * it for the daemon, or -1 when fewer than two are available. Left to
 * the scheduler, a daemon woken by the client's write tends to land on
 * the client's CPU, and its multi-millisecond table rebuilds then delay
 * the open-loop generator instead of only the replies. The last CPUs
 * are taken because the first ones handle most device interrupts.
 */
int
pinClient()
{
    cpu_set_t allowed;
    if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0 ||
        CPU_COUNT(&allowed) < 2)
        return -1;
    int cpus[2], found = 0;
    for (int c = CPU_SETSIZE - 1; c >= 0 && found < 2; --c)
        if (CPU_ISSET(c, &allowed))
            cpus[found++] = c;
    pinTo(cpus[0]);
    return cpus[1];
}

/**
 * Keeps the daemon's CPU out of the idle state while the run lasts: a
 * SCHED_IDLE process spinning on that CPU, which the daemon preempts
 * as soon as it has work. On a virtual machine an idle CPU halts, and
 * waking it waits for the hypervisor; that wait (tens of microseconds,
 * varying with the host's load) otherwise dominated the reply p50 and
 * swung it by 25% between runs. The client spins for the same reason.
 */
class Idler
{
  public:
    explicit Idler(int cpu)
    {
        if (cpu < 0)
            return;
        pid_ = ::fork();
        if (pid_ == 0) {
            ::prctl(PR_SET_PDEATHSIG, SIGKILL);
            pinTo(cpu);
            sched_param sp{};
            ::sched_setscheduler(0, SCHED_IDLE, &sp);
            volatile unsigned long spins = 0;
            for (;;)
                spins = spins + 1;
        }
    }
    ~Idler()
    {
        if (pid_ > 0) {
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, nullptr, 0);
        }
    }
    Idler(const Idler &) = delete;
    Idler &operator=(const Idler &) = delete;

  private:
    pid_t pid_ = -1;
};

/// A spawned `rubik_cli serve` process.
struct Daemon
{
    pid_t pid = -1;
    double setupS = 0.0; ///< spawn until the first ping succeeds
};

Daemon
spawnDaemon(const std::string &cli, const std::string &sock,
            const std::string &bound_ms, bool distill, int cpu)
{
    ::unlink(sock.c_str());
    Daemon d;
    const double t0 = now();
    d.pid = ::fork();
    if (d.pid == 0) {
        const int devnull = ::open("/dev/null", O_WRONLY);
        ::dup2(devnull, STDERR_FILENO);
        ::prctl(PR_SET_PDEATHSIG, SIGTERM);
        if (cpu >= 0)
            pinTo(cpu);
        std::vector<const char *> argv = {cli.c_str(), "serve", "--socket",
                                          sock.c_str(), "--bound-ms",
                                          bound_ms.c_str()};
        if (distill)
            argv.push_back("--distill");
        argv.push_back(nullptr);
        ::execv(cli.c_str(), const_cast<char **>(argv.data()));
        ::_exit(127);
    }
    if (d.pid < 0)
        throw std::runtime_error("fork failed");
    for (;;) {
        try {
            Conn c(sock);
            if (c.query("ping") == "ok")
                break;
        } catch (const std::exception &) {
        }
        int status = 0;
        if (::waitpid(d.pid, &status, WNOHANG) == d.pid)
            throw std::runtime_error("serve daemon exited at startup");
        if (now() - t0 > kReplyTimeoutS)
            throw std::runtime_error("serve daemon never answered ping");
        ::usleep(200);
    }
    d.setupS = now() - t0;
    return d;
}

/// Ask the daemon to exit and reap it; kill it if it will not.
void
stopDaemon(Daemon &d, Conn *conn)
{
    if (d.pid <= 0)
        return;
    try {
        if (conn)
            conn->query("shutdown");
    } catch (const std::exception &) {
    }
    for (int i = 0; i < 2000; ++i) {
        int status = 0;
        if (::waitpid(d.pid, &status, WNOHANG) == d.pid) {
            d.pid = -1;
            return;
        }
        if (i == 500)
            ::kill(d.pid, SIGTERM);
        ::usleep(1000);
    }
    ::kill(d.pid, SIGKILL);
    ::waitpid(d.pid, nullptr, 0);
    d.pid = -1;
}

/// Pull a numeric field out of the daemon's one-line stats JSON.
double
jsonNumber(const std::string &json, const std::string &key)
{
    const std::string pat = "\"" + key + "\":";
    const std::size_t at = json.find(pat);
    if (at == std::string::npos)
        return -1.0;
    return std::strtod(json.c_str() + at + pat.size(), nullptr);
}

std::string
jsonString(const std::string &json, const std::string &key)
{
    const std::string pat = "\"" + key + "\":\"";
    const std::size_t at = json.find(pat);
    if (at == std::string::npos)
        return "";
    const std::size_t p = at + pat.size();
    return json.substr(p, json.find('"', p) - p);
}

/// What the in-process engine pass says each event's reply must be,
/// and, when its calls were timed, how long they took.
struct Oracle
{
    std::vector<std::string> replies;
    uint64_t decisions = 0;
    std::string hash;
    double wallS = 0.0;
    std::vector<double> eventUs;
    std::vector<double> stallMs;
    double busyS = 0.0;
    double decideS = 0.0; ///< calls that did not rebuild
    uint64_t rebuilds = 0;
    bool onGrid = true;
};

Oracle
enginePass(const Stream &s, bool distill, bool timed)
{
    const DvfsModel dvfs = DvfsModel::haswell(4.0 * kUs);
    ServeConfig sc;
    sc.latencyBound = std::atof(s.boundMs.c_str()) * kMs;
    sc.updatePeriod = 100.0 * kMs;
    sc.distill = distill;
    ServeEngine engine(dvfs, sc);
    const std::vector<double> &grid = dvfs.frequencies();
    Oracle o;
    o.replies.reserve(s.events.size());
    if (timed)
        o.eventUs.reserve(s.events.size());
    const double start = now();
    for (const Event &e : s.events) {
        const uint64_t before = engine.tableRebuilds();
        const double t0 = timed ? now() : 0.0;
        const ServeDecision d =
            e.arrival ? engine.onArrival(e.t)
                      : engine.onCompletion(e.t, e.cycles, e.mem);
        if (timed) {
            const double dt = now() - t0;
            o.busyS += dt;
            o.eventUs.push_back(dt * 1e6);
            if (engine.tableRebuilds() != before)
                o.stallMs.push_back(dt * 1e3);
            else
                o.decideS += dt;
        }
        char buf[64];
        if (d.ok)
            std::snprintf(buf, sizeof buf, "f %.9g", d.frequency);
        else
            std::snprintf(buf, sizeof buf, "err %s", d.error);
        o.replies.push_back(buf);
        o.onGrid = o.onGrid && d.ok &&
                   std::find(grid.begin(), grid.end(), d.frequency) !=
                       grid.end();
    }
    o.wallS = now() - start;
    o.rebuilds = engine.tableRebuilds();
    o.decisions = engine.decisionLog().count;
    char hash[24];
    std::snprintf(hash, sizeof hash, "%016" PRIx64,
                  engine.decisionLog().hash);
    o.hash = hash;
    return o;
}

/// Replies that differ from the oracle's (missing ones included).
uint64_t
badReplies(const std::vector<std::string> &got, const Oracle &o)
{
    uint64_t bad = o.replies.size() > got.size()
                       ? o.replies.size() - got.size()
                       : 0;
    for (std::size_t i = 0; i < std::min(got.size(), o.replies.size()); ++i)
        bad += got[i] != o.replies[i];
    return bad;
}

struct OpenLoop
{
    std::vector<std::string> replies;
    std::vector<double> latencyUs; ///< reply time - due time
    std::vector<double> lateUs;    ///< send time - due time
    std::size_t maxOutstanding = 0;
};

OpenLoop
openLoop(Conn &conn, const Stream &s, bool spin)
{
    OpenLoop r;
    const std::size_t n = s.events.size();
    std::vector<double> due(n);
    const double t0 = now() + 0.01;
    for (std::size_t i = 0; i < n; ++i)
        due[i] = t0 + (s.events[i].t - s.events[0].t);
    r.latencyUs.reserve(n);
    r.lateUs.reserve(n);
    std::size_t next = 0;
    const double deadline = due[n - 1] + kReplyTimeoutS;
    while (r.replies.size() < n) {
        double t = now();
        if (t > deadline)
            throw std::runtime_error("open loop: replies stopped");
        while (next < n && due[next] <= t) {
            conn.queue(s.events[next].line);
            r.lateUs.push_back((t - due[next]) * 1e6);
            ++next;
        }
        conn.flush();
        const std::size_t before = r.replies.size();
        conn.drain(r.replies);
        if (r.replies.size() != before) {
            t = now();
            for (std::size_t i = before; i < r.replies.size(); ++i)
                r.latencyUs.push_back((t - due[i]) * 1e6);
        }
        r.maxOutstanding = std::max(r.maxOutstanding,
                                    next - r.replies.size());
        if (!spin && r.replies.size() < n)
            conn.wait(next < n ? due[next] - now() : 0.05);
    }
    return r;
}

/// Median over kTailWindowS windows of each window's p99.9 latency.
double
windowedP999(const Stream &s, const std::vector<double> &latency_us)
{
    const double span = s.events.back().t - s.events.front().t;
    const std::size_t windows = std::max<std::size_t>(
        1, static_cast<std::size_t>(span / kTailWindowS));
    std::vector<std::vector<double>> by_window(windows);
    for (std::size_t i = 0; i < latency_us.size(); ++i) {
        const std::size_t w = std::min(
            windows - 1, static_cast<std::size_t>(
                             (s.events[i].t - s.events.front().t) /
                             kTailWindowS));
        by_window[w].push_back(latency_us[i]);
    }
    std::vector<double> p999;
    for (const std::vector<double> &w : by_window)
        p999.push_back(quantile(w, 0.999));
    return median(p999);
}

/// Closed loop; returns its duration in seconds.
double
closedLoop(Conn &conn, const Stream &s, std::vector<std::string> &replies,
           bool spin)
{
    const std::size_t n = s.events.size();
    std::size_t sent = 0;
    const double t0 = now();
    while (replies.size() < n) {
        if (now() - t0 > kReplyTimeoutS + s.events.back().t)
            throw std::runtime_error("closed loop: replies stopped");
        while (sent < n && sent - replies.size() < kWindow)
            conn.queue(s.events[sent++].line);
        conn.flush();
        conn.drain(replies);
        if (!spin && replies.size() < n &&
            (sent - replies.size() >= kWindow || sent == n))
            conn.wait(0.05);
    }
    return now() - t0;
}

} // anonymous namespace

Report
runServe(uint64_t seed, double seconds, bool distill, bool trace,
         const std::string &cli, const std::string &sock)
{
    Report rep;
    const int daemon_cpu = pinClient();
    // With a single CPU the client must sleep, or it would starve the
    // daemon it measures.
    const bool spin = daemon_cpu >= 0;
    const Idler idler(daemon_cpu);
    const Stream s = makeStream(seed, seconds);
    const std::size_t n = s.events.size();
    std::vector<double> setup_s;
    Daemon d;
    try {
        // Set-up samples beyond the measured daemons' own, taken before
        // each phase and pass so they spread over the run.
        auto extra_spawns = [&] {
            for (int i = 0; i < kSetupSpawns; ++i) {
                d = spawnDaemon(cli, sock, s.boundMs, distill, daemon_cpu);
                setup_s.push_back(d.setupS);
                Conn c(sock);
                stopDaemon(d, &c);
            }
        };
        extra_spawns();

        // Phase 1: open loop at real time.
        d = spawnDaemon(cli, sock, s.boundMs, distill, daemon_cpu);
        setup_s.push_back(d.setupS);
        OpenLoop open;
        std::string stats1;
        double daemon_cpu_s = 0.0, rss = 0.0;
        {
            Conn c(sock);
            open = openLoop(c, s, spin);
            stats1 = c.query("stats");
            daemon_cpu_s = processCpuS(d.pid);
            rss = peakRssMb(d.pid);
            stopDaemon(d, &c);
        }

        // Phase 2: closed loop, each pass on a fresh daemon, until as
        // much time as the open loop's is spent (at least one pass).
        // The host's speed drifts over seconds, so wall_s is the median
        // pass and sat_eps all events over all passes, not one pass's.
        std::vector<std::vector<std::string>> closed_replies;
        std::vector<std::string> stats = {stats1};
        std::vector<double> pass_s, pass_cpu_s;
        double closed_s = 0.0;
        while (closed_replies.empty() || closed_s < seconds) {
            extra_spawns();
            d = spawnDaemon(cli, sock, s.boundMs, distill, daemon_cpu);
            setup_s.push_back(d.setupS);
            Conn c(sock);
            closed_replies.emplace_back();
            const double cpu0 = processCpuS(d.pid);
            pass_s.push_back(closedLoop(c, s, closed_replies.back(), spin));
            pass_cpu_s.push_back(processCpuS(d.pid) - cpu0);
            closed_s += pass_s.back();
            stats.push_back(c.query("stats"));
            rss = std::max(rss, peakRssMb(d.pid));
            stopDaemon(d, &c);
        }
        const double sat_eps =
            static_cast<double>(n * closed_replies.size()) / closed_s;

        // Oracle pass and gates.
        const Oracle o = enginePass(s, distill, false);
        rep.check(o.onGrid, "engine decision off the DVFS grid");
        uint64_t bad = badReplies(open.replies, o);
        for (const std::vector<std::string> &r : closed_replies)
            bad += badReplies(r, o);
        rep.attempted += (1 + closed_replies.size()) * n;
        rep.failed += bad;
        if (bad)
            rep.errors.push_back(std::to_string(bad) +
                                 " replies differ from the engine");
        for (const std::string &st : stats) {
            rep.check(jsonNumber(st, "decisions") ==
                              static_cast<double>(o.decisions) &&
                          jsonString(st, "decision_hash") == o.hash,
                      "daemon decisions/hash != in-process engine");
        }

        const double late_p99 = quantile(open.lateUs, 0.99);
        if (late_p99 > kMaxLateP99Us)
            throw std::runtime_error(
                "open-loop generator fell behind its schedule (late p99 " +
                std::to_string(late_p99) + " us); run refused");

        const double reply_p50 = quantile(open.latencyUs, 0.5);
        if (!trace) {
            rep.set("setup_s", median(setup_s));
            rep.set("peak_rss_mb", rss);
            rep.set("wall_s", median(pass_s));
            rep.set("sat_eps", sat_eps);
            rep.set("reply_p50_us", reply_p50);
            rep.set("reply_p999_us", windowedP999(s, open.latencyUs));
            return rep;
        }

        // Traced pass: the same engine with every call timed.
        const Oracle t = enginePass(s, distill, true);
        rep.check(t.replies == o.replies && t.hash == o.hash,
                  "traced engine pass != untraced pass");
        Layers l;
        l.passes = 1.0;
        l.traceGenS = s.traceGenS;
        l.traces = 1;
        for (double ms : t.stallMs)
            l.rebuildS += ms * 1e-3;
        l.rebuilds = t.rebuilds;
        l.rebuildMs = t.stallMs;
        l.decideS = t.decideS;
        l.decisions = t.replies.size() - t.stallMs.size();
        l.tracedS = t.wallS;
        l.untracedS = o.wallS;
        l.report(rep);
        rep.set("process.cpu_s", median(pass_cpu_s));

        const double event_p50 = quantile(t.eventUs, 0.5);
        rep.set("serve.event_us_p50", event_p50);
        rep.set("serve.stalls", static_cast<double>(t.stallMs.size()));
        rep.set("serve.stall_ms_max", quantile(t.stallMs, 1.0));
        rep.set("serve.engine_busy_s", t.busyS);
        rep.set("serve.daemon_cpu_s", daemon_cpu_s);
        rep.set("serve.transport_us_p50", reply_p50 - event_p50);
        rep.set("serve.fast_hit_rate", jsonNumber(stats1, "fast_hit_rate"));
        rep.set("serve.retrains", jsonNumber(stats1, "retrains"));
        rep.set("serve.rejected", jsonNumber(stats1, "rejected"));
        rep.set("client.reply_p50_us", reply_p50);
        rep.set("client.reply_p999_us", quantile(open.latencyUs, 0.999));
        rep.set("client.late_us_p99", late_p99);
        rep.set("client.max_outstanding",
                static_cast<double>(open.maxOutstanding));
    } catch (...) {
        stopDaemon(d, nullptr);
        ::unlink(sock.c_str());
        throw;
    }
    return rep;
}

} // namespace perfbench
