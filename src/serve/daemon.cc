#include "serve/daemon.h"

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string_view>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "power/power_model.h"
#include "runner/sweep_runner.h"
#include "sim/trace.h"

namespace rubik {

namespace {

volatile sig_atomic_t g_stop = 0;

void
onSignal(int)
{
    g_stop = 1;
}

bool
fillSockaddr(const std::string &path, sockaddr_un *addr)
{
    if (path.empty() || path.size() >= sizeof(addr->sun_path))
        return false;
    std::memset(addr, 0, sizeof(*addr));
    addr->sun_family = AF_UNIX;
    std::memcpy(addr->sun_path, path.c_str(), path.size() + 1);
    return true;
}

/// Write all of `s` (blocking socket); false on error/peer close.
bool
writeAll(int fd, const std::string &s)
{
    std::size_t off = 0;
    while (off < s.size()) {
        const ssize_t n = ::write(fd, s.data() + off, s.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

/**
 * The first kMax tokens of one request line, split on ' ' in place:
 * each token's terminator is overwritten with '\0', so a token is a
 * C string that strtod stops reading at the token's end (or at a NUL
 * inside it). `count` counts every token.
 */
struct Tokens
{
    static constexpr std::size_t kMax = 5;
    std::string_view tok[kMax];
    std::size_t count = 0;
};

/// Split [p, end) in place; *end must be writable (the line's '\n' or
/// '\r').
Tokens
tokenize(char *p, char *end)
{
    Tokens t;
    *end = '\0';
    while (p < end) {
        while (p < end && *p == ' ')
            ++p;
        char *q = p;
        while (q < end && *q != ' ')
            ++q;
        if (q > p) {
            if (t.count < Tokens::kMax)
                t.tok[t.count] =
                    std::string_view(p, static_cast<std::size_t>(q - p));
            ++t.count;
            *q = '\0';
        }
        p = q + 1;
    }
    return t;
}

/// Parse a NUL-terminated token as a double; false on trailing garbage.
bool
parseDouble(std::string_view tok, double *out)
{
    char *end = nullptr;
    errno = 0;
    *out = std::strtod(tok.data(), &end);
    return end && *end == '\0' && end != tok.data() && errno == 0;
}

std::string
replayJson(const DvfsModel &dvfs, const DaemonConfig &cfg,
           const std::string &path, const std::string &policy)
{
    const Trace trace = loadTraceBinary(path);
    const PowerModel pm(dvfs);
    DecisionLog log;
    LatencyHistogram latency;
    log.latency = &latency;
    PolicyRunRequest req;
    req.trace = &trace;
    req.bound = cfg.serve.latencyBound;
    req.dvfs = &dvfs;
    req.power = &pm;
    req.decisionLog = &log;
    const PolicyOutcome out = runPolicy(policy, req);

    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "{\"policy\":\"%s\",\"requests\":%zu,\"decisions\":%" PRIu64
        ",\"decision_hash\":\"%016" PRIx64 "\",\"tail_ms\":%.6g,"
        "\"energy_mj_per_req\":%.6g,"
        "\"latency_ns\":{\"p50\":%.6g,\"p99\":%.6g,\"max\":%" PRIu64
        "}}",
        policy.c_str(), trace.size(), log.count, log.hash,
        out.tailLatency * 1e3, out.energyPerRequest * 1e3,
        latency.percentileNs(0.5), latency.percentileNs(0.99),
        latency.maxNs());
    return buf;
}

/// Append the reply to one decision: "f <freq_hz>" or "err <why>".
void
appendDecision(std::string &out, const ServeDecision &d)
{
    if (!d.ok) {
        out += "err ";
        out += d.error;
        return;
    }
    char buf[64];
    const int n = std::snprintf(buf, sizeof(buf), "f %.9g", d.frequency);
    out.append(buf, static_cast<std::size_t>(n));
}

/// Answer the request line [line, end) by appending its reply line
/// (no trailing newline) to `out`; *end must be writable. Sets
/// *shutdown when the client asked the daemon to exit.
void
handleLine(ServeEngine &engine, const DvfsModel &dvfs,
           const DaemonConfig &cfg, char *line, char *end,
           std::string &out, bool *shutdown)
{
    const Tokens t = tokenize(line, end);
    if (t.count == 0) {
        out += "err empty request";
        return;
    }
    const std::string_view cmd = t.tok[0];

    if (cmd == "ping") {
        out += "ok";
    } else if (cmd == "stats") {
        out += engine.statsJson();
    } else if (cmd == "shutdown") {
        *shutdown = true;
        out += "ok";
    } else if (cmd == "a") {
        double time = 0.0, elapsed = 0.0, hint = -1.0;
        if (t.count < 2 || t.count > 4 || !parseDouble(t.tok[1], &time) ||
            (t.count > 2 && !parseDouble(t.tok[2], &elapsed)) ||
            (t.count > 3 && !parseDouble(t.tok[3], &hint)))
            out += "err usage: a <t> [elapsed_cycles] [class_hint]";
        else
            appendDecision(out, engine.onArrival(time, elapsed,
                                                 static_cast<int>(hint)));
    } else if (cmd == "c") {
        double time = 0.0, cycles = 0.0, mem = 0.0;
        if (t.count != 4 || !parseDouble(t.tok[1], &time) ||
            !parseDouble(t.tok[2], &cycles) || !parseDouble(t.tok[3], &mem))
            out += "err usage: c <t> <compute_cycles> <memory_time>";
        else
            appendDecision(out, engine.onCompletion(time, cycles, mem));
    } else if (cmd == "replay") {
        const std::string policy =
            t.count > 2 ? std::string(t.tok[2]) : "rubik";
        if (t.count < 2 || t.count > 3) {
            out += "err usage: replay <trace.rtrace> [policy]";
        } else if (!isKnownPolicy(policy)) {
            out += "err unknown policy: ";
            out += policy;
        } else {
            try {
                out += replayJson(dvfs, cfg, std::string(t.tok[1]), policy);
            } catch (const std::exception &e) {
                out += "err replay: ";
                out += e.what();
            }
        }
    } else {
        out += "err unknown command: ";
        out += cmd;
    }
}

/// Longest request line (bytes, newline excluded) the daemon buffers.
/// Protocol lines are a few dozen bytes; a client that exceeds this is
/// answered "err line too long" and dropped, so no client can grow the
/// daemon's memory without bound.
constexpr std::size_t kMaxLineBytes = 64 * 1024;
/// Cap on a client's queued, unwritten reply bytes. A client whose
/// queue reaches it is not read, and its buffered lines are not
/// handled, until the queue drains below it (backpressure): a client
/// that never reads its replies stalls only itself.
constexpr std::size_t kMaxQueuedBytes = 256 * 1024;
/// Smallest read() a client's input buffer always has room for.
constexpr std::size_t kReadBytes = 64 * 1024;
/// A client's input buffer: one partial line plus one read.
constexpr std::size_t kInputBytes = kMaxLineBytes + kReadBytes;

/**
 * One connection. Input is buffered in a fixed kInputBytes array:
 * [inBegin, inEnd) is read but not yet answered, and [inBegin, scan)
 * is known to hold no '\n', so each byte is scanned once. Replies are
 * appended to `out`; [outOff, out.size()) is not yet written.
 */
struct Client
{
    explicit Client(int socketFd) : fd(socketFd), in(new char[kInputBytes])
    {
    }

    int fd = -1;
    std::unique_ptr<char[]> in;
    std::size_t inBegin = 0, scan = 0, inEnd = 0;
    std::string out;
    std::size_t outOff = 0;
    /// No more input is read; the client is closed once `out` is
    /// written (end of input, or a line over kMaxLineBytes).
    bool closing = false;

    std::size_t queued() const { return out.size() - outOff; }
    /// Buffered input not yet scanned, and room to answer it.
    bool hasWork() const
    {
        return !closing && scan < inEnd && queued() < kMaxQueuedBytes;
    }
    /// Every buffered line is answered and the queue has room.
    bool wantsInput() const
    {
        return !closing && scan == inEnd && queued() < kMaxQueuedBytes;
    }
};

/**
 * Answer the client's buffered complete lines, in order, until its
 * reply queue reaches kMaxQueuedBytes; the rest wait for the queue to
 * drain. A line over kMaxLineBytes queues "err line too long" and
 * closes the client.
 */
template <typename Handle>
void
answerLines(Client &c, const Handle &handle)
{
    if (c.outOff > 0 && c.hasWork()) {
        c.out.erase(0, c.outOff);
        c.outOff = 0;
    }
    char *const base = c.in.get();
    while (c.hasWork()) {
        char *nl = static_cast<char *>(
            std::memchr(base + c.scan, '\n', c.inEnd - c.scan));
        char *const line = base + c.inBegin;
        const char *const stop = nl ? nl : base + c.inEnd;
        if (static_cast<std::size_t>(stop - line) > kMaxLineBytes) {
            c.out += "err line too long\n";
            c.closing = true;
            return;
        }
        if (!nl) {
            c.scan = c.inEnd;
            return;
        }
        char *end = nl;
        if (end > line && end[-1] == '\r')
            --end;
        handle(line, end, c.out);
        c.out += '\n';
        c.inBegin = c.scan = static_cast<std::size_t>(nl + 1 - base);
    }
}

/// One read() into the client's buffer. Returns false when the client
/// must be dropped at once (a read error).
bool
readInput(Client &c)
{
    char *const base = c.in.get();
    if (c.inBegin == c.inEnd) {
        c.inBegin = c.scan = c.inEnd = 0;
    } else if (kInputBytes - c.inEnd < kReadBytes) {
        // Only the partial line (at most kMaxLineBytes) is left; move
        // it to the front. It was read after the previous move, so the
        // moves cost no more than the reads.
        std::memmove(base, base + c.inBegin, c.inEnd - c.inBegin);
        c.scan -= c.inBegin;
        c.inEnd -= c.inBegin;
        c.inBegin = 0;
    }
    const ssize_t n = ::read(c.fd, base + c.inEnd, kInputBytes - c.inEnd);
    if (n > 0)
        c.inEnd += static_cast<std::size_t>(n);
    else if (n == 0)
        c.closing = true; // end of input: write what is queued, close
    else if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)
        return false;
    return true;
}

/// One write() of the queued replies. Returns false when the client
/// must be dropped (a write error: the peer is gone).
bool
writeQueued(Client &c)
{
    const ssize_t n = ::write(c.fd, c.out.data() + c.outOff, c.queued());
    if (n < 0)
        return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
    c.outOff += static_cast<std::size_t>(n);
    if (c.outOff == c.out.size()) {
        c.out.clear();
        c.outOff = 0;
    }
    return true;
}

} // anonymous namespace

int
runServeDaemon(const DvfsModel &dvfs, const DaemonConfig &config)
{
    sockaddr_un addr;
    if (!fillSockaddr(config.socketPath, &addr)) {
        std::fprintf(stderr, "serve: bad socket path '%s'\n",
                     config.socketPath.c_str());
        return 1;
    }

    // Before the socket exists: a configuration the engine refuses
    // (a bad model file, an oversized distilled shape) fails startup
    // without leaving a socket file behind.
    ServeEngine engine(dvfs, config.serve);

    // Stale-socket handling: probe with connect(). A live daemon
    // accepts (refuse startup); a dead one's leftover file refuses
    // (safe to unlink and rebind).
    {
        const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (probe >= 0) {
            if (::connect(probe, reinterpret_cast<sockaddr *>(&addr),
                          sizeof(addr)) == 0) {
                ::close(probe);
                std::fprintf(stderr,
                             "serve: daemon already listening on %s\n",
                             config.socketPath.c_str());
                return 1;
            }
            ::close(probe);
            if (errno == ECONNREFUSED)
                ::unlink(config.socketPath.c_str());
        }
    }

    const int listener = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (listener < 0 ||
        ::bind(listener, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listener, 16) != 0) {
        std::fprintf(stderr, "serve: cannot listen on %s: %s\n",
                     config.socketPath.c_str(), std::strerror(errno));
        if (listener >= 0)
            ::close(listener);
        return 1;
    }

    g_stop = 0;
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = onSignal;
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);
    ::signal(SIGPIPE, SIG_IGN);

    std::vector<Client> clients;
    std::vector<pollfd> fds;
    bool shutdownRequested = false;
    const auto handle = [&](char *line, char *end, std::string &out) {
        handleLine(engine, dvfs, config, line, end, out,
                   &shutdownRequested);
    };

    std::fprintf(stderr, "serve: listening on %s\n",
                 config.socketPath.c_str());

    // One poll round: every client with buffered lines and queue room
    // has them answered, one read when it has no buffered line left,
    // then one write of everything it has queued; the rest of a
    // partial write goes out on a later POLLOUT.
    while (!g_stop && !shutdownRequested) {
        fds.clear();
        fds.push_back({listener, POLLIN, 0});
        bool work = false;
        for (const Client &c : clients) {
            work = work || c.hasWork();
            fds.push_back({c.fd,
                           static_cast<short>(
                               (c.wantsInput() ? POLLIN : 0) |
                               (c.queued() > 0 ? POLLOUT : 0)),
                           0});
        }
        const int ready =
            ::poll(fds.data(), fds.size(), work ? 0 : /*ms=*/500);
        if (ready < 0) {
            if (errno == EINTR)
                continue; // signal: loop re-checks g_stop
            std::fprintf(stderr, "serve: poll: %s\n",
                         std::strerror(errno));
            break;
        }

        for (std::size_t i = 0; i < clients.size(); ++i) {
            Client &c = clients[i];
            answerLines(c, handle);
            bool ok = true;
            if (c.wantsInput() &&
                (fds[i + 1].revents & (POLLIN | POLLHUP | POLLERR))) {
                ok = readInput(c);
                answerLines(c, handle);
            }
            if (ok && c.queued() > 0)
                ok = writeQueued(c);
            if (!ok || (c.closing && c.queued() == 0)) {
                ::close(c.fd);
                c.fd = -1;
            }
        }
        clients.erase(std::remove_if(clients.begin(), clients.end(),
                                     [](const Client &c) {
                                         return c.fd < 0;
                                     }),
                      clients.end());

        // Accept only after servicing: a client pushed into `clients`
        // mid-round would have no pollfd, desyncing fds[i + 1] above.
        if (fds[0].revents & POLLIN) {
            const int fd = ::accept4(listener, nullptr, nullptr,
                                     SOCK_NONBLOCK);
            if (fd >= 0)
                clients.emplace_back(fd);
        }
    }

    for (Client &c : clients) {
        if (c.queued() > 0)
            writeQueued(c); // best effort: never block on exit
        ::close(c.fd);
    }
    ::close(listener);
    ::unlink(config.socketPath.c_str());
    std::fprintf(stderr, "serve: shut down cleanly\n");
    return 0;
}

std::string
serveQuery(const std::string &socketPath, const std::string &line,
           double timeoutSeconds)
{
    sockaddr_un addr;
    if (!fillSockaddr(socketPath, &addr))
        throw std::runtime_error("serve: bad socket path " + socketPath);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        throw std::runtime_error("serve: socket: " +
                                 std::string(std::strerror(errno)));
    struct timeval tv;
    tv.tv_sec = static_cast<time_t>(timeoutSeconds);
    tv.tv_usec = static_cast<suseconds_t>(
        (timeoutSeconds - static_cast<double>(tv.tv_sec)) * 1e6);
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        const std::string err = std::strerror(errno);
        ::close(fd);
        throw std::runtime_error("serve: cannot connect to " +
                                 socketPath + ": " + err);
    }
    std::string out = line;
    if (out.empty() || out.back() != '\n')
        out += '\n';
    if (!writeAll(fd, out)) {
        ::close(fd);
        throw std::runtime_error("serve: write failed");
    }
    std::string reply;
    char buf[4096];
    for (;;) {
        const ssize_t n = ::read(fd, buf, sizeof buf);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        reply.append(buf, static_cast<std::size_t>(n));
        if (reply.find('\n') != std::string::npos)
            break;
    }
    ::close(fd);
    const std::size_t nl = reply.find('\n');
    if (nl == std::string::npos)
        throw std::runtime_error("serve: no reply (timeout?)");
    return reply.substr(0, nl);
}

} // namespace rubik
