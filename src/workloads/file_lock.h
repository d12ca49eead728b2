#ifndef RUBIK_WORKLOADS_FILE_LOCK_H
#define RUBIK_WORKLOADS_FILE_LOCK_H

/**
 * @file
 * The trace cache's per-key advisory lock, shared by producers
 * (workloads/trace_store.cc, blocking: serialize cross-process
 * generation of one entry) and the eviction side
 * (workloads/cache_manager.cc, non-blocking: holding an entry's lock
 * proves no producer is mid-generation, so it is safe to unlink).
 * Keeping both on one implementation keeps the protocol — lock path =
 * entry path + ".lock", open flags, flock semantics — from drifting
 * apart, which would silently break the "in-generation entry is never
 * evicted" guarantee.
 *
 * Blocking waits can be bounded: a timeout turns the wait into a
 * LOCK_NB poll, and each failed probe reads the holder pid the winner
 * wrote into the lock file. flock() normally releases when its holder
 * dies, but a descriptor inherited by a wedged child (or leaked
 * across a fork) keeps the lock held with nobody generating — so a
 * holder pid that stays dead across several probes is declared stale
 * and the wait gives up early instead of hanging until the timeout.
 * The caller sees timedOut()/staleHolder() and decides what losing
 * the lock means (the trace store regenerates unlocked: atomic rename
 * keeps that correct, only the generate-exactly-once economy is
 * lost).
 */

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <thread>

#include <fcntl.h>
#include <signal.h>
#include <sys/file.h>
#include <unistd.h>

#include "util/parse_number.h"

namespace rubik {

/**
 * Exclusive advisory flock on `path` (created on demand), held for the
 * object's lifetime. Blocking mode waits for the holder — forever with
 * timeout_sec <= 0, else up to timeout_sec seconds with stale-holder
 * detection — and degrades to a no-op when the lock file cannot be
 * opened. Non-blocking mode reports failure via acquired() instead of
 * waiting. The winner records its pid in the lock file so waiters can
 * probe whether the holder is still alive.
 */
class FileLock
{
  public:
    explicit FileLock(const std::string &path, bool blocking = true,
                      double timeout_sec = 0.0)
        : fd_(::open(path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644))
    {
        if (fd_ < 0)
            return;
        if (!blocking) {
            acquired_ = ::flock(fd_, LOCK_EX | LOCK_NB) == 0;
        } else if (timeout_sec <= 0.0) {
            acquired_ = ::flock(fd_, LOCK_EX) == 0;
        } else {
            acquireBounded(timeout_sec);
        }
        if (acquired_)
            writeHolderPid();
    }

    ~FileLock()
    {
        if (fd_ >= 0) {
            if (acquired_)
                ::flock(fd_, LOCK_UN);
            ::close(fd_);
        }
    }

    FileLock(const FileLock &) = delete;
    FileLock &operator=(const FileLock &) = delete;

    /// True when the lock is actually held.
    bool acquired() const { return acquired_; }

    /// Bounded wait ran out of time with a live (or unknown) holder.
    bool timedOut() const { return timedOut_; }

    /// The recorded holder pid stayed dead across several probes.
    bool staleHolder() const { return staleHolder_; }

  private:
    void acquireBounded(double timeout_sec)
    {
        const auto deadline =
            std::chrono::steady_clock::now() +
            std::chrono::duration<double>(timeout_sec);
        int dead_probes = 0;
        for (;;) {
            if (::flock(fd_, LOCK_EX | LOCK_NB) == 0) {
                acquired_ = true;
                return;
            }
            const long holder = readHolderPid();
            if (holder > 0 &&
                ::kill(static_cast<pid_t>(holder), 0) != 0 &&
                errno == ESRCH) {
                // Repeated probes guard against reading a pid file
                // mid-rewrite by the next (live) winner.
                if (++dead_probes >= 3) {
                    staleHolder_ = true;
                    return;
                }
            } else {
                dead_probes = 0;
            }
            if (std::chrono::steady_clock::now() >= deadline) {
                timedOut_ = true;
                return;
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(50));
        }
    }

    long readHolderPid() const
    {
        char buf[32];
        const ssize_t got = ::pread(fd_, buf, sizeof(buf), 0);
        if (got <= 0)
            return 0;
        // writeHolderPid's "<pid>\n"; anything else reads as no holder.
        const std::string_view text(buf, static_cast<std::size_t>(got));
        return parseNumber<long>(text.substr(0, text.find('\n')), 1)
            .value_or(0);
    }

    void writeHolderPid()
    {
        char buf[32];
        const int len = std::snprintf(buf, sizeof(buf), "%ld\n",
                                      static_cast<long>(::getpid()));
        if (len > 0 && ::ftruncate(fd_, 0) == 0) {
            // Best effort: a missing pid only disables staleness
            // probing, waiters still time out.
            (void)!::pwrite(fd_, buf, static_cast<std::size_t>(len),
                            0);
        }
    }

    int fd_;
    bool acquired_ = false;
    bool timedOut_ = false;
    bool staleHolder_ = false;
};

} // namespace rubik

#endif // RUBIK_WORKLOADS_FILE_LOCK_H
