#include "workloads/trace_store.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "runner/fault.h"
#include "util/error.h"
#include "util/parse_number.h"
#include "workloads/cache_manager.h"
#include "workloads/file_lock.h"
#include "workloads/trace_gen.h"

namespace rubik {

namespace {

/**
 * Bound on the per-key generation lock wait, from
 * RUBIK_LOCK_TIMEOUT_SEC (read per call so tests can tighten it),
 * default 120 s, also when the value is not one finite number. <= 0
 * restores the unbounded wait.
 */
double
lockTimeoutSeconds()
{
    const char *env = std::getenv("RUBIK_LOCK_TIMEOUT_SEC");
    return parseNumber<double>(env ? env : "").value_or(120.0);
}

} // anonymous namespace

std::string
TraceKey::describe() const
{
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  " load=%.17g requests=%d nominal=%.17g seed=%llu",
                  load, numRequests, nominalFreq,
                  static_cast<unsigned long long>(seed));
    return "app=" + app + buf;
}

std::shared_ptr<const Trace>
TraceStore::get(const TraceKey &key,
                const std::function<Trace()> &generate)
{
    std::promise<std::shared_ptr<const Trace>> promise;
    Future future;
    bool producer = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = entries_.find(key);
        if (it != entries_.end()) {
            ++stats_.hits;
            future = it->second;
        } else {
            ++stats_.misses;
            producer = true;
            future = promise.get_future().share();
            entries_.emplace(key, future);
        }
    }
    if (producer) {
        try {
            promise.set_value(produce(key, generate));
        } catch (...) {
            // Uncache the failed entry first so a later request
            // retries instead of re-observing this exception.
            {
                std::lock_guard<std::mutex> lock(mutex_);
                entries_.erase(key);
            }
            promise.set_exception(std::current_exception());
        }
    }
    return future.get();
}

std::shared_ptr<const Trace>
TraceStore::produce(const TraceKey &key,
                    const std::function<Trace()> &generate)
{
    std::string dir;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        dir = cacheDir_;
    }
    if (dir.empty()) {
        auto value = std::make_shared<const Trace>(generate());
        bump(&Stats::generated);
        return value;
    }

    const std::string path = dir + "/" + cacheFileName(key);
    if (auto cached = tryLoadCached(path)) {
        bump(&Stats::diskHits);
        return cached;
    }
    // Not on disk (or corrupt): take the per-key lock and re-probe, so
    // of all concurrent processes racing here exactly one generates.
    // The wait is bounded (RUBIK_LOCK_TIMEOUT_SEC, default 120 s) with
    // stale-holder detection, so a producer that died mid-generation
    // leaving its lock held — e.g. through a descriptor inherited by a
    // wedged child — costs a warning and a duplicate generation, never
    // a hang. Atomic rename keeps unlocked regeneration correct.
    FileLock lock(path + ".lock", /*blocking=*/true,
                  lockTimeoutSeconds());
    if (!lock.acquired()) {
        std::fprintf(
            stderr,
            "trace-store: %s for %s.lock; generating without the "
            "lock\n",
            lock.staleHolder()
                ? "lock holder is dead (stale lock)"
                : "gave up waiting",
            path.c_str());
    }
    if (auto cached = tryLoadCached(path)) {
        bump(&Stats::diskHits);
        return cached;
    }
    auto value = std::make_shared<const Trace>(generate());
    bump(&Stats::generated);
    writeCacheFile(path, *value, key.describe());
    return value;
}

std::shared_ptr<const Trace>
TraceStore::tryLoadCached(const std::string &path)
{
    FaultInjector::instance().onTraceIo();
    // One open decides hit vs miss: a concurrent eviction (cache cap)
    // racing us either wins before this open (a clean miss) or loses —
    // the open fd keeps the unlinked inode readable. A second
    // open-by-path could land in between and miscount eviction as
    // corruption.
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return nullptr;
    std::string bytes;
    char buf[1 << 16];
    std::size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0)
        bytes.append(buf, got);
    const bool read_err = std::ferror(f) != 0;
    std::fclose(f);
    try {
        if (read_err)
            throw std::runtime_error("read error");
        auto trace = std::make_shared<const Trace>(
            deserializeTraceBinary(bytes));
        // Mark the entry most-recently-used: the cap's LRU eviction
        // (cache_manager.h) orders by mtime. Best effort.
        ::utimensat(AT_FDCWD, path.c_str(), nullptr, 0);
        return trace;
    } catch (const std::exception &e) {
        bump(&Stats::corruptions);
        std::fprintf(stderr,
                     "trace-store: discarding corrupt cache entry %s "
                     "(%s)\n",
                     path.c_str(), e.what());
        return nullptr;
    }
}

void
TraceStore::writeCacheFile(const std::string &path, const Trace &trace,
                           const std::string &meta)
{
    FaultInjector::instance().onTraceIo();
    const std::string tmp =
        path + ".tmp." + std::to_string(::getpid());
    try {
        saveTraceBinary(trace, tmp, meta);
        if (std::rename(tmp.c_str(), path.c_str()) != 0) {
            std::remove(tmp.c_str());
            throw std::runtime_error("rename failed");
        }
    } catch (const std::exception &e) {
        // The in-memory result is valid either way; losing the disk
        // copy only costs a regeneration in some later process.
        std::fprintf(stderr,
                     "trace-store: cannot persist %s (%s)\n",
                     path.c_str(), e.what());
        return;
    }
    bump(&Stats::diskWrites);
    enforceCacheCap();
}

void
TraceStore::setCacheCap(uint64_t bytes)
{
    std::lock_guard<std::mutex> lock(mutex_);
    cacheCap_ = bytes;
}

uint64_t
TraceStore::cacheCap() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return cacheCap_;
}

uint64_t
TraceStore::enforceCacheCap()
{
    std::string dir;
    uint64_t cap;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        dir = cacheDir_;
        cap = cacheCap_;
    }
    if (dir.empty() || cap == 0)
        return 0;
    uint64_t evicted = 0;
    try {
        CacheManager manager(dir);
        evicted = manager.vacuum(cap).evicted;
    } catch (const std::exception &e) {
        // Enforcement is hygiene, not correctness: never fail a run
        // over it.
        std::fprintf(stderr, "trace-store: cap enforcement failed: %s\n",
                     e.what());
        return 0;
    }
    if (evicted > 0) {
        std::lock_guard<std::mutex> lock(mutex_);
        stats_.evictions += evicted;
    }
    return evicted;
}

void
TraceStore::bump(uint64_t Stats::*counter)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++(stats_.*counter);
}

std::shared_ptr<const Trace>
TraceStore::loadTrace(const AppProfile &app, double load,
                      int num_requests, double nominal_freq,
                      uint64_t seed)
{
    const TraceKey key{app.name, load, num_requests, nominal_freq,
                       seed};
    return get(key, [&] {
        return generateLoadTrace(app, load, num_requests, nominal_freq,
                                 seed);
    });
}

TraceStore::Stats
TraceStore::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

std::size_t
TraceStore::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

void
TraceStore::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.clear();
    stats_ = Stats{};
}

void
TraceStore::setCacheDir(const std::string &dir)
{
    if (!dir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(dir, ec);
        if (ec) {
            throw std::runtime_error(
                "trace-store: cannot create cache directory " + dir +
                ": " + ec.message());
        }
    }
    std::lock_guard<std::mutex> lock(mutex_);
    cacheDir_ = dir;
}

std::string
TraceStore::cacheDir() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return cacheDir_;
}

std::string
TraceStore::cacheFileName(const TraceKey &key)
{
    // Hash every field bit-exactly (doubles via their bit patterns) so
    // any component change names a different file, in every process.
    std::string blob = key.app;
    blob.push_back('\0');
    const auto append = [&blob](const void *p, std::size_t n) {
        blob.append(static_cast<const char *>(p), n);
    };
    append(&key.load, sizeof(key.load));
    append(&key.numRequests, sizeof(key.numRequests));
    append(&key.nominalFreq, sizeof(key.nominalFreq));
    append(&key.seed, sizeof(key.seed));

    std::string prefix;
    for (const char c : key.app) {
        if (prefix.size() >= 32)
            break;
        const bool safe = (c >= 'a' && c <= 'z') ||
                          (c >= 'A' && c <= 'Z') ||
                          (c >= '0' && c <= '9') || c == '-' || c == '_';
        prefix.push_back(safe ? c : '_');
    }
    if (prefix.empty())
        prefix = "trace";

    char hash[17];
    std::snprintf(hash, sizeof(hash), "%016llx",
                  static_cast<unsigned long long>(
                      fnv1a64(blob.data(), blob.size())));
    return prefix + "-" + hash + ".rtrace";
}

TraceStore &
globalTraceStore()
{
    static TraceStore store;
    static const bool env_applied = [] {
        const char *dir = std::getenv("RUBIK_TRACE_CACHE");
        if (dir && *dir) {
            try {
                store.setCacheDir(dir);
            } catch (const std::exception &e) {
                // First use can be inside a worker job with no
                // handler (the benches); a bad environment variable
                // is a user error, not a reason to std::terminate.
                std::fprintf(stderr, "%s\n", e.what());
                fatal("RUBIK_TRACE_CACHE is unusable");
            }
        }
        const char *cap = std::getenv("RUBIK_TRACE_CACHE_CAP");
        if (cap && *cap) {
            try {
                store.setCacheCap(parseSizeBytes(cap));
            } catch (const std::exception &e) {
                std::fprintf(stderr, "%s\n", e.what());
                fatal("RUBIK_TRACE_CACHE_CAP is unusable");
            }
        }
        return true;
    }();
    (void)env_applied;
    return store;
}

} // namespace rubik
