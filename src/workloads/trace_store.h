#ifndef RUBIK_WORKLOADS_TRACE_STORE_H
#define RUBIK_WORKLOADS_TRACE_STORE_H

/**
 * @file
 * Memoized trace store shared across experiment jobs.
 *
 * Several benches and the sweep runner replay the *same* generated
 * trace under many schemes or configurations: the ablations regenerate
 * the identical (app, load, n, seed) trace once per variant, and a
 * sweep-spec grid shares one load trace across every policy cell.
 * TraceStore computes each trace exactly once per process, no matter
 * how many ExperimentRunner jobs request it concurrently, and hands out
 * shared_ptr<const Trace> so callers can hold results without copying.
 *
 * Thread safety: the first requester of a key becomes its producer; it
 * generates the trace *outside* the store lock while later requesters
 * block on a shared_future for that key. Generation failures propagate
 * to every waiter and are not cached, so a subsequent request retries.
 *
 * Determinism: the store only memoizes — generateLoadTrace is already
 * deterministic in its arguments, so a cache hit returns bit-identical
 * data to a fresh generation, and results cannot depend on which job
 * happened to populate the entry first.
 *
 * On-disk cache: setCacheDir() (or the RUBIK_TRACE_CACHE environment
 * variable, for the global store) adds a persistent layer below the
 * in-memory map, so *separate processes* — e.g. `subprocess`-backend
 * shard children on one machine — generate each shared trace exactly
 * once. Entries are key-hashed files in the versioned binary format
 * (sim/trace.h), written to a temp name and atomically renamed, with a
 * per-key flock()ed lock file serializing cross-process generation:
 * every producer re-probes the file under the lock before generating.
 * A file that fails to deserialize (corruption) is treated as a miss
 * and regenerated — the rewrite replaces it atomically. Failures to
 * *write* the cache only warn: the in-memory result is still valid.
 */

#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>

#include "sim/trace.h"
#include "workloads/apps.h"

namespace rubik {

/// Everything generateLoadTrace depends on, as a map key. `app` is the
/// app's name; callers substituting a modified AppProfile under the
/// same name must use get() with their own tag instead.
struct TraceKey
{
    std::string app;
    double load = 0.0;
    int numRequests = 0;
    double nominalFreq = 0.0;
    uint64_t seed = 0;

    auto operator<=>(const TraceKey &) const = default;

    /// Self-describing `field=value` rendering, recorded in each cache
    /// file's header meta so `rubik_cli cache ls` can print what an
    /// entry holds. Doubles use %.17g, so the text is lossless.
    std::string describe() const;
};

class TraceStore
{
  public:
    TraceStore() = default;

    TraceStore(const TraceStore &) = delete;
    TraceStore &operator=(const TraceStore &) = delete;

    /**
     * Return the trace for `key`, generating it with `generate` if this
     * is the first request. Concurrent requests for the same key block
     * until the single producer finishes; exactly one of them invokes
     * `generate`.
     */
    std::shared_ptr<const Trace> get(const TraceKey &key,
                                     const std::function<Trace()>
                                         &generate);

    /// Convenience wrapper: memoized generateLoadTrace(app, ...).
    std::shared_ptr<const Trace> loadTrace(const AppProfile &app,
                                           double load, int num_requests,
                                           double nominal_freq,
                                           uint64_t seed);

    struct Stats
    {
        uint64_t hits = 0;        ///< Served from the in-memory map.
        uint64_t misses = 0;      ///< Not in memory (disk or generate).
        uint64_t generated = 0;   ///< Generator actually ran.
        uint64_t diskHits = 0;    ///< Loaded from the on-disk cache.
        uint64_t diskWrites = 0;  ///< Cache files written.
        uint64_t corruptions = 0; ///< Cache files that failed to load.
        uint64_t evictions = 0;   ///< Entries evicted enforcing the cap.
    };

    /// Cumulative counters. Without a cache dir, misses == generated.
    Stats stats() const;

    /**
     * Enable the on-disk cache under `dir` (created if missing; ""
     * disables). Throws std::runtime_error if the directory cannot be
     * created.
     */
    void setCacheDir(const std::string &dir);

    /// Active cache directory ("" when disabled).
    std::string cacheDir() const;

    /**
     * Cap the on-disk cache at `bytes` (0 = unlimited, the default).
     * Enforced by LRU eviction (workloads/cache_manager.h) after every
     * cache write and on enforceCacheCap(); entries whose per-key
     * flock is held by a live producer are never evicted, so a capped
     * run's output is byte-identical to an uncapped one — a lost entry
     * only costs a deterministic regeneration.
     */
    void setCacheCap(uint64_t bytes);

    /// Active size cap in bytes (0 when uncapped).
    uint64_t cacheCap() const;

    /**
     * Evict least-recently-used unlocked cache entries now until the
     * directory is within the cap. No-op without a cache dir or cap.
     * Returns the number of entries evicted. Called automatically
     * after cache writes; call explicitly at end of a run so a warm
     * (all-hits, no-writes) run still converges an over-cap store.
     */
    uint64_t enforceCacheCap();

    /// The cache file name for `key` (deterministic across processes):
    /// a sanitized app prefix plus a 64-bit hash of every key field.
    static std::string cacheFileName(const TraceKey &key);

    /// Number of cached traces.
    std::size_t size() const;

    /// Drop every cached trace and reset the counters.
    void clear();

  private:
    using Future = std::shared_future<std::shared_ptr<const Trace>>;

    /// Producer path: disk probe -> locked re-probe -> generate+write.
    std::shared_ptr<const Trace>
    produce(const TraceKey &key, const std::function<Trace()> &generate);

    /// Load `path` if present and valid; counts corruption on failure.
    /// A hit bumps the file's mtime, so mtime order is LRU order.
    std::shared_ptr<const Trace> tryLoadCached(const std::string &path);

    /// Atomic (temp + rename) cache write; warns instead of throwing.
    void writeCacheFile(const std::string &path, const Trace &trace,
                        const std::string &meta);

    void bump(uint64_t Stats::*counter);

    mutable std::mutex mutex_;
    std::map<TraceKey, Future> entries_;
    Stats stats_;
    std::string cacheDir_;
    uint64_t cacheCap_ = 0;
};

/// Process-wide store used by the benches and the sweep runner. On
/// first use, a non-empty RUBIK_TRACE_CACHE environment variable
/// enables its on-disk cache, and a non-empty RUBIK_TRACE_CACHE_CAP
/// (a parseSizeBytes value, e.g. "256M") sets its size cap.
TraceStore &globalTraceStore();

} // namespace rubik

#endif // RUBIK_WORKLOADS_TRACE_STORE_H
