#ifndef RUBIK_RUNNER_EXPERIMENT_RUNNER_H
#define RUBIK_RUNNER_EXPERIMENT_RUNNER_H

/**
 * @file
 * Thread-pool runner for batches of independent experiments.
 *
 * The bench binaries and the CLI sweep many (app, load, policy)
 * configurations; every configuration is an independent Simulation run
 * with its own trace and RNG seed. ExperimentRunner executes such
 * batches on a fixed pool of worker threads while keeping results
 * bit-identical to serial execution:
 *
 *  - Jobs are self-contained: each one derives its RNG seed from the
 *    batch base seed and its own index, never from shared mutable
 *    state, so scheduling order cannot affect any result.
 *  - runBatch() returns results in submission order regardless of
 *    completion order, so downstream aggregation (table rows, means)
 *    sees the same sequence a serial loop would produce.
 *  - If several jobs throw, the exception of the lowest-indexed job is
 *    rethrown, matching what a serial loop would have hit first.
 *
 * There is deliberately no work stealing and no shared RNG: both would
 * trade determinism for a scheduling win the coarse-grained experiment
 * jobs do not need.
 */

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace rubik {

class ExperimentRunner
{
  public:
    /**
     * Create a pool with `num_workers` threads. 0 (the default) picks
     * the hardware concurrency, honouring the RUBIK_JOBS environment
     * variable if set; 1 degrades to serial execution on one worker
     * thread (useful for A/B determinism checks).
     */
    explicit ExperimentRunner(int num_workers = 0);

    /// Most worker threads a --jobs flag or RUBIK_JOBS may ask for: a
    /// pool starts one thread per worker, so the count is bounded
    /// rather than left to whatever number the user typed.
    static constexpr int kMaxWorkers = 1024;
    ~ExperimentRunner();

    ExperimentRunner(const ExperimentRunner &) = delete;
    ExperimentRunner &operator=(const ExperimentRunner &) = delete;

    int numWorkers() const { return static_cast<int>(workers_.size()); }

    /// Submit one nullary job; the future carries its result or exception.
    template <typename F>
    auto submit(F &&job) -> std::future<std::invoke_result_t<std::decay_t<F>>>
    {
        using R = std::invoke_result_t<std::decay_t<F>>;
        auto task = std::make_shared<std::packaged_task<R()>>(
            std::forward<F>(job));
        std::future<R> result = task->get_future();
        enqueue([task] { (*task)(); });
        return result;
    }

    /**
     * Run every job in `jobs` on the pool and return their results in
     * submission order. Rethrows the exception of the lowest-indexed
     * failed job after all jobs have finished (so no detached work is
     * left running).
     */
    template <typename T>
    std::vector<T> runBatch(std::vector<std::function<T()>> jobs)
    {
        std::vector<std::future<T>> futures;
        futures.reserve(jobs.size());
        for (auto &job : jobs)
            futures.push_back(submit(std::move(job)));
        for (auto &f : futures)
            f.wait();
        std::vector<T> results;
        results.reserve(futures.size());
        for (auto &f : futures)
            results.push_back(f.get());
        return results;
    }

    /// runBatch for jobs with no result, kept for side-effect-only work
    /// that writes into caller-owned per-index slots.
    void runBatch(std::vector<std::function<void()>> jobs);

    /// Execute body(0..n-1) on the pool; waits for all iterations.
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &body);

    /// Resolved default worker count: RUBIK_JOBS if it is a whole
    /// number in [1, kMaxWorkers], else std::thread::hardware_concurrency()
    /// capped at kMaxWorkers, else 1.
    static int defaultWorkerCount();

  private:
    void enqueue(std::function<void()> task);
    void workerLoop();

    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> queue_;
    std::mutex mutex_;
    std::condition_variable wake_;
    bool stopping_ = false;
};

} // namespace rubik

#endif // RUBIK_RUNNER_EXPERIMENT_RUNNER_H
