#include "runner/experiment_runner.h"

#include <sched.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <memory>

#include "util/parse_number.h"

namespace rubik {

namespace {

/// Set on the worker threads of a pool with more than one worker: the
/// cells such a pool runs already use every core it was given.
thread_local bool tl_inWidePool = false;

/**
 * CPUs the calling thread may run on (kMaxWorkers if unknown). The raw
 * system call, not glibc's sched_getaffinity wrapper: the wrapper sits
 * in a stretch of libc's text the rest of the program never runs, and
 * its first call faulted that 64 KB block into a one-CPU serve
 * daemon's resident set.
 */
int
affinityCpuCount()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::syscall(SYS_sched_getaffinity, 0, sizeof set, &set) < 0)
        return ExperimentRunner::kMaxWorkers;
    return std::max(1, CPU_COUNT(&set));
}

} // anonymous namespace

int
ExperimentRunner::defaultWorkerCount()
{
    const int cpus = affinityCpuCount();
    if (cpus == 1)
        return 1;
    int n = 1;
    const char *env = std::getenv("RUBIK_JOBS");
    const auto jobs =
        env ? parseNumber<int>(env, 1, kMaxWorkers) : std::nullopt;
    if (jobs) {
        n = *jobs;
    } else if (const unsigned hw = std::thread::hardware_concurrency()) {
        n = static_cast<int>(std::min<unsigned>(hw, kMaxWorkers));
    }
    return std::min(n, cpus);
}

ExperimentRunner::ExperimentRunner(int num_workers)
{
    if (num_workers <= 0)
        num_workers = defaultWorkerCount();
    workers_.reserve(static_cast<std::size_t>(num_workers));
    const bool wide = num_workers > 1;
    for (int i = 0; i < num_workers; ++i)
        workers_.emplace_back([this, wide] { workerLoop(wide); });
}

ExperimentRunner::~ExperimentRunner()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    wake_.notify_all();
    for (auto &w : workers_)
        w.join();
}

void
ExperimentRunner::enqueue(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        queue_.push_back(std::move(task));
    }
    wake_.notify_one();
}

void
ExperimentRunner::workerLoop(bool wide)
{
    tl_inWidePool = wide;
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock,
                       [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stopping_ and drained.
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task(); // packaged_task captures any exception in its future.
    }
}

void
ExperimentRunner::runBatch(std::vector<std::function<void()>> jobs)
{
    std::vector<std::future<void>> futures;
    futures.reserve(jobs.size());
    for (auto &job : jobs)
        futures.push_back(submit(std::move(job)));
    for (auto &f : futures)
        f.wait();
    // Rethrow in index order so failures match a serial loop.
    for (auto &f : futures)
        f.get();
}

void
ExperimentRunner::parallelFor(std::size_t n,
                              const std::function<void(std::size_t)> &body)
{
    if (n == 0)
        return;

    // Shared with the helper tasks, which may still sit in the queue
    // when the call returns: a late one finds no index left and drops
    // its reference without touching `body`.
    struct Claims
    {
        std::size_t n = 0;
        const std::function<void(std::size_t)> *body = nullptr;
        std::atomic<std::size_t> next{0};
        std::atomic<std::size_t> done{0};
        std::mutex mutex; ///< Guards the fields below.
        std::condition_variable finished;
        bool allDone = false;
        std::size_t failed = SIZE_MAX; ///< Lowest failed index so far.
        std::exception_ptr error; ///< Its exception.
    };
    const auto claims = std::make_shared<Claims>();
    claims->n = n;
    claims->body = &body;

    const auto drain = [](Claims &c) {
        for (std::size_t i; (i = c.next.fetch_add(1)) < c.n;) {
            try {
                (*c.body)(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(c.mutex);
                if (i < c.failed) {
                    c.failed = i;
                    c.error = std::current_exception();
                }
            }
            if (c.done.fetch_add(1) + 1 == c.n) {
                std::lock_guard<std::mutex> lock(c.mutex);
                c.allDone = true;
                c.finished.notify_all();
            }
        }
    };
    const std::size_t helpers = std::min(workers_.size(), n - 1);
    for (std::size_t h = 0; h < helpers; ++h)
        enqueue([claims, drain] { drain(*claims); });
    drain(*claims);

    // The exception leaves `claims` before it is rethrown, so a helper
    // dropping the last reference never frees it under a catch block.
    std::exception_ptr error;
    {
        std::unique_lock<std::mutex> lock(claims->mutex);
        claims->finished.wait(lock, [&] { return claims->allDone; });
        error = std::move(claims->error);
    }
    if (error)
        std::rethrow_exception(error);
}

void
ExperimentRunner::parallelForOnSpareCores(
    std::size_t n, const std::function<void(std::size_t)> &body)
{
    if (n > 1 && !tl_inWidePool) {
        // Never destroyed: a static pool would be joined at exit, and a
        // forked child that calls exit() would wait forever on helper
        // threads it does not have. Parked helpers need no cleanup.
        static ExperimentRunner *const helpers = [] {
            const int count =
                std::min(defaultWorkerCount() - 1, kMaxHelpers);
            return count > 0 ? new ExperimentRunner(count) : nullptr;
        }();
        static std::mutex inUse;
        if (helpers) {
            std::unique_lock<std::mutex> lock(inUse, std::try_to_lock);
            if (lock.owns_lock()) {
                helpers->parallelFor(n, body);
                return;
            }
        }
    }
    for (std::size_t i = 0; i < n; ++i)
        body(i);
}

} // namespace rubik
