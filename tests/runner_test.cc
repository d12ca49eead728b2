/**
 * @file
 * Tests for rubik::ExperimentRunner: parallel results must be
 * bit-identical to serial execution under fixed seeds, exceptions must
 * propagate in submission order, and >1 worker must actually overlap
 * work.
 */

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include <gtest/gtest.h>

#include "core/rubik_controller.h"
#include "runner/experiment_runner.h"
#include "runner/options_parser.h"
#include "sim/simulation.h"
#include "util/rng.h"
#include "workloads/trace_gen.h"

namespace rubik {
namespace {

// ------------------------------------------------------------------
// OptionsParser registration hygiene: a flag registered twice used to
// shadow silently (first registration won), hiding real CLI wiring
// bugs — e.g. a subcommand adding --bound-ms on top of addRunFlags.

TEST(OptionsParser, DuplicateFlagRegistrationThrows)
{
    char prog[] = "prog";
    char *argv[] = {prog};
    OptionsParser parser(1, argv);
    parser.flag("--verbose", [] {});
    EXPECT_THROW(parser.flag("--verbose", [] {}), std::logic_error);
    // A valued flag with the same name collides too: the token match
    // is name-based, not kind-based.
    EXPECT_THROW(parser.value("--verbose", [](const char *) {}),
                 std::logic_error);
}

TEST(OptionsParser, DuplicateValueRegistrationThrows)
{
    char prog[] = "prog";
    char *argv[] = {prog};
    OptionsParser parser(1, argv);
    parser.value("--seed", [](const char *) {});
    EXPECT_THROW(parser.value("--seed", [](const char *) {}),
                 std::logic_error);
    EXPECT_THROW(parser.flag("--seed", [] {}), std::logic_error);
    // The error names the flag, so the broken registration is
    // identifiable from the what() string alone.
    try {
        parser.value("--seed", [](const char *) {});
        FAIL() << "expected std::logic_error";
    } catch (const std::logic_error &e) {
        EXPECT_NE(std::string(e.what()).find("--seed"),
                  std::string::npos);
    }
}

TEST(OptionsParser, DistinctFlagsStillRegister)
{
    char prog[] = "prog";
    char a[] = "--csv";
    char *argv[] = {prog, a};
    bool csv = false;
    OptionsParser parser(2, argv);
    parser.flag("--csv", [&] { csv = true; });
    parser.value("--seed", [](const char *) {});
    parser.run();
    EXPECT_TRUE(csv);
}

/// Run addRunFlags over argv {"prog", flag, value}.
CommonRunOptions
parseRunFlag(const char *flag, const char *value)
{
    char prog[] = "prog";
    std::string f = flag, v = value;
    char *argv[] = {prog, f.data(), v.data()};
    OptionsParser parser(3, argv);
    CommonRunOptions opts;
    addRunFlags(parser, &opts);
    parser.run();
    return opts;
}

// --jobs is bounded by ExperimentRunner::kMaxWorkers (a pool starts
// one thread per worker); --seed and --requests parse strictly too.
// Parsing only: no runner is built from these values.
TEST(OptionsParser, RunFlagsAreStrictAndJobsIsBounded)
{
    EXPECT_EQ(parseRunFlag("--jobs", "0").jobs, 0);
    EXPECT_EQ(parseRunFlag("--jobs", "1024").jobs,
              ExperimentRunner::kMaxWorkers);
    EXPECT_EQ(parseRunFlag("--seed", "18446744073709551615").seed,
              UINT64_MAX);
    EXPECT_EQ(parseRunFlag("--requests", "0").requests, 0);

    const std::pair<const char *, const char *> bad[] = {
        {"--jobs", "1025"},    {"--jobs", "100000"}, {"--jobs", "-1"},
        {"--jobs", "4x"},      {"--seed", "-1"},     {"--seed", "abc"},
        {"--requests", "1e3"}, {"--requests", "-5"},
    };
    for (const auto &[flag, value] : bad) {
        EXPECT_EXIT(parseRunFlag(flag, value), ::testing::ExitedWithCode(1),
                    std::string(flag) + ": invalid value '" + value + "'")
            << flag << " " << value;
    }
}

TEST(ExperimentRunner, RunsAllJobsInSubmissionOrder)
{
    ExperimentRunner runner(4);
    std::vector<std::function<int()>> jobs;
    for (int i = 0; i < 100; ++i)
        jobs.push_back([i] { return i * i; });
    const std::vector<int> results = runner.runBatch(std::move(jobs));
    ASSERT_EQ(results.size(), 100u);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(results[i], i * i);
}

TEST(ExperimentRunner, DefaultWorkerCountPositive)
{
    EXPECT_GE(ExperimentRunner::defaultWorkerCount(), 1);
    ExperimentRunner runner;
    EXPECT_GE(runner.numWorkers(), 1);
}

// RUBIK_JOBS is honoured only as a whole number in [1, kMaxWorkers];
// anything else falls back to the (capped) hardware count. Only the
// count is computed: no runner is built from these values.
TEST(ExperimentRunner, DefaultWorkerCountBoundsRubikJobs)
{
    const char *saved = std::getenv("RUBIK_JOBS");
    const std::string restore = saved ? saved : "";
    ::unsetenv("RUBIK_JOBS");
    const int fallback = ExperimentRunner::defaultWorkerCount();
    EXPECT_GE(fallback, 1);
    EXPECT_LE(fallback, ExperimentRunner::kMaxWorkers);

    ::setenv("RUBIK_JOBS", "3", 1);
    EXPECT_EQ(ExperimentRunner::defaultWorkerCount(), 3);
    ::setenv("RUBIK_JOBS", "1024", 1);
    EXPECT_EQ(ExperimentRunner::defaultWorkerCount(),
              ExperimentRunner::kMaxWorkers);
    for (const char *bad : {"100000", "1025", "0", "-2", "3x", " 3", ""}) {
        ::setenv("RUBIK_JOBS", bad, 1);
        EXPECT_EQ(ExperimentRunner::defaultWorkerCount(), fallback)
            << "'" << bad << "'";
    }

    if (saved)
        ::setenv("RUBIK_JOBS", restore.c_str(), 1);
    else
        ::unsetenv("RUBIK_JOBS");
}

// Parallel simulation results must equal serial results bit for bit:
// every job owns its trace and seed, so scheduling cannot leak in.
TEST(ExperimentRunner, ParallelSimulationsMatchSerial)
{
    const DvfsModel dvfs = DvfsModel::haswell(4e-6);
    const PowerModel power(dvfs);
    const AppProfile app = makeApp(AppId::Masstree);
    const double nominal = dvfs.nominalFrequency();
    const std::vector<double> loads = {0.2, 0.3, 0.4, 0.5, 0.6};
    const uint64_t base_seed = 42;

    auto run_one = [&](std::size_t i) {
        const Trace t = generateLoadTrace(app, loads[i], 800, nominal,
                                          base_seed + i);
        RubikConfig cfg;
        cfg.latencyBound = 1e-3;
        RubikController policy(dvfs, cfg);
        return simulate(t, policy, dvfs, power);
    };

    std::vector<SimResult> serial;
    for (std::size_t i = 0; i < loads.size(); ++i)
        serial.push_back(run_one(i));

    ExperimentRunner runner(4);
    std::vector<std::function<SimResult()>> jobs;
    for (std::size_t i = 0; i < loads.size(); ++i)
        jobs.push_back([&, i] { return run_one(i); });
    const std::vector<SimResult> parallel =
        runner.runBatch(std::move(jobs));

    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(parallel[i].tailLatency(), serial[i].tailLatency());
        EXPECT_EQ(parallel[i].coreActiveEnergy(),
                  serial[i].coreActiveEnergy());
        ASSERT_EQ(parallel[i].completed.size(),
                  serial[i].completed.size());
        for (std::size_t j = 0; j < serial[i].completed.size(); ++j) {
            EXPECT_EQ(parallel[i].completed[j].completionTime,
                      serial[i].completed[j].completionTime);
        }
    }
}

// Repeated parallel batches are self-consistent (no run-to-run drift).
TEST(ExperimentRunner, ParallelRunsAreReproducible)
{
    auto batch = [] {
        ExperimentRunner runner(3);
        std::vector<std::function<uint64_t()>> jobs;
        for (int i = 0; i < 16; ++i) {
            jobs.push_back([i] {
                Rng rng(1000 + static_cast<uint64_t>(i));
                uint64_t acc = 0;
                for (int k = 0; k < 1000; ++k)
                    acc ^= rng.next();
                return acc;
            });
        }
        return runner.runBatch(std::move(jobs));
    };
    EXPECT_EQ(batch(), batch());
}

TEST(ExperimentRunner, PropagatesLowestIndexException)
{
    ExperimentRunner runner(4);
    std::atomic<int> completed{0};
    std::vector<std::function<int()>> jobs;
    for (int i = 0; i < 20; ++i) {
        jobs.push_back([i, &completed]() -> int {
            if (i == 7)
                throw std::runtime_error("job 7 failed");
            if (i == 13)
                throw std::logic_error("job 13 failed");
            ++completed;
            return i;
        });
    }
    try {
        runner.runBatch(std::move(jobs));
        FAIL() << "expected runBatch to rethrow";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "job 7 failed"); // index 7 < 13.
    }
    // All non-throwing jobs still ran to completion.
    EXPECT_EQ(completed.load(), 18);
}

TEST(ExperimentRunner, VoidBatchPropagatesExceptions)
{
    ExperimentRunner runner(2);
    std::vector<std::function<void()>> jobs;
    jobs.push_back([] {});
    jobs.push_back([] { throw std::runtime_error("boom"); });
    EXPECT_THROW(runner.runBatch(std::move(jobs)), std::runtime_error);
}

TEST(ExperimentRunner, ParallelForCoversAllIndices)
{
    ExperimentRunner runner(4);
    std::vector<int> hits(257, 0);
    runner.parallelFor(hits.size(),
                       [&](std::size_t i) { hits[i] = 1; });
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i], 1) << "index " << i;
}

// With >1 worker, two blocking jobs must overlap: each waits for the
// other to start, which can only happen if they run concurrently.
TEST(ExperimentRunner, WorkersRunConcurrently)
{
    ExperimentRunner runner(2);
    std::mutex m;
    std::condition_variable cv;
    int started = 0;
    auto job = [&] {
        std::unique_lock<std::mutex> lock(m);
        ++started;
        cv.notify_all();
        // Deadlocks (until timeout) if jobs were serialized.
        return cv.wait_for(lock, std::chrono::seconds(10),
                           [&] { return started == 2; });
    };
    std::vector<std::function<bool()>> jobs = {job, job};
    const auto ok = runner.runBatch(std::move(jobs));
    EXPECT_TRUE(ok[0]);
    EXPECT_TRUE(ok[1]);
}

// Wall-clock sanity: 4 workers finish 8 sleep-bound jobs materially
// faster than one worker does. Sleeps make this robust on loaded CI.
TEST(ExperimentRunner, MultiWorkerSpeedup)
{
    auto time_batch = [](int workers) {
        ExperimentRunner runner(workers);
        std::vector<std::function<void()>> jobs;
        for (int i = 0; i < 8; ++i) {
            jobs.push_back([] {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(50));
            });
        }
        const auto start = std::chrono::steady_clock::now();
        runner.runBatch(std::move(jobs));
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
            .count();
    };
    const double serial = time_batch(1);   // ~400 ms.
    const double parallel = time_batch(4); // ~100 ms.
    EXPECT_LT(parallel, serial * 0.75);
}

} // namespace
} // namespace rubik
