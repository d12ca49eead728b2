/**
 * @file
 * Guards the controller's heap use against silent regressions:
 * RubikController::selectFrequency must perform no heap allocation in
 * steady state (the paper's "updates take negligible time", Sec. 4.2 —
 * a handful of table lookups and divides), and periodic table rebuilds
 * over a drifting profile must not accumulate heap blocks. A counting
 * global operator new/delete tracks allocations and live blocks.
 */

#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "core/rubik_controller.h"
#include "power/dvfs_model.h"
#include "power/power_model.h"
#include "sim/core_engine.h"
#include "util/rng.h"
#include "util/units.h"

#if defined(__SANITIZE_ADDRESS__)
#define RUBIK_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define RUBIK_ASAN 1
#endif
#endif
#ifndef RUBIK_ASAN
#define RUBIK_ASAN 0
#endif

#if !RUBIK_ASAN
// Counting allocator: every global allocation bumps the allocation
// counter and the live-block count; every delete of a block drops the
// live count. Not compiled under ASan, whose interceptors own operator
// new.
namespace {
unsigned long long g_allocations = 0;
long long g_liveBlocks = 0;

void *
countedAlloc(std::size_t size)
{
    if (void *p = std::malloc(size)) {
        ++g_allocations;
        ++g_liveBlocks;
        return p;
    }
    throw std::bad_alloc();
}

void
countedFree(void *p) noexcept
{
    if (p)
        --g_liveBlocks;
    std::free(p);
}
} // namespace

void *
operator new(std::size_t size)
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size)
{
    return countedAlloc(size);
}

void
operator delete(void *p) noexcept
{
    countedFree(p);
}

void
operator delete[](void *p) noexcept
{
    countedFree(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    countedFree(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    countedFree(p);
}
#endif // !RUBIK_ASAN

namespace rubik {
namespace {

TEST(AllocGuard, SelectFrequencyAllocatesNothingInSteadyState)
{
#if RUBIK_ASAN
    GTEST_SKIP() << "allocation counting disabled under ASan";
#else
    const DvfsModel dvfs = DvfsModel::haswell();
    const PowerModel pm(dvfs);
    RubikConfig cfg;
    cfg.latencyBound = 1.0 * kMs;
    cfg.warmupSamples = 16;
    RubikController rubik(dvfs, cfg);

    CoreEngine core(dvfs, pm);
    Rng rng(3);
    for (int i = 0; i < 64; ++i) {
        CompletedRequest done;
        done.computeCycles = rng.lognormal(13.0, 0.3);
        done.memoryTime = rng.lognormal(-9.0, 0.3);
        done.completionTime = i * 1e-4;
        rubik.onCompletion(done, core.view());
    }
    rubik.periodicUpdate(core.view()); // builds the table
    ASSERT_TRUE(rubik.warm());

    // Deep queue: positions both inside the exact table and out in the
    // Gaussian extension.
    for (int i = 0; i < 40; ++i) {
        Request r;
        r.arrivalTime = core.now();
        r.computeCycles = 5e5;
        r.memoryTime = 1e-4;
        core.enqueue(r);
    }
    ASSERT_TRUE(core.busy());

    // Warm any lazy one-time state, then count.
    (void)rubik.selectFrequency(core.view());

    const unsigned long long before = g_allocations;
    double freq = 0.0;
    for (int i = 0; i < 100; ++i)
        freq = rubik.selectFrequency(core.view());
    const unsigned long long after = g_allocations;

    EXPECT_GT(freq, 0.0);
    EXPECT_EQ(after - before, 0ull)
        << "selectFrequency allocated on the decision path";
#endif
}

TEST(AllocGuard, PeriodicRebuildsKeepLiveHeapBlocksFlat)
{
#if RUBIK_ASAN
    GTEST_SKIP() << "allocation counting disabled under ASan";
#else
    // One controller over a drifting profile: every round brings 64
    // fresh completions (a multiple of the profiler deque's block size,
    // so its block count repeats) whose distributions shift a little,
    // then one periodic rebuild. Nothing may be retained across
    // rebuilds beyond the current table and profile.
    const DvfsModel dvfs = DvfsModel::haswell();
    const PowerModel pm(dvfs);
    RubikConfig cfg;
    cfg.latencyBound = 1.0 * kMs;
    cfg.feedbackWindow = 0.05;
    RubikController rubik(dvfs, cfg);
    CoreEngine core(dvfs, pm);
    Rng rng(11);

    constexpr int kPerRound = 64;
    double t = 0.0;
    auto round = [&](int k, std::size_t completions) {
        const double drift = 0.01 * k;
        for (std::size_t i = 0; i < completions; ++i) {
            t += cfg.updatePeriod / kPerRound;
            CompletedRequest done;
            done.computeCycles = rng.lognormal(13.0 + drift, 0.3);
            done.memoryTime = rng.lognormal(-9.0 - drift, 0.3);
            done.arrivalTime = t - 1e-4;
            done.completionTime = t;
            rubik.onCompletion(done, core.view());
        }
        core.advanceTo(t);
        rubik.periodicUpdate(core.view());
    };

    // Deltas are recorded into preallocated storage and checked at the
    // end, so a failure message cannot perturb the counts.
    constexpr int kRebuilds = 12;
    std::vector<long long> delta(kRebuilds, 0);

    round(0, cfg.profileWindow); // fill the window, first rebuild
    ASSERT_EQ(rubik.tableRebuilds(), 1u);
    const long long afterFirst = g_liveBlocks;
    for (int k = 1; k <= kRebuilds; ++k) {
        round(k, kPerRound);
        delta[k - 1] = g_liveBlocks - afterFirst;
    }
    EXPECT_EQ(rubik.tableRebuilds(), 1u + kRebuilds);
    for (int k = 0; k < kRebuilds; ++k) {
        EXPECT_EQ(delta[k], 0)
            << "live heap blocks changed after rebuild " << k + 2;
    }
#endif
}

} // namespace
} // namespace rubik
