#include "core/target_tail_table.h"

#include <algorithm>
#include <cmath>

#include "runner/experiment_runner.h"
#include "stats/percentile.h"
#include "util/error.h"

namespace rubik {

namespace {

/**
 * Compute one row's exact tails: percentiles of the convolution chain
 * S_0 ⊛ S^(⊛i) for i = 0..positions-1, one convolveWith per step.
 */
std::vector<double>
tailChain(const DiscreteDistribution &s0, const DiscreteDistribution &s,
          const TailTableConfig &cfg)
{
    ConvolveOptions opts;
    opts.useFft = cfg.useFft;

    std::vector<double> tails;
    tails.reserve(cfg.positions);
    DiscreteDistribution cur = s0;
    for (std::size_t i = 0; i < cfg.positions; ++i) {
        double tail = cur.quantileUpper(cfg.percentile);
        // Adding nonnegative work cannot shrink a quantile; clamp out
        // discretization noise so the table is monotone in position
        // (the conservative direction).
        if (i > 0)
            tail = std::max(tail, tails.back());
        tails.push_back(tail);
        if (i + 1 < cfg.positions)
            cur = cur.convolveWith(s, opts);
    }
    return tails;
}

/// One boundary chain: the tails and moments of S_0 conditioned on the
/// elapsed work at boundary b (quantile b / rows of S_0; none at b = 0).
struct BoundaryChain
{
    std::vector<double> tails;
    double mean = 0.0, var = 0.0;
};

BoundaryChain
boundaryChain(const DiscreteDistribution &s0, const DiscreteDistribution &s,
              std::size_t b, const TailTableConfig &cfg)
{
    const double q =
        static_cast<double>(b) / static_cast<double>(cfg.rows);
    const double elapsed = b == 0 ? 0.0 : s0.quantile(q);
    const DiscreteDistribution cond = s0.conditionalOnElapsed(elapsed);
    return {tailChain(cond, s, cfg), cond.mean(), cond.variance()};
}

} // anonymous namespace

TargetTailTable
TargetTailTable::build(const DiscreteDistribution &compute,
                       const DiscreteDistribution &memory,
                       const TailTableConfig &config)
{
    return build(compute, memory, compute, memory, config);
}

TargetTailTable::MixTerms
TargetTailTable::mixTerms(const DiscreteDistribution &mix_compute,
                          const DiscreteDistribution &mix_memory,
                          const TailTableConfig &config)
{
    RUBIK_ASSERT(config.rows >= 1, "need at least one row");
    RUBIK_ASSERT(config.positions >= 1, "need at least one position");
    RUBIK_ASSERT(config.percentile > 0 && config.percentile < 1,
                 "percentile must be in (0,1)");
    MixTerms terms;
    terms.zp = inverseNormalCdf(config.percentile);
    terms.meanC = mix_compute.mean();
    terms.varC = mix_compute.variance();
    terms.meanM = mix_memory.mean();
    terms.varM = mix_memory.variance();
    return terms;
}

TargetTailTable
TargetTailTable::build(const DiscreteDistribution &s0_compute,
                       const DiscreteDistribution &s0_memory,
                       const DiscreteDistribution &mix_compute,
                       const DiscreteDistribution &mix_memory,
                       const TailTableConfig &config)
{
    return std::move(
        buildImpl({{&s0_compute, &s0_memory}}, mix_compute, mix_memory,
                  config, mixTerms(mix_compute, mix_memory, config))[0]);
}

std::vector<std::optional<TargetTailTable>>
TargetTailTable::buildBatch(
    const DiscreteDistribution &mix_compute,
    const DiscreteDistribution &mix_memory,
    const std::vector<const DiscreteDistribution *> &class_compute,
    const std::vector<const DiscreteDistribution *> &class_memory,
    const TailTableConfig &config)
{
    RUBIK_ASSERT(class_compute.size() == class_memory.size(),
                 "class compute/memory lists must match");
    Sources sources = {{&mix_compute, &mix_memory}};
    for (std::size_t k = 0; k < class_compute.size(); ++k) {
        if (!class_compute[k] && !class_memory[k])
            continue;
        RUBIK_ASSERT(class_compute[k] && class_memory[k],
                     "class compute/memory must be paired");
        sources.emplace_back(class_compute[k], class_memory[k]);
    }
    std::vector<TargetTailTable> tables =
        buildImpl(sources, mix_compute, mix_memory, config,
                  mixTerms(mix_compute, mix_memory, config));

    std::vector<std::optional<TargetTailTable>> out;
    out.reserve(1 + class_compute.size());
    out.emplace_back(std::move(tables[0]));
    std::size_t next = 1;
    for (std::size_t k = 0; k < class_compute.size(); ++k) {
        if (class_compute[k])
            out.emplace_back(std::move(tables[next++]));
        else
            out.emplace_back(std::nullopt);
    }
    return out;
}

std::vector<TargetTailTable>
TargetTailTable::buildImpl(const Sources &s0,
                           const DiscreteDistribution &mix_compute,
                           const DiscreteDistribution &mix_memory,
                           const TailTableConfig &config,
                           const MixTerms &terms)
{
    // Evaluate the conditional chains once per row *boundary*: row r's
    // upper boundary is row r+1's lower boundary, so rows+1 boundary
    // chains cover every row from both sides at roughly half the cost of
    // evaluating two chains per row.
    const std::size_t n_bounds =
        config.conservativeRowBounds ? config.rows + 1 : config.rows;

    // Task k is table k / (2 n_bounds), boundary (k / 2) % n_bounds, and
    // its compute chain (even k) or memory chain (odd k).
    std::vector<BoundaryChain> chains(s0.size() * n_bounds * 2);
    ExperimentRunner::parallelForOnSpareCores(
        chains.size(), [&](std::size_t k) {
            const auto &[s0_compute, s0_memory] = s0[k / (2 * n_bounds)];
            const std::size_t b = (k / 2) % n_bounds;
            chains[k] = k % 2 == 0
                            ? boundaryChain(*s0_compute, mix_compute, b,
                                            config)
                            : boundaryChain(*s0_memory, mix_memory, b,
                                            config);
        });

    std::vector<TargetTailTable> tables;
    tables.reserve(s0.size());
    for (std::size_t k = 0; k < s0.size(); ++k) {
        TargetTailTable &t = tables.emplace_back(TargetTailTable());
        t.config_ = config;
        t.zp_ = terms.zp;
        t.meanC_ = terms.meanC;
        t.varC_ = terms.varC;
        t.meanM_ = terms.meanM;
        t.varM_ = terms.varM;

        // Rows are quantiles of the S_0 source: the in-flight request's
        // elapsed work is compared against its own class's distribution.
        const DiscreteDistribution &s0_compute = *s0[k].first;
        const double n_rows = static_cast<double>(config.rows);
        t.rowBounds_.resize(config.rows);
        for (std::size_t r = 0; r < config.rows; ++r) {
            t.rowBounds_[r] =
                s0_compute.quantile(static_cast<double>(r) / n_rows);
        }
        t.rowBounds_[0] = 0.0;

        t.cycles_.resize(config.rows);
        t.memTime_.resize(config.rows);
        t.meanC0_.resize(config.rows);
        t.varC0_.resize(config.rows);
        t.meanM0_.resize(config.rows);
        t.varM0_.resize(config.rows);

        const BoundaryChain *bounds = &chains[k * n_bounds * 2];
        for (std::size_t r = 0; r < config.rows; ++r) {
            // Take the worse (larger-tail) of the row's two boundaries —
            // conservative for services whose conditional remaining work
            // can grow with elapsed work (heavy tails).
            const std::size_t hi =
                config.conservativeRowBounds ? r + 1 : r;
            const BoundaryChain &lo_c = bounds[2 * r];
            const BoundaryChain &lo_m = bounds[2 * r + 1];
            const BoundaryChain &hi_c = bounds[2 * hi];
            const BoundaryChain &hi_m = bounds[2 * hi + 1];

            t.cycles_[r].resize(config.positions);
            t.memTime_[r].resize(config.positions);
            for (std::size_t i = 0; i < config.positions; ++i) {
                t.cycles_[r][i] = std::max(lo_c.tails[i], hi_c.tails[i]);
                t.memTime_[r][i] = std::max(lo_m.tails[i], hi_m.tails[i]);
            }
            t.meanC0_[r] = std::max(lo_c.mean, hi_c.mean);
            t.varC0_[r] = std::max(lo_c.var, hi_c.var);
            t.meanM0_[r] = std::max(lo_m.mean, hi_m.mean);
            t.varM0_[r] = std::max(lo_m.var, hi_m.var);
        }
    }
    return tables;
}

std::size_t
TargetTailTable::rowForBounds(const std::vector<double> &bounds,
                              double omega)
{
    // Last row whose lower bound is <= omega. The bounds are
    // non-decreasing (quantiles of increasing q), so the first bound
    // strictly above omega ends the run of rows the old linear scan
    // would have accepted; on duplicate bounds this picks the last of
    // the run, exactly as the scan did.
    const auto it = std::upper_bound(bounds.begin(), bounds.end(), omega);
    if (it == bounds.begin())
        return 0;
    return static_cast<std::size_t>(it - bounds.begin()) - 1;
}

std::size_t
TargetTailTable::rowForElapsed(double omega) const
{
    return rowForBounds(rowBounds_, omega);
}

double
TargetTailTable::tailCycles(std::size_t row, std::size_t position) const
{
    RUBIK_ASSERT(row < cycles_.size(), "row out of range");
    if (position < config_.positions)
        return cycles_[row][position];
    // Gaussian CLT extension: S_i = S_0 + i * S. Clamped to the last
    // exact entry so the table stays monotone across the switchover.
    const double i = static_cast<double>(position);
    const double mean = meanC0_[row] + i * meanC_;
    const double var = varC0_[row] + i * varC_;
    return std::max(mean + zp_ * std::sqrt(std::max(0.0, var)),
                    cycles_[row].back());
}

double
TargetTailTable::tailMemTime(std::size_t row, std::size_t position) const
{
    RUBIK_ASSERT(row < memTime_.size(), "row out of range");
    if (position < config_.positions)
        return memTime_[row][position];
    const double i = static_cast<double>(position);
    const double mean = meanM0_[row] + i * meanM_;
    const double var = varM0_[row] + i * varM_;
    return std::max(mean + zp_ * std::sqrt(std::max(0.0, var)),
                    memTime_[row].back());
}

} // namespace rubik
