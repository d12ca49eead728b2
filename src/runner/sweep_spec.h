#ifndef RUBIK_RUNNER_SWEEP_SPEC_H
#define RUBIK_RUNNER_SWEEP_SPEC_H

/**
 * @file
 * Serializable sweep descriptions with deterministic sharding.
 *
 * A SweepSpec names an (app x load x policy x seed) experiment grid plus
 * its sizing — the unit of work `rubik_cli sweep` executes and the
 * format a multi-machine backend can ship around. The grid enumerates
 * cells in a fixed nested order (apps outermost, then loads, policies,
 * seeds), so a cell index fully identifies one experiment.
 *
 * Sharding partitions the cell range [0, numCells) into N contiguous
 * blocks: shard i owns [cells*i/N, cells*(i+1)/N). Contiguity is what
 * makes the merge trivial and byte-exact — concatenating the shard CSVs
 * in shard order reproduces the unsharded output bit for bit, because
 * each shard emits exactly the byte range of the full output its cells
 * would have produced (the writer emits the header only on shard 0).
 *
 * The text format is line-based `key = value` with `#` comments:
 *
 *     apps = masstree,xapian
 *     loads = 0.2,0.4,0.6
 *     policies = rubik,static
 *     seeds = 42,43
 *     requests = 9000
 *     fast = false
 *     bound_ms = 0
 *     transition_us = 4
 *
 * parse() and serialize() round-trip; parse errors throw
 * std::runtime_error (not fatal()) so library users and tests can
 * handle them.
 */

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace rubik {

/// One grid cell, identified by its flat index.
struct SweepCell
{
    std::size_t index = 0;
    std::string app;
    double load = 0.0;
    std::string policy;
    uint64_t seed = 0;
};

struct SweepSpec
{
    std::vector<std::string> apps;
    std::vector<double> loads;
    std::vector<std::string> policies;
    std::vector<uint64_t> seeds = {42};
    int requests = 9000;     ///< Per-cell trace length.
    bool fast = false;       ///< Quarter the trace (smoke sizing).
    double boundMs = 0.0;    ///< 0: auto per app (fixed tail @50%).
    double transitionUs = 4.0;

    /// Grid size: apps * loads * policies * seeds.
    std::size_t numCells() const;

    /// Decode a flat index (apps outermost, seeds innermost).
    SweepCell cell(std::size_t index) const;

    /// Trace length after `fast` sizing (quartered, floor 200).
    int effectiveRequests() const;

    /// Structural validation; throws std::runtime_error on empty
    /// lists, out-of-range loads, or a non-positive request count.
    void validate() const;

    /// Canonical text form; parse(serialize()) == *this.
    std::string serialize() const;

    /// Parse the text format; throws std::runtime_error with a
    /// line-numbered message on malformed input.
    static SweepSpec parse(const std::string &text);

    /// Parse a spec file; throws std::runtime_error if unreadable.
    static SweepSpec parseFile(const std::string &path);
};

/// A shard's half-open cell range.
struct ShardRange
{
    std::size_t begin = 0;
    std::size_t end = 0;

    std::size_t size() const { return end - begin; }
    bool empty() const { return begin == end; }
};

/**
 * Contiguous partition of [0, num_cells) into `num_shards` blocks:
 * shard i gets [num_cells*i/N, num_cells*(i+1)/N). Every cell lands in
 * exactly one shard, shards differ in size by at most one cell, and
 * shards beyond the cell count come back empty. Throws
 * std::runtime_error unless 0 <= shard < num_shards.
 */
ShardRange shardRange(std::size_t num_cells, int shard, int num_shards);

/**
 * Merge shard CSVs produced by a sharded run: concatenate the contents
 * in order. As a convenience for merging independently produced full
 * CSVs, a later shard's first line is dropped when it is byte-identical
 * to the first shard's first line (a repeated header); shards written
 * with the header-once convention are concatenated untouched, so the
 * merge of a shard set equals the unsharded output byte for byte.
 */
std::string mergeCsvShards(const std::vector<std::string> &shards);

/**
 * File variant of mergeCsvShards: reads every input, writes `out_path`.
 * Throws std::runtime_error on IO failure or an empty input list.
 */
void mergeCsvShardFiles(const std::string &out_path,
                        const std::vector<std::string> &shard_paths);

} // namespace rubik

#endif // RUBIK_RUNNER_SWEEP_SPEC_H
