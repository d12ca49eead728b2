#ifndef RUBIK_RUNNER_BACKEND_H
#define RUBIK_RUNNER_BACKEND_H

/**
 * @file
 * Dispatch backends: where a sweep's or a bench's shards run.
 *
 * A `--backend` description is either `local` — run in this process,
 * on the ExperimentRunner pool (the default) — or a command template
 * that /bin/sh runs once per dispatched unit:
 *
 *  - `command:<template>` wraps the unit's canonical child command
 *    (`ssh host {argv}`, a job-queue submit wrapper, ...);
 *  - `subprocess` is exactly `command:{argv}`: self-spawn the
 *    canonical child on this machine. Pair with a shared
 *    --trace-cache so the children generate each common trace once.
 *
 * Every dispatched unit runs through the one engine in
 * runner/orchestrator.h (runDispatch): concurrent children, retry
 * with backoff, lease/steal, stderr replay in unit order, and an
 * in-order merge that never publishes a partial result. A static
 * sweep dispatches one `sweep --spec F --cells B-E` batch per
 * non-empty shard; a bench dispatches itself once per shard with
 * `--shard i/N` appended.
 *
 * Command template contract: these placeholders are substituted per
 * unit (unknown braces such as ${VAR} pass through untouched):
 *
 *   {argv}     the canonical local child command, shell-quoted;
 *              templates like `ssh host {argv}` wrap it verbatim
 *   {spec}     path to the serialized spec file (sweeps only)
 *   {cells}    the unit's half-open cell range "B-E" (sweeps only)
 *   {shard}    "i/N"      {index} "i"      {nshards} "N"
 *   {jobs}     the per-child --jobs value (0 = hardware default)
 *
 * A template must reference {argv}, {shard}, or {index}; otherwise
 * every unit would run the identical command and the merge could not
 * be a partition.
 */

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace rubik {

/// Dispatch parameters shared by every dispatched run.
struct BackendConfig
{
    int numShards = 1;   ///< Shards, and concurrent dispatch slots.
    int jobs = 0;        ///< Worker threads per child (0 = hardware).
    int maxAttempts = 3; ///< Spawns per unit: first try, retries and
                         ///< steals (`--retries N` sets N+1).
    std::string traceCacheDir; ///< Forwarded as --trace-cache.
    std::string traceCacheCap; ///< Forwarded as --cache-cap (size text).
    bool traceStats = false;   ///< Forward --trace-stats to children.
    std::string selfExe;       ///< Binary the canonical child runs.
};

/**
 * The command template for a `--backend` description: "" for `local`
 * (or an empty description), "{argv}" for `subprocess`, and <tmpl>
 * for `command:<tmpl>`. Throws std::runtime_error on an unknown
 * description or an invalid template.
 */
std::string backendTemplate(const std::string &desc);

/// POSIX shell single-quote `arg` (embedded quotes escaped).
std::string shellQuote(const std::string &arg);

/// Shell-quote every word of `argv` and join them with spaces.
std::string joinQuoted(const std::vector<std::string> &argv);

/// Replace every `{key}` from `fields` in `tmpl` (unknown braces kept).
std::string
instantiateCommandTemplate(const std::string &tmpl,
                           const std::map<std::string, std::string>
                               &fields);

/// This executable's path (/proc/self/exe when available, else argv0).
std::string selfExePath(const char *argv0);

/**
 * The shell command for unit `index` of `count`: `tmpl` with {argv}
 * set to `argv` (an already-quoted command line), {shard}/{index}/
 * {nshards}/{jobs} filled in, and {spec}/{cells} when non-empty.
 */
std::string unitCommand(const std::string &tmpl, const std::string &argv,
                        int index, int count, int jobs,
                        const std::string &spec_path = "",
                        const std::string &cells = "");

/**
 * The command that runs cells [begin, end) of the spec at `spec_path`
 * as unit `index` of `count`: the template around the canonical
 * `selfExe sweep --spec P --cells B-E` child, which carries the
 * forwarded --jobs / --trace-cache / --cache-cap / --trace-stats.
 */
std::string sweepBatchCommand(const std::string &tmpl,
                              const BackendConfig &config,
                              const std::string &spec_path,
                              std::size_t begin, std::size_t end,
                              int index, int count);

} // namespace rubik

#endif // RUBIK_RUNNER_BACKEND_H
