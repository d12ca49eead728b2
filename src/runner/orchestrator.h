#ifndef RUBIK_RUNNER_ORCHESTRATOR_H
#define RUBIK_RUNNER_ORCHESTRATOR_H

/**
 * @file
 * The one dispatch engine, and the sweep and bench entry points built
 * on it.
 *
 * runDispatch runs a list of units — a shell command plus an optional
 * output check — on a fixed number of slots. It owns spawn, retry with
 * backoff, lease/steal, stderr capture and the in-order merge:
 *
 *  - The first wave starts the first `slots` units at once; later
 *    units are leased as slots free up.
 *  - A unit whose lease expires (leaseTimeoutSec, doubled per
 *    attempt) is re-dispatched by an idle slot while the straggler
 *    keeps running, and the straggler is hard-killed at twice its
 *    lease. The first valid result wins; a duplicate must be
 *    byte-equal (at-most-once merge).
 *  - A failed attempt (nonzero status, lease kill, or a check
 *    diagnosis) is retried with exponential backoff until the unit
 *    has spent maxAttempts spawns. After the first unit runs out, no
 *    new attempt starts; in-flight attempts finish or hit their
 *    lease kill.
 *  - Every attempt's stderr is replayed on this process's stderr once
 *    the run ends, in unit order and then attempt order, whatever the
 *    outcome.
 *  - On failure the error lists, in unit order, every unit whose
 *    latest attempt failed, with its decoded status (or check
 *    diagnosis) and stderr tail. Nothing is returned, so nothing can
 *    be merged.
 *
 * Three entry points use it:
 *
 *  - runStaticSweep: `sweep --backend B --shards N` — one
 *    `sweep --cells B-E` batch per non-empty shard, no ledger, no
 *    lease, rows checked, header + rows on `out`;
 *  - runOrchestratedSweep: `sweep --out/--ledger/--resume/--schedule
 *    dynamic` — the missing cells in leased batches, each committed
 *    batch appended to the checksummed, fsync'd ledger
 *    (runner/ledger.h) before it counts as done, so `--resume` after
 *    any crash or SIGKILL is byte-identical to an uninterrupted run.
 *    The queue's state is mirrored to `<ledger>.work`;
 *  - runArgvShards: bench self-dispatch — `argv --shard i/N` per
 *    shard, no check, merged with mergeCsvShards.
 *
 * The local backend never dispatches: sweeps run in-process on the
 * ExperimentRunner pool.
 */

#include <cstddef>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "runner/backend.h"
#include "runner/sweep_spec.h"

namespace rubik {

/// One dispatched unit of work.
struct DispatchUnit
{
    /// Shell command; its stdout is the unit's output.
    std::string command;
    /// How diagnostics name the unit: "shard i/N", plus
    /// " (cells B-E)" for sweep batches.
    std::string name;
    /// Optional output check: "" accepts the output (which the check
    /// may normalize in place); anything else is a diagnosis that
    /// fails the attempt. Unset accepts every output.
    std::function<std::string(std::string &output)> check;
};

/**
 * Run `units` on config.numShards slots with config.maxAttempts spawns
 * per unit, as described above, and return the accepted outputs in
 * unit order. `on_commit(i, output)` runs under the engine lock when
 * unit i is first accepted; an exception from it fails the run. A
 * non-empty `work_path` mirrors the queue there on every transition.
 * Throws std::runtime_error when any unit fails.
 */
std::vector<std::string> runDispatch(
    const std::vector<DispatchUnit> &units, const BackendConfig &config,
    double lease_timeout_sec = 0.0,
    const std::function<void(std::size_t, const std::string &)>
        &on_commit = {},
    const std::string &work_path = "");

struct OrchestratorOptions
{
    /// Backend description ("local", "subprocess", "command:<tmpl>").
    std::string backendDesc = "local";
    /// Slot count, jobs, attempts, forwarded trace-cache flags,
    /// selfExe. numShards bounds concurrent batch children.
    BackendConfig backend;
    /// Merged CSV destination; "" writes to stdout. A non-empty path
    /// is written atomically (tmp + fsync + rename).
    std::string outPath;
    /// Ledger path; "" derives outPath + ".ledger" when outPath is
    /// set, else disables the ledger (stdout one-shot mode).
    std::string ledgerPath;
    /// Continue from an existing ledger instead of starting over.
    bool resume = false;
    /// Cells per leased batch; 0 sizes automatically (~4 batches per
    /// shard slot, at least one cell).
    std::size_t batchCells = 0;
    /// Seconds before a running batch's lease expires and an idle
    /// worker may re-dispatch it (doubled per attempt); 0 disables
    /// stealing and coordinator kills.
    double leaseTimeoutSec = 0.0;
};

/**
 * Run `spec` to a complete merged CSV under the options above.
 * Throws std::runtime_error on an invalid spec, a ledger/spec
 * mismatch, or a batch that exhausts its attempts — the error names
 * the batch, its cell range, and the decoded child status; the output
 * path is left untouched (no partial CSV is ever published).
 */
void runOrchestratedSweep(const SweepSpec &spec,
                          const OrchestratorOptions &options);

/**
 * Static dispatch of `spec` through the command backend `backend_desc`:
 * one batch per non-empty shardRange(cells, i, config.numShards),
 * named `shard i/N (cells B-E)`, whose rows are checked (a leading
 * sweep header from a `--shard {shard}` template is dropped on the
 * batch at cell 0). Writes the header and every row to `out` — bytes
 * identical to an unsharded runSweep — or throws and writes nothing.
 */
void runStaticSweep(const SweepSpec &spec, const std::string &backend_desc,
                    const BackendConfig &config, std::FILE *out);

/**
 * Bench self-dispatch: run `argv` (binary + arguments, shard flag
 * excluded) once per shard with `--shard i/N` appended through the
 * command backend `backend_desc`, and write the outputs merged with
 * mergeCsvShards to `out`. Throws std::runtime_error on failure (and
 * for the local backend, which executes in-process).
 */
void runArgvShards(const std::vector<std::string> &argv,
                   const std::string &backend_desc,
                   const BackendConfig &config, std::FILE *out);

} // namespace rubik

#endif // RUBIK_RUNNER_ORCHESTRATOR_H
