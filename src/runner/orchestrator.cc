#include "runner/orchestrator.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include <unistd.h>

#include "runner/fault.h"
#include "runner/ledger.h"
#include "runner/subproc.h"
#include "runner/sweep_runner.h"

namespace rubik {

namespace {

using Clock = std::chrono::steady_clock;

std::chrono::duration<double>
secondsOf(double s)
{
    return std::chrono::duration<double>(s);
}

Clock::time_point
deadlineAfter(double s)
{
    return Clock::now() +
           std::chrono::duration_cast<Clock::duration>(secondsOf(s));
}

/// Scheduling state of one unit.
struct UnitState
{
    int inflight = 0; ///< Attempts currently running.
    int spawns = 0;   ///< Attempts ever launched (incl. steals).
    int failures = 0; ///< Attempts that came back failed.
    bool done = false;
    Clock::time_point stealAt{};   ///< Newest attempt's lease expiry.
    Clock::time_point notBefore{}; ///< Retry backoff gate.
    std::string output;            ///< Accepted output.
    std::string lastError;
};

/// Shared state of one runDispatch call.
struct Engine
{
    const std::vector<DispatchUnit> *units = nullptr;
    std::vector<UnitState> state;
    std::string scratchPath;
    const std::function<void(std::size_t, const std::string &)>
        *onCommit = nullptr;
    std::string workPath;
    double leaseTimeoutSec = 0.0;
    int maxAttempts = 3;

    std::mutex mutex;
    std::condition_variable cv;
    std::size_t doneCount = 0;
    /// Set once a unit runs out of attempts (or on `fatal`): no new
    /// attempt starts after it.
    bool stop = false;
    /// A failure no attempt owns: a ledger error or disagreeing
    /// duplicates.
    std::string fatal;

    /// The lease of a unit's `attempt`-th spawn: doubled per attempt
    /// (exponential backoff for stragglers); 0 when leases are off.
    double leaseFor(int attempt) const
    {
        return leaseTimeoutSec *
               static_cast<double>(1 << std::min(attempt - 1, 10));
    }

    std::string capturePath(std::size_t unit, int attempt,
                            const char *ext) const
    {
        return scratchPath + "/unit" + std::to_string(unit) +
               ".attempt" + std::to_string(attempt) + ext;
    }

    /// Start an attempt of `unit`; returns its attempt number.
    int claimLocked(std::size_t unit)
    {
        UnitState &u = state[unit];
        ++u.inflight;
        const int attempt = ++u.spawns;
        if (leaseTimeoutSec > 0.0)
            u.stealAt = deadlineAfter(leaseFor(attempt));
        publishLocked();
        return attempt;
    }

    /// Mirror the queue to workPath so an in-flight run is
    /// inspectable from outside. Best effort; advisory only.
    void publishLocked() const
    {
        if (workPath.empty())
            return;
        std::FILE *f = std::fopen(workPath.c_str(), "w");
        if (!f)
            return;
        std::fprintf(f, "# rubik dispatch work queue: %zu/%zu units "
                        "done\n",
                     doneCount, state.size());
        for (std::size_t i = 0; i < state.size(); ++i) {
            const UnitState &u = state[i];
            const char *phase = u.done           ? "done"
                                : u.inflight > 0 ? "leased"
                                                 : "pending";
            std::fprintf(f, "%s state %s spawns %d failures %d\n",
                         (*units)[i].name.c_str(), phase, u.spawns,
                         u.failures);
        }
        std::fclose(f);
    }
};

/**
 * Run one attempt of one unit to completion (or abandonment) and
 * apply its outcome under the engine lock. The caller has already
 * claimed it (claimLocked).
 */
void
runAttempt(Engine &e, std::size_t index, int attempt)
{
    const DispatchUnit &unit = (*e.units)[index];
    // Injected faults fire on a unit's first dispatch only: retries
    // and steals run clean, so recovery is possible by construction.
    const std::string cmd =
        attempt > 1 ? "unset RUBIK_FAULT; " + unit.command
                    : unit.command;
    const std::string out_path = e.capturePath(index, attempt, ".out");
    const std::string err_path = e.capturePath(index, attempt, ".err");

    const pid_t pid = spawnShellCommand(cmd, out_path, err_path);
    const auto spawned = Clock::now();
    // The hard kill gives a stealer one extra lease period to win
    // before the straggler is put down.
    const double lease = e.leaseFor(attempt);

    int status = -1;
    bool exited = false;
    bool lease_killed = false;
    bool superseded = false;
    for (;;) {
        if (waitCommandFor(pid, 0.05, &status)) {
            exited = true;
            break;
        }
        std::lock_guard<std::mutex> lock(e.mutex);
        if (e.state[index].done) {
            superseded = true;
            break;
        }
        if (lease > 0.0 &&
            Clock::now() >= spawned + secondsOf(2.0 * lease)) {
            lease_killed = true;
            break;
        }
    }
    if (!exited)
        killCommandGroup(pid);

    std::string output;
    std::string failure;
    if (superseded) {
        // A stolen duplicate finished elsewhere: discard this
        // attempt's output entirely.
    } else if (lease_killed) {
        failure = "command `" + unit.command +
                  "` exceeded its lease (killed by the coordinator "
                  "after " +
                  std::to_string(2.0 * lease) + " s)";
    } else if (!commandSucceeded(status)) {
        failure =
            "command `" + unit.command + "` " + describeWaitStatus(status);
    } else {
        output = readFileText(out_path);
        const std::string diag = unit.check ? unit.check(output) : "";
        if (!diag.empty()) {
            failure = "command `" + unit.command +
                      "` produced invalid output: " + diag;
        }
    }
    if (!failure.empty()) {
        const std::string tail = stderrTail(readFileText(err_path));
        if (!tail.empty())
            failure += "; stderr:\n" + tail;
    }

    std::lock_guard<std::mutex> lock(e.mutex);
    UnitState &u = e.state[index];
    --u.inflight;
    if (superseded) {
        e.cv.notify_all();
        return;
    }
    if (failure.empty()) {
        if (u.done) {
            // At-most-once merge: a duplicate must be byte-identical
            // to the winner; anything else means the run is not
            // deterministic and must not be published.
            if (u.output != output) {
                e.fatal = unit.name +
                          ": duplicate attempts disagree — "
                          "nondeterministic output, refusing to merge";
                e.stop = true;
            }
        } else {
            try {
                if (*e.onCommit)
                    (*e.onCommit)(index, output);
                u.output = std::move(output);
                u.done = true;
                ++e.doneCount;
            } catch (const std::exception &ex) {
                e.fatal = ex.what();
                e.stop = true;
            }
        }
    } else if (!u.done) {
        u.lastError = failure;
        ++u.failures;
        if (u.spawns >= e.maxAttempts && u.inflight == 0) {
            e.stop = true;
        } else {
            u.notBefore = deadlineAfter(
                0.2 * static_cast<double>(1 << std::min(u.failures, 6)));
        }
    }
    e.publishLocked();
    e.cv.notify_all();
}

/// One slot: run the pre-claimed first unit, then lease (or steal)
/// units until the run is done or stopped.
void
slotLoop(Engine &e, std::size_t first)
{
    runAttempt(e, first, 1);
    std::unique_lock<std::mutex> lock(e.mutex);
    for (;;) {
        if (e.stop || e.doneCount == e.state.size())
            return;
        std::size_t claim = e.state.size();
        const auto now = Clock::now();
        for (std::size_t i = 0; i < e.state.size(); ++i) {
            const UnitState &u = e.state[i];
            if (u.done || u.spawns >= e.maxAttempts)
                continue;
            const bool fresh = u.inflight == 0 && now >= u.notBefore;
            const bool stale = u.inflight > 0 &&
                               e.leaseTimeoutSec > 0.0 &&
                               now >= u.stealAt;
            if (fresh || stale) {
                claim = i;
                break;
            }
        }
        if (claim == e.state.size()) {
            e.cv.wait_for(lock, std::chrono::milliseconds(100));
            continue;
        }
        const int attempt = e.claimLocked(claim);
        lock.unlock();
        runAttempt(e, claim, attempt);
        lock.lock();
    }
}

/**
 * Shape check for a sweep batch's rows: exactly `cells`
 * newline-terminated rows of 12 comma-separated fields. Returns ""
 * when valid, else a diagnosis. This is what turns a silently
 * truncated child CSV (even one with exit status 0) into a retryable
 * failure instead of a corrupt merge.
 */
std::string
diagnoseBatchCsv(const std::string &text, std::size_t cells)
{
    if (text.empty())
        return "child produced no output";
    if (text.back() != '\n')
        return "output is not newline-terminated (truncated write?)";
    std::size_t lines = 0;
    std::size_t commas = 0;
    std::size_t line_start = 0;
    for (std::size_t i = 0; i < text.size(); ++i) {
        if (text[i] == ',') {
            ++commas;
        } else if (text[i] == '\n') {
            if (i == line_start)
                return "empty row at line " + std::to_string(lines + 1);
            if (commas != 11) {
                return "row " + std::to_string(lines + 1) + " has " +
                       std::to_string(commas + 1) +
                       " fields (want 12)";
            }
            ++lines;
            commas = 0;
            line_start = i + 1;
        }
    }
    if (lines != cells) {
        return "got " + std::to_string(lines) + " rows, want " +
               std::to_string(cells);
    }
    return "";
}

/**
 * The unit that runs cells [begin, end) as batch `index` of `count`.
 * Its check drops a leading sweep header on the batch at cell 0 —
 * what a `--shard {shard}` template's shard 0 emits — then
 * shape-checks the rows.
 */
DispatchUnit
sweepUnit(const std::string &tmpl, const BackendConfig &config,
          const std::string &spec_path, std::size_t begin,
          std::size_t end, int index, int count)
{
    DispatchUnit unit;
    unit.command = sweepBatchCommand(tmpl, config, spec_path, begin, end,
                                     index, count);
    unit.name = "shard " + std::to_string(index) + "/" +
                std::to_string(count) + " (cells " +
                std::to_string(begin) + "-" + std::to_string(end) + ")";
    unit.check = [begin, cells = end - begin](std::string &text) {
        const std::string header = std::string(sweepCsvHeader()) + "\n";
        if (begin == 0 && text.compare(0, header.size(), header) == 0)
            text.erase(0, header.size());
        return diagnoseBatchCsv(text, cells);
    };
    return unit;
}

/// Call fn(index, row) for each newline-terminated row of a checked
/// batch, numbering from `begin`; rows are passed without newline.
template <typename F>
void
forEachRow(const std::string &text, std::size_t begin, F &&fn)
{
    std::size_t pos = 0;
    while (pos < text.size()) {
        const std::size_t nl = text.find('\n', pos);
        fn(begin++, text.substr(pos, nl - pos));
        pos = nl + 1;
    }
}

/// The command template for a dispatching backend; throws for local.
std::string
dispatchTemplate(const std::string &backend_desc)
{
    const std::string tmpl = backendTemplate(backend_desc);
    if (tmpl.empty())
        throw std::runtime_error(
            "local backend executes in-process; nothing to dispatch");
    return tmpl;
}

void
writeAll(const std::string &text, std::FILE *out)
{
    if (std::fwrite(text.data(), 1, text.size(), out) != text.size())
        throw std::runtime_error("dispatch: short write of merged output");
    std::fflush(out);
}

/// Contiguous runs of not-yet-done cells, split into batches of at
/// most `batch_cells`.
std::vector<ShardRange>
planBatches(std::size_t num_cells,
            const std::map<std::size_t, std::string> &have,
            std::size_t batch_cells)
{
    std::vector<ShardRange> batches;
    std::size_t i = 0;
    while (i < num_cells) {
        if (have.count(i)) {
            ++i;
            continue;
        }
        std::size_t j = i;
        while (j < num_cells && !have.count(j) &&
               j - i < batch_cells)
            ++j;
        batches.push_back(ShardRange{i, j});
        i = j;
    }
    return batches;
}

} // anonymous namespace

std::vector<std::string>
runDispatch(const std::vector<DispatchUnit> &units,
            const BackendConfig &config, double lease_timeout_sec,
            const std::function<void(std::size_t, const std::string &)>
                &on_commit,
            const std::string &work_path)
{
    if (config.numShards < 1)
        throw std::runtime_error("dispatch: shard count must be >= 1");
    if (units.empty())
        return {};

    TempDir scratch;
    Engine e;
    e.units = &units;
    e.state.resize(units.size());
    e.scratchPath = scratch.path();
    e.onCommit = &on_commit;
    e.workPath = work_path;
    e.leaseTimeoutSec = lease_timeout_sec;
    e.maxAttempts = std::max(1, config.maxAttempts);

    // The first wave is claimed before any slot starts, so with as
    // many slots as units every unit is launched whatever the timing —
    // the failure message is deterministic.
    const std::size_t slots = std::min(
        static_cast<std::size_t>(config.numShards), units.size());
    {
        std::lock_guard<std::mutex> lock(e.mutex);
        for (std::size_t w = 0; w < slots; ++w)
            e.claimLocked(w);
    }
    // A slot that throws (allocation failure) stops the run instead of
    // escaping its thread; every started slot is joined either way.
    const auto abort_run = [&e](const std::string &why) {
        std::lock_guard<std::mutex> lock(e.mutex);
        e.fatal = why;
        e.stop = true;
        e.cv.notify_all();
    };
    std::vector<std::thread> pool;
    pool.reserve(slots);
    try {
        for (std::size_t w = 0; w < slots; ++w) {
            pool.emplace_back([&e, w, &abort_run] {
                try {
                    slotLoop(e, w);
                } catch (const std::exception &ex) {
                    abort_run(ex.what());
                }
            });
        }
    } catch (const std::exception &ex) {
        abort_run(ex.what());
    }
    for (std::thread &t : pool)
        t.join();

    // Child diagnostics (trace-store stats, warnings, crash reports)
    // surface in unit order, then attempt order — success or not, so
    // one failed unit cannot swallow its siblings' output.
    for (std::size_t i = 0; i < units.size(); ++i) {
        for (int a = 1; a <= e.state[i].spawns; ++a) {
            const std::string err =
                readFileText(e.capturePath(i, a, ".err"));
            if (err.empty())
                continue;
            std::fwrite(err.data(), 1, err.size(), stderr);
            if (err.back() != '\n')
                std::fputc('\n', stderr);
        }
    }
    std::fflush(stderr);

    if (e.stop) {
        std::string msg;
        for (std::size_t i = 0; i < units.size(); ++i) {
            const UnitState &u = e.state[i];
            if (u.done || u.failures == 0)
                continue;
            if (!msg.empty())
                msg += '\n';
            msg += units[i].name + " failed after " +
                   std::to_string(u.spawns) +
                   " attempt(s): " + u.lastError;
        }
        if (!e.fatal.empty())
            msg += (msg.empty() ? "" : "\n") + e.fatal;
        throw std::runtime_error(msg);
    }
    std::vector<std::string> outputs;
    outputs.reserve(units.size());
    for (UnitState &u : e.state)
        outputs.push_back(std::move(u.output));
    return outputs;
}

void
runStaticSweep(const SweepSpec &spec, const std::string &backend_desc,
               const BackendConfig &config, std::FILE *out)
{
    spec.validate();
    const std::string tmpl = dispatchTemplate(backend_desc);
    TempDir dir;
    const std::string spec_path = dir.path() + "/sweep.spec";
    writeFileText(spec_path, spec.serialize());

    std::vector<DispatchUnit> units;
    for (int i = 0; i < config.numShards; ++i) {
        const ShardRange r =
            shardRange(spec.numCells(), i, config.numShards);
        if (!r.empty()) {
            units.push_back(sweepUnit(tmpl, config, spec_path, r.begin,
                                      r.end, i, config.numShards));
        }
    }
    std::string text = sweepCsvHeader();
    text += '\n';
    for (const std::string &rows : runDispatch(units, config))
        text += rows;
    writeAll(text, out);
}

void
runArgvShards(const std::vector<std::string> &argv,
              const std::string &backend_desc,
              const BackendConfig &config, std::FILE *out)
{
    const std::string tmpl = dispatchTemplate(backend_desc);
    const std::string base = joinQuoted(argv);
    std::vector<DispatchUnit> units;
    for (int i = 0; i < config.numShards; ++i) {
        const std::string shard =
            std::to_string(i) + "/" + std::to_string(config.numShards);
        DispatchUnit unit;
        unit.command = unitCommand(tmpl, base + " --shard " + shard, i,
                                   config.numShards, config.jobs);
        unit.name = "shard " + shard;
        units.push_back(std::move(unit));
    }
    writeAll(mergeCsvShards(runDispatch(units, config)), out);
}

void
runOrchestratedSweep(const SweepSpec &spec,
                     const OrchestratorOptions &options)
{
    spec.validate();
    const std::string tmpl = backendTemplate(options.backendDesc);
    const std::size_t num_cells = spec.numCells();
    FaultInjector::instance().armCellCount(num_cells);

    std::string ledger_path = options.ledgerPath;
    if (ledger_path.empty() && !options.outPath.empty())
        ledger_path = options.outPath + ".ledger";
    if (options.resume && ledger_path.empty())
        throw std::runtime_error(
            "sweep --resume needs --out or --ledger (nothing to "
            "resume from)");

    SweepLedger ledger;
    LedgerScan scan;
    if (!ledger_path.empty())
        ledger.open(ledger_path, spec, options.resume, &scan);
    if (!scan.rows.empty()) {
        std::fprintf(stderr,
                     "sweep: resuming — %zu/%zu cell(s) already in "
                     "the ledger\n",
                     scan.rows.size(), num_cells);
    }

    // Batch sizing: ~4 batches per shard slot keeps the queue deep
    // enough to steal from without making child spawns dominate.
    const std::size_t missing = num_cells - scan.rows.size();
    const std::size_t slots = static_cast<std::size_t>(
        std::max(1, options.backend.numShards));
    std::size_t batch_cells = options.batchCells;
    if (batch_cells == 0)
        batch_cells = std::max<std::size_t>(1, missing / (slots * 4));

    std::map<std::size_t, std::string> rows = std::move(scan.rows);
    const std::vector<ShardRange> batches =
        planBatches(num_cells, rows, batch_cells);

    if (missing > 0 && tmpl.empty()) {
        // In-process: the ExperimentRunner pool already balances
        // cells across workers, so batches execute in order and the
        // ledger advances with each finished cell.
        for (const ShardRange &b : batches) {
            sweepCellRows(spec, b.begin, b.end, options.backend.jobs,
                          [&](std::size_t i, const std::string &row) {
                              std::string r = row;
                              if (!r.empty() && r.back() == '\n')
                                  r.pop_back();
                              if (ledger.isOpen())
                                  ledger.append(i, r);
                              rows.emplace(i, std::move(r));
                          });
        }
    } else if (missing > 0) {
        TempDir dir;
        const std::string spec_path = dir.path() + "/sweep.spec";
        writeFileText(spec_path, spec.serialize());
        const int count = static_cast<int>(batches.size());
        std::vector<DispatchUnit> units;
        for (int k = 0; k < count; ++k) {
            units.push_back(sweepUnit(tmpl, options.backend, spec_path,
                                      batches[k].begin, batches[k].end,
                                      k, count));
        }
        // Every committed batch is durable before it counts as done.
        const std::vector<std::string> outputs = runDispatch(
            units, options.backend, options.leaseTimeoutSec,
            [&](std::size_t k, const std::string &text) {
                if (ledger.isOpen()) {
                    forEachRow(text, batches[k].begin,
                               [&](std::size_t i, std::string row) {
                                   ledger.append(i, row);
                               });
                }
            },
            ledger_path.empty() ? "" : ledger_path + ".work");
        for (std::size_t k = 0; k < outputs.size(); ++k) {
            forEachRow(outputs[k], batches[k].begin,
                       [&](std::size_t i, std::string row) {
                           rows.emplace(i, std::move(row));
                       });
        }
    }

    if (rows.size() != num_cells)
        throw std::runtime_error(
            "orchestrator: finished with " +
            std::to_string(rows.size()) + "/" +
            std::to_string(num_cells) + " cells — refusing to write "
            "a truncated CSV");

    std::string text = sweepCsvHeader();
    text += '\n';
    for (std::size_t i = 0; i < num_cells; ++i) {
        text += rows.at(i);
        text += '\n';
    }

    if (options.outPath.empty()) {
        writeAll(text, stdout);
        return;
    }
    // Atomic publish: the output path either holds the complete
    // merged CSV or its previous content, never a partial write.
    const std::string tmp =
        options.outPath + ".tmp." + std::to_string(::getpid());
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f)
        throw std::runtime_error("orchestrator: cannot write " + tmp);
    const bool wrote =
        std::fwrite(text.data(), 1, text.size(), f) == text.size() &&
        std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
    if (std::fclose(f) != 0 || !wrote) {
        std::remove(tmp.c_str());
        throw std::runtime_error("orchestrator: short write to " +
                                 tmp);
    }
    if (std::rename(tmp.c_str(), options.outPath.c_str()) != 0) {
        std::remove(tmp.c_str());
        throw std::runtime_error("orchestrator: cannot rename " + tmp +
                                 " to " + options.outPath);
    }
}

} // namespace rubik
