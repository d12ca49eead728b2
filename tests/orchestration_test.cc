/**
 * @file
 * Tests for the fault-tolerant sweep orchestration layer: the fault
 * spec grammar (runner/fault.h), the checksummed completed-cell
 * ledger (runner/ledger.h) including torn and corrupt tails, the
 * bounded trace-cache lock wait (workloads/file_lock.h), and the
 * work-stealing orchestrator (runner/orchestrator.h). When RUBIK_CLI
 * points at the built rubik_cli, the end-to-end gates run too: every
 * injected failure mode — crash, hang, kill-mid-write, corrupted
 * ledger or CSV tails, a real SIGKILL — must either recover to a
 * byte-identical CSV (retry / steal / --resume) or fail loudly naming
 * the batch, its cells, and the decoded child status.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <signal.h>
#include <sys/file.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "runner/fault.h"
#include "runner/ledger.h"
#include "runner/orchestrator.h"
#include "runner/subproc.h"
#include "runner/sweep_runner.h"
#include "runner/sweep_spec.h"
#include "workloads/file_lock.h"

namespace rubik {
namespace {

/// Scratch directory under /tmp, removed at scope exit.
struct ScratchDir
{
    ScratchDir()
    {
        char tmpl[] = "/tmp/rubik_orch_test_XXXXXX";
        if (mkdtemp(tmpl))
            path = tmpl;
    }
    ~ScratchDir()
    {
        if (!path.empty()) {
            std::error_code ec;
            std::filesystem::remove_all(path, ec);
        }
    }
    std::string path;
};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out && (out << text) && out.flush()) << path;
}

SweepSpec
tinySpec()
{
    SweepSpec spec;
    spec.apps = {"masstree"};
    spec.loads = {0.3, 0.5};
    spec.policies = {"fixed", "static"};
    spec.seeds = {42};
    spec.requests = 300;
    spec.boundMs = 2.0; // explicit bound: no 50%-load bound traces
    return spec;
}

/// Run `body(out)` against a tmpfile and return what it wrote.
template <typename F>
std::string
captureOutput(F &&body)
{
    std::FILE *f = std::tmpfile();
    EXPECT_NE(f, nullptr);
    body(f);
    std::rewind(f);
    std::string text;
    char buf[4096];
    std::size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, got);
    std::fclose(f);
    return text;
}

/// The unsharded legacy CSV — the byte-identity reference.
std::string
legacyCsv(const SweepSpec &spec)
{
    return captureOutput(
        [&](std::FILE *f) { runSweep(spec, 0, 1, 2, f); });
}

struct CommandResult
{
    int status = -1;
    std::string out;
    std::string err;
};

/// Run a shell command with captured stdout/stderr (via the same
/// subproc layer the orchestrator uses).
CommandResult
runCommand(const std::string &cmd, const std::string &dir,
           const std::string &tag)
{
    const std::string out = dir + "/" + tag + ".stdout";
    const std::string err = dir + "/" + tag + ".stderr";
    CommandResult r;
    r.status = waitCommand(spawnShellCommand(cmd, out, err));
    r.out = readFile(out);
    r.err = readFile(err);
    return r;
}

// --------------------------------------------------------------------
// Fault spec grammar

TEST(FaultSpec, ParsesKindsAndParameters)
{
    const auto faults = parseFaultSpec(
        "crash,cell=3;hang,cell=~7,ms=250;delay-trace-io");
    ASSERT_EQ(faults.size(), 3u);
    EXPECT_EQ(faults[0].kind, FaultSpec::Kind::Crash);
    EXPECT_EQ(faults[0].cell, 3);
    EXPECT_FALSE(faults[0].seeded);
    EXPECT_EQ(faults[1].kind, FaultSpec::Kind::Hang);
    EXPECT_TRUE(faults[1].seeded);
    EXPECT_EQ(faults[1].seed, 7u);
    EXPECT_EQ(faults[1].ms, 250.0);
    EXPECT_EQ(faults[2].kind, FaultSpec::Kind::DelayTraceIo);
    EXPECT_EQ(faults[2].cell, -1);

    EXPECT_EQ(faults[0].describe(), "crash,cell=3");
    EXPECT_EQ(faults[1].describe(), "hang,cell=~7,ms=250");
    EXPECT_TRUE(parseFaultSpec("").empty());
}

TEST(FaultSpec, RejectsBadGrammar)
{
    EXPECT_THROW(parseFaultSpec("explode"), std::runtime_error);
    EXPECT_THROW(parseFaultSpec("crash,cell"), std::runtime_error);
    EXPECT_THROW(parseFaultSpec("crash,cell=-2"), std::runtime_error);
    EXPECT_THROW(parseFaultSpec("crash,where=3"), std::runtime_error);
    EXPECT_THROW(parseFaultSpec("hang,ms=abc"), std::runtime_error);
}

// --------------------------------------------------------------------
// Ledger

TEST(Ledger, RoundTripsRecords)
{
    ScratchDir dir;
    ASSERT_FALSE(dir.path.empty());
    const std::string path = dir.path + "/run.ledger";
    const SweepSpec spec = tinySpec();

    SweepLedger ledger;
    ledger.open(path, spec, /*resume=*/false);
    ledger.append(0, "row-zero");
    ledger.append(2, "row,with,commas");
    ledger.close();

    const LedgerScan scan = scanLedger(path);
    EXPECT_TRUE(scan.exists);
    EXPECT_TRUE(scan.headerOk);
    EXPECT_EQ(scan.specHash, sweepSpecHash(spec));
    EXPECT_EQ(scan.numCells, spec.numCells());
    ASSERT_EQ(scan.rows.size(), 2u);
    EXPECT_EQ(scan.rows.at(0), "row-zero");
    EXPECT_EQ(scan.rows.at(2), "row,with,commas");
    EXPECT_EQ(scan.droppedBytes, 0u);
}

TEST(Ledger, ScanDropsTornTail)
{
    ScratchDir dir;
    ASSERT_FALSE(dir.path.empty());
    const std::string path = dir.path + "/torn.ledger";
    const SweepSpec spec = tinySpec();

    SweepLedger ledger;
    ledger.open(path, spec, false);
    ledger.append(0, "alpha");
    ledger.append(1, "beta");
    ledger.close();

    // Simulate a kill mid-append: chop the last record short.
    std::string bytes = readFile(path);
    writeFile(path, bytes.substr(0, bytes.size() - 4));

    const LedgerScan scan = scanLedger(path);
    EXPECT_TRUE(scan.headerOk);
    ASSERT_EQ(scan.rows.size(), 1u);
    EXPECT_EQ(scan.rows.at(0), "alpha");
    EXPECT_GT(scan.droppedBytes, 0u);
}

TEST(Ledger, ScanDropsCorruptChecksum)
{
    ScratchDir dir;
    ASSERT_FALSE(dir.path.empty());
    const std::string path = dir.path + "/rot.ledger";
    const SweepSpec spec = tinySpec();

    SweepLedger ledger;
    ledger.open(path, spec, false);
    ledger.append(0, "alpha");
    ledger.append(1, "beta");
    ledger.close();

    // Flip one byte inside the second record's row.
    std::string bytes = readFile(path);
    bytes[bytes.size() - 2] ^= 0x20;
    writeFile(path, bytes);

    const LedgerScan scan = scanLedger(path);
    ASSERT_EQ(scan.rows.size(), 1u);
    EXPECT_EQ(scan.rows.at(0), "alpha");
    EXPECT_GT(scan.droppedBytes, 0u);
}

TEST(Ledger, ResumeTruncatesTailAndContinues)
{
    ScratchDir dir;
    ASSERT_FALSE(dir.path.empty());
    const std::string path = dir.path + "/resume.ledger";
    const SweepSpec spec = tinySpec();

    {
        SweepLedger ledger;
        ledger.open(path, spec, false);
        ledger.append(0, "alpha");
        ledger.append(1, "beta");
    }
    std::string bytes = readFile(path);
    writeFile(path, bytes.substr(0, bytes.size() - 4));

    {
        LedgerScan scan;
        SweepLedger ledger;
        ledger.open(path, spec, /*resume=*/true, &scan);
        EXPECT_EQ(scan.rows.size(), 1u);
        ledger.append(1, "beta2");
        ledger.append(2, "gamma");
    }
    const LedgerScan scan = scanLedger(path);
    ASSERT_EQ(scan.rows.size(), 3u);
    EXPECT_EQ(scan.rows.at(0), "alpha");
    EXPECT_EQ(scan.rows.at(1), "beta2");
    EXPECT_EQ(scan.rows.at(2), "gamma");
    EXPECT_EQ(scan.droppedBytes, 0u);
}

TEST(Ledger, ResumeRejectsSpecMismatch)
{
    ScratchDir dir;
    ASSERT_FALSE(dir.path.empty());
    const std::string path = dir.path + "/mismatch.ledger";
    {
        SweepLedger ledger;
        ledger.open(path, tinySpec(), false);
        ledger.append(0, "alpha");
    }
    SweepSpec other = tinySpec();
    other.seeds = {43};
    SweepLedger ledger;
    try {
        ledger.open(path, other, /*resume=*/true);
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error &e) {
        // Splicing rows from a different experiment must fail loudly.
        EXPECT_NE(std::string(e.what()).find("spec"),
                  std::string::npos)
            << e.what();
    }
}

// --------------------------------------------------------------------
// Bounded trace-cache lock wait

TEST(FileLockBounded, TimesOutOnLiveHolder)
{
    ScratchDir dir;
    ASSERT_FALSE(dir.path.empty());
    const std::string path = dir.path + "/entry.lock";
    FileLock holder(path);
    ASSERT_TRUE(holder.acquired());

    const auto start = std::chrono::steady_clock::now();
    FileLock waiter(path, /*blocking=*/true, /*timeout_sec=*/0.4);
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    EXPECT_FALSE(waiter.acquired());
    EXPECT_TRUE(waiter.timedOut());
    EXPECT_FALSE(waiter.staleHolder());
    EXPECT_GE(elapsed.count(), 0.35);
    EXPECT_LT(elapsed.count(), 5.0);
}

TEST(FileLockBounded, DetectsDeadHolderEarly)
{
    ScratchDir dir;
    ASSERT_FALSE(dir.path.empty());
    const std::string path = dir.path + "/stale.lock";

    // Hold the flock on a raw descriptor (flock treats separate opens
    // in one process as independent holders) but record the pid of an
    // already-reaped child — the "holder died, descriptor leaked into
    // a wedged process" shape.
    const int fd =
        ::open(path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::flock(fd, LOCK_EX), 0);
    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0)
        ::_exit(0);
    ASSERT_EQ(::waitpid(child, nullptr, 0), child);
    char pid_text[32];
    std::snprintf(pid_text, sizeof(pid_text), "%ld\n",
                  static_cast<long>(child));
    ASSERT_GT(::pwrite(fd, pid_text, std::strlen(pid_text), 0), 0);

    const auto start = std::chrono::steady_clock::now();
    FileLock waiter(path, /*blocking=*/true, /*timeout_sec=*/30.0);
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    EXPECT_FALSE(waiter.acquired());
    EXPECT_TRUE(waiter.staleHolder());
    EXPECT_FALSE(waiter.timedOut());
    // Far below the 30 s budget: the dead-pid probes end the wait.
    EXPECT_LT(elapsed.count(), 5.0);
    ::close(fd);
}

// --------------------------------------------------------------------
// Orchestrator, in-process

TEST(Orchestrator, LocalRunMatchesLegacyBytes)
{
    ScratchDir dir;
    ASSERT_FALSE(dir.path.empty());
    const SweepSpec spec = tinySpec();
    OrchestratorOptions opt;
    opt.backend.jobs = 2;
    opt.outPath = dir.path + "/out.csv";
    runOrchestratedSweep(spec, opt);

    EXPECT_EQ(readFile(opt.outPath), legacyCsv(spec));
    const LedgerScan scan = scanLedger(opt.outPath + ".ledger");
    EXPECT_TRUE(scan.headerOk);
    EXPECT_EQ(scan.rows.size(), spec.numCells());
}

TEST(Orchestrator, ResumeSkipsLedgeredCells)
{
    ScratchDir dir;
    ASSERT_FALSE(dir.path.empty());
    const SweepSpec spec = tinySpec();
    const std::string out = dir.path + "/out.csv";

    // A half-finished run: the first two cells are durable.
    {
        SweepLedger ledger;
        ledger.open(out + ".ledger", spec, false);
        sweepCellRows(spec, 0, 2, 2,
                      [&](std::size_t i, const std::string &row) {
                          std::string r = row;
                          r.pop_back(); // trailing newline
                          ledger.append(i, r);
                      });
    }
    OrchestratorOptions opt;
    opt.backend.jobs = 2;
    opt.outPath = out;
    opt.resume = true;
    runOrchestratedSweep(spec, opt);
    EXPECT_EQ(readFile(out), legacyCsv(spec));
}

TEST(Orchestrator, ResumeRequiresALedgerPath)
{
    OrchestratorOptions opt;
    opt.resume = true;
    EXPECT_THROW(runOrchestratedSweep(tinySpec(), opt),
                 std::runtime_error);
}

// --------------------------------------------------------------------
// End-to-end through rubik_cli (skipped when RUBIK_CLI is absent)

class OrchestrationCli : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        const char *env = std::getenv("RUBIK_CLI");
        if (!env || !*env || !std::filesystem::exists(env))
            GTEST_SKIP() << "RUBIK_CLI not set or missing";
        cli = env;
        ASSERT_FALSE(dir.path.empty());
        spec = tinySpec();
        spec_path = dir.path + "/grid.spec";
        writeFile(spec_path, spec.serialize());
        baseline = legacyCsv(spec);
    }

    std::string sweepCmd(const std::string &extra) const
    {
        return shellQuote(cli) + " sweep --spec " +
               shellQuote(spec_path) + " --jobs 2 " + extra;
    }

    ScratchDir dir;
    std::string cli;
    SweepSpec spec;
    std::string spec_path;
    std::string baseline;
};

// `--cells B-E` runs the half-open cell range, rows only; anything but
// two whole numbers with B < E is refused before any cell runs.
TEST_F(OrchestrationCli, CellsFlagTakesHalfOpenRanges)
{
    const CommandResult r =
        runCommand(sweepCmd("--cells 1-3"), dir.path, "cells");
    ASSERT_EQ(r.status, 0) << r.err;
    // The baseline is the header, then one line per cell.
    std::vector<std::string> lines;
    std::istringstream in(baseline);
    for (std::string line; std::getline(in, line);)
        lines.push_back(line + "\n");
    ASSERT_EQ(lines.size(), 5u);
    EXPECT_EQ(r.out, lines[2] + lines[3]);

    for (const char *bad :
         {"5-2", "3-3", "3", "-3", "a-b", "1-2x", "1-2-3", "+1-2"}) {
        const CommandResult b =
            runCommand(sweepCmd("--cells '" + std::string(bad) + "'"),
                       dir.path, "bad-cells");
        EXPECT_TRUE(WIFEXITED(b.status) && WEXITSTATUS(b.status) == 1)
            << bad << ": " << describeWaitStatus(b.status);
        EXPECT_NE(b.err.find("--cells wants B-E with B < E"),
                  std::string::npos)
            << bad << ": " << b.err;
    }
}

TEST_F(OrchestrationCli, CrashFaultThenResumeIsByteIdentical)
{
    const std::string out = dir.path + "/crash.csv";
    const CommandResult faulted = runCommand(
        sweepCmd("--out " + shellQuote(out) +
                 " --fault crash,cell=2"),
        dir.path, "crash");
    EXPECT_TRUE(WIFEXITED(faulted.status) &&
                WEXITSTATUS(faulted.status) == 70)
        << describeWaitStatus(faulted.status) << "\n"
        << faulted.err;
    EXPECT_NE(faulted.err.find("crash at cell 2"), std::string::npos)
        << faulted.err;
    // Never a partial CSV: the output appears only on success.
    EXPECT_FALSE(std::filesystem::exists(out));

    const CommandResult resumed = runCommand(
        sweepCmd("--out " + shellQuote(out) + " --resume"), dir.path,
        "crash-resume");
    ASSERT_EQ(resumed.status, 0) << resumed.err;
    EXPECT_NE(resumed.err.find("resuming"), std::string::npos)
        << resumed.err;
    EXPECT_EQ(readFile(out), baseline);
}

TEST_F(OrchestrationCli, DynamicSubprocessMatchesLocal)
{
    const std::string out = dir.path + "/dyn.csv";
    const CommandResult r = runCommand(
        sweepCmd("--backend subprocess --shards 2 --schedule dynamic "
                 "--trace-cache " + shellQuote(dir.path + "/tc") +
                 " --out " + shellQuote(out)),
        dir.path, "dyn");
    ASSERT_EQ(r.status, 0) << r.err;
    EXPECT_EQ(readFile(out), baseline);
    // The queue mirror is left behind for post-mortems.
    EXPECT_TRUE(
        std::filesystem::exists(out + ".ledger.work"));
}

TEST_F(OrchestrationCli, HungBatchIsStolenWithinBoundedTime)
{
    const std::string out = dir.path + "/hung.csv";
    const auto start = std::chrono::steady_clock::now();
    const CommandResult r = runCommand(
        sweepCmd("--backend subprocess --shards 2 --batch-cells 2 "
                 "--lease-timeout 1 --trace-cache " +
                 shellQuote(dir.path + "/tc") + " --out " +
                 shellQuote(out) + " --fault hang,cell=0"),
        dir.path, "hung");
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    ASSERT_EQ(r.status, 0) << r.err;
    EXPECT_EQ(readFile(out), baseline);
    // The injected hang sleeps an hour; a finish within the test's
    // runtime proves the lease expired and an idle worker stole the
    // batch (the straggler was killed at the hard deadline).
    EXPECT_LT(elapsed.count(), 120.0);
    EXPECT_NE(r.err.find("hang at cell 0"), std::string::npos)
        << r.err;
}

TEST_F(OrchestrationCli, TruncatedChildCsvIsCaughtAndRetried)
{
    const std::string out = dir.path + "/trunc.csv";
    const CommandResult r = runCommand(
        sweepCmd("--backend subprocess --shards 2 --trace-cache " +
                 shellQuote(dir.path + "/tc") + " --out " +
                 shellQuote(out) + " --fault corrupt-csv-tail"),
        dir.path, "trunc");
    // Every batch child's first attempt truncates its CSV and exits
    // 0 — the silent-corruption case. Row validation must catch it
    // and the clean retry must still converge.
    ASSERT_EQ(r.status, 0) << r.err;
    EXPECT_EQ(readFile(out), baseline);
    EXPECT_NE(r.err.find("truncated CSV tail"), std::string::npos)
        << r.err;
}

TEST_F(OrchestrationCli, ExhaustedRetriesFailLoudly)
{
    const std::string out = dir.path + "/fatal.csv";
    const CommandResult r = runCommand(
        sweepCmd("--backend subprocess --shards 2 --retries 0 "
                 "--batch-cells 1 --trace-cache " +
                 shellQuote(dir.path + "/tc") + " --out " +
                 shellQuote(out) + " --fault crash,cell=1"),
        dir.path, "fatal");
    EXPECT_NE(r.status, 0);
    // The error names the batch, its cells, and the decoded status.
    EXPECT_NE(r.err.find("cells 1-2"), std::string::npos) << r.err;
    EXPECT_NE(r.err.find("exited with status 70"), std::string::npos)
        << r.err;
    EXPECT_NE(r.err.find("failed after 1 attempt"), std::string::npos)
        << r.err;
    EXPECT_FALSE(std::filesystem::exists(out));
}

TEST_F(OrchestrationCli, KillMidLedgerWriteThenResume)
{
    const std::string out = dir.path + "/midwrite.csv";
    const CommandResult faulted = runCommand(
        sweepCmd("--out " + shellQuote(out) +
                 " --fault kill-mid-write"),
        dir.path, "midwrite");
    EXPECT_TRUE(WIFEXITED(faulted.status) &&
                WEXITSTATUS(faulted.status) == 70)
        << describeWaitStatus(faulted.status) << "\n"
        << faulted.err;
    // The ledger holds a torn record the resume scan must drop.
    const LedgerScan scan = scanLedger(out + ".ledger");
    EXPECT_GT(scan.droppedBytes, 0u);

    const CommandResult resumed = runCommand(
        sweepCmd("--out " + shellQuote(out) + " --resume"), dir.path,
        "midwrite-resume");
    ASSERT_EQ(resumed.status, 0) << resumed.err;
    EXPECT_EQ(readFile(out), baseline);
}

TEST_F(OrchestrationCli, CorruptLedgerTailThenResume)
{
    const std::string out = dir.path + "/rotted.csv";
    const CommandResult faulted = runCommand(
        sweepCmd("--out " + shellQuote(out) +
                 " --fault corrupt-ledger-tail"),
        dir.path, "rotted");
    EXPECT_TRUE(WIFEXITED(faulted.status) &&
                WEXITSTATUS(faulted.status) == 70)
        << describeWaitStatus(faulted.status) << "\n"
        << faulted.err;

    const CommandResult resumed = runCommand(
        sweepCmd("--out " + shellQuote(out) + " --resume"), dir.path,
        "rotted-resume");
    ASSERT_EQ(resumed.status, 0) << resumed.err;
    EXPECT_EQ(readFile(out), baseline);
}

TEST_F(OrchestrationCli, SigkillMidSweepThenResume)
{
    const std::string out = dir.path + "/killed.csv";
    const std::string ledger = out + ".ledger";
    // Hang at the last cell keeps the sweep alive with every earlier
    // cell durable, making the SIGKILL point deterministic.
    const pid_t pid = spawnShellCommand(
        sweepCmd("--out " + shellQuote(out) + " --fault hang,cell=3"),
        dir.path + "/killed.stdout", dir.path + "/killed.stderr");
    ASSERT_GT(pid, 0);
    // Wait until cells 0-2 are journaled, then kill -9 the whole
    // process group mid-flight.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(120);
    while (scanLedger(ledger).rows.size() < 3) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << readFile(dir.path + "/killed.stderr");
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    killCommandGroup(pid);
    EXPECT_FALSE(std::filesystem::exists(out));

    const CommandResult resumed = runCommand(
        sweepCmd("--out " + shellQuote(out) + " --resume"), dir.path,
        "killed-resume");
    ASSERT_EQ(resumed.status, 0) << resumed.err;
    EXPECT_EQ(readFile(out), baseline);
}

} // namespace
} // namespace rubik
