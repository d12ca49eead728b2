/**
 * @file
 * Tests for the dispatch backends (runner/backend.h) and the one
 * dispatch engine behind them (runner/orchestrator.h): backend
 * descriptions, shell quoting, command-template instantiation and
 * validation, the canonical sweep batch command, deterministic
 * in-order merging under adversarial completion order, per-unit
 * retry, nonzero-exit + stderr propagation (a failed unit must throw,
 * never silently merge a partial CSV), checked static sweep output,
 * strict dispatch flags, and — when the RUBIK_CLI environment
 * variable points at the built rubik_cli — end-to-end byte identity
 * of a subprocess-dispatched sweep against the in-process run with a
 * shared on-disk trace cache.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "runner/backend.h"
#include "runner/orchestrator.h"
#include "runner/subproc.h"
#include "runner/sweep_runner.h"
#include "runner/sweep_spec.h"

namespace rubik {
namespace {

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

/// Scratch directory under /tmp, removed at scope exit.
struct ScratchDir
{
    ScratchDir()
    {
        char tmpl[] = "/tmp/rubik_backend_test_XXXXXX";
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

int
countTraceFiles(const std::string &dir)
{
    int n = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir)) {
        if (entry.path().extension() == ".rtrace")
            ++n;
    }
    return n;
}

/**
 * Dispatch `command_for(i)` for each of `num_shards` units named
 * "shard i/N" through the engine with `max_attempts` attempts each and
 * write the outputs, merged in unit order, to `out`.
 */
void
dispatchCommands(int num_shards,
                 const std::function<std::string(int)> &command_for,
                 int max_attempts, std::FILE *out)
{
    std::vector<DispatchUnit> units(num_shards);
    for (int i = 0; i < num_shards; ++i) {
        units[i].command = command_for(i);
        units[i].name = "shard " + std::to_string(i) + "/" +
                        std::to_string(num_shards);
    }
    BackendConfig cfg;
    cfg.numShards = num_shards;
    cfg.maxAttempts = max_attempts;
    const std::string merged = mergeCsvShards(runDispatch(units, cfg));
    std::fwrite(merged.data(), 1, merged.size(), out);
}

TEST(ShellQuote, QuotesArguments)
{
    EXPECT_EQ(shellQuote("plain"), "'plain'");
    EXPECT_EQ(shellQuote(""), "''");
    EXPECT_EQ(shellQuote("two words"), "'two words'");
    EXPECT_EQ(shellQuote("don't"), "'don'\\''t'");
    EXPECT_EQ(shellQuote("$HOME;rm"), "'$HOME;rm'");
}

TEST(CommandTemplate, SubstitutesAllOccurrences)
{
    const std::string out = instantiateCommandTemplate(
        "run {shard} of {nshards}: {shard}",
        {{"shard", "1/3"}, {"nshards", "3"}});
    EXPECT_EQ(out, "run 1/3 of 3: 1/3");
}

TEST(CommandTemplate, KeepsUnknownPlaceholdersAndBraces)
{
    EXPECT_EQ(instantiateCommandTemplate("echo ${VAR} {nope} {",
                                         {{"shard", "0/1"}}),
              "echo ${VAR} {nope} {");
}

TEST(BackendTemplate, ParsesDescriptions)
{
    EXPECT_EQ(backendTemplate("local"), "");
    EXPECT_EQ(backendTemplate(""), "");
    // subprocess is exactly the canonical-child template.
    EXPECT_EQ(backendTemplate("subprocess"), "{argv}");
    EXPECT_EQ(backendTemplate("command:echo {shard}"), "echo {shard}");

    EXPECT_THROW(backendTemplate("ssh"), std::runtime_error);
    EXPECT_THROW(backendTemplate("command:"), std::runtime_error);
    // A template with no shard placeholder would run N identical
    // commands — rejected up front.
    EXPECT_THROW(backendTemplate("command:echo hello"),
                 std::runtime_error);

    BackendConfig cfg;
    cfg.numShards = 0;
    EXPECT_THROW(runArgvShards({"x"}, "subprocess", cfg, stdout),
                 std::runtime_error);
}

TEST(RunDispatch, MergesInShardOrderDespiteCompletionOrder)
{
    // Later shards finish first (inverse sleeps); the merge must still
    // be in shard-index order, with the header-once convention intact.
    const std::string out = captureOutput([&](std::FILE *f) {
        dispatchCommands(
            3,
            [](int i) {
                std::string cmd = "sleep 0." +
                                  std::to_string(2 * (2 - i)) + "; ";
                if (i == 0)
                    cmd += "echo h; ";
                return cmd + "echo row" + std::to_string(i);
            },
            1, f);
    });
    EXPECT_EQ(out, "h\nrow0\nrow1\nrow2\n");
}

TEST(RunDispatch, PropagatesExitStatusAndStderr)
{
    try {
        captureOutput([&](std::FILE *f) {
            dispatchCommands(
                3,
                [](int i) {
                    return "echo boom-" + std::to_string(i) +
                           " >&2; exit 3";
                },
                1, f);
        });
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error &e) {
        const std::string msg = e.what();
        // Lowest-indexed failure wins; its stderr and status surface.
        EXPECT_NE(msg.find("shard 0/3"), std::string::npos) << msg;
        EXPECT_NE(msg.find("exited with status 3"), std::string::npos)
            << msg;
        EXPECT_NE(msg.find("boom-0"), std::string::npos) << msg;
    }
}

TEST(RunDispatch, FailedShardWritesNothing)
{
    // One bad shard out of three: the output stream must stay empty —
    // no partially merged CSV.
    std::string out;
    EXPECT_THROW(out = captureOutput([&](std::FILE *f) {
                     dispatchCommands(
                         3,
                         [](int i) {
                             if (i == 1)
                                 return std::string("exit 7");
                             return "echo row" + std::to_string(i);
                         },
                         1, f);
                 }),
                 std::runtime_error);
    EXPECT_EQ(out, "");
}

TEST(RunDispatch, ReplaysEveryShardsStderrOnFailure)
{
    // Shard 0 fails, shard 1 succeeds — BOTH stderr captures must be
    // replayed (in shard order), not just the failing shard's. A
    // success's diagnostics (e.g. trace-store stats, warnings) used
    // to vanish whenever any sibling failed.
    ScratchDir dir;
    ASSERT_FALSE(dir.path.empty());
    const std::string errfile = dir.path + "/stderr.capture";
    std::fflush(stderr);
    const int saved = ::dup(::fileno(stderr));
    ASSERT_GE(saved, 0);
    const int fd = ::open(errfile.c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC, 0644);
    ASSERT_GE(fd, 0);
    ASSERT_GE(::dup2(fd, ::fileno(stderr)), 0);
    ::close(fd);

    std::string msg;
    try {
        captureOutput([&](std::FILE *f) {
            dispatchCommands(
                2,
                [](int i) {
                    if (i == 0)
                        return std::string(
                            "echo from-shard-0 >&2; exit 3");
                    return std::string(
                        "echo from-shard-1 >&2; echo row1");
                },
                1, f);
        });
    } catch (const std::runtime_error &e) {
        msg = e.what();
    }
    std::fflush(stderr);
    ::dup2(saved, ::fileno(stderr));
    ::close(saved);

    std::ifstream in(errfile, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    const std::string replayed = text.str();
    const std::size_t pos0 = replayed.find("from-shard-0");
    const std::size_t pos1 = replayed.find("from-shard-1");
    EXPECT_NE(pos0, std::string::npos) << replayed;
    EXPECT_NE(pos1, std::string::npos) << replayed;
    EXPECT_LT(pos0, pos1) << replayed;
    EXPECT_NE(msg.find("shard 0/2"), std::string::npos) << msg;
}

TEST(RunDispatch, RetriesTransientFailures)
{
    ScratchDir dir;
    ASSERT_FALSE(dir.path.empty());
    // Each shard fails its first attempt (no flag file yet), then
    // succeeds on the retry.
    const std::string out = captureOutput([&](std::FILE *f) {
        dispatchCommands(
            2,
            [&](int i) {
                const std::string flag =
                    dir.path + "/flag" + std::to_string(i);
                return "if [ -e " + flag + " ]; then echo row" +
                       std::to_string(i) + "; else touch " + flag +
                       "; echo transient >&2; exit 9; fi";
            },
            2, f);
    });
    EXPECT_EQ(out, "row0\nrow1\n");
}

TEST(CommandBackend, RunsSweepThroughTemplate)
{
    // A fake "remote" command: emits recognizable 12-field rows for
    // its {cells} range instead of simulating, and — like a
    // `--shard {shard}` child — the sweep header on shard 0, which the
    // row check drops. tinySpec has 4 cells: shards 0-2 own 1, 1, 2.
    BackendConfig cfg;
    cfg.numShards = 3;
    const std::string out = captureOutput([&](std::FILE *f) {
        runStaticSweep(
            tinySpec(),
            std::string("command:test -f {spec} || exit 4; "
                        "test {index} -eq 0 && echo ") +
                sweepCsvHeader() +
                "; c={cells}; i=${c%-*}; while [ $i -lt ${c#*-} ]; "
                "do echo s{index}c$i,1,2,3,4,5,6,7,8,9,10,11; "
                "i=$((i + 1)); done",
            cfg, f);
    });
    EXPECT_EQ(out, std::string(sweepCsvHeader()) + "\n" +
                       "s0c0,1,2,3,4,5,6,7,8,9,10,11\n"
                       "s1c1,1,2,3,4,5,6,7,8,9,10,11\n"
                       "s2c2,1,2,3,4,5,6,7,8,9,10,11\n"
                       "s2c3,1,2,3,4,5,6,7,8,9,10,11\n");
}

TEST(CommandBackend, StaticSweepRejectsNonCsvRows)
{
    // Children that exit 0 with a line that is not sweep rows must
    // fail the sweep naming the shard and its cells — never publish
    // the line as the CSV.
    BackendConfig cfg;
    cfg.numShards = 2;
    std::string out;
    try {
        out = captureOutput([&](std::FILE *f) {
            runStaticSweep(tinySpec(), "command:echo x; : {index}", cfg,
                           f);
        });
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("shard 0/2 (cells 0-2)"), std::string::npos)
            << msg;
        EXPECT_NE(msg.find("has 1 fields (want 12)"), std::string::npos)
            << msg;
    }
    EXPECT_EQ(out, "");
}

TEST(CommandBackend, SubprocessBuildsTheCommandArgvChild)
{
    // `subprocess` and `command:{argv}` must build the byte-identical
    // child: a command-dispatched sweep with a trace cache would
    // otherwise silently regenerate every shared trace per shard.
    BackendConfig cfg;
    cfg.numShards = 2;
    cfg.jobs = 3;
    cfg.traceCacheDir = "/tmp/tc";
    cfg.traceCacheCap = "64M";
    cfg.traceStats = true;
    cfg.selfExe = "/opt/rubik/rubik_cli";
    const std::string sub = sweepBatchCommand(
        backendTemplate("subprocess"), cfg, "/work/grid.spec", 2, 4, 1, 2);
    const std::string cmd =
        sweepBatchCommand(backendTemplate("command:{argv}"), cfg,
                          "/work/grid.spec", 2, 4, 1, 2);
    EXPECT_EQ(sub, cmd);
    EXPECT_EQ(sub, "'/opt/rubik/rubik_cli' 'sweep' '--spec' "
                   "'/work/grid.spec' '--jobs' '3' '--trace-cache' "
                   "'/tmp/tc' '--cache-cap' '64M' '--trace-stats' "
                   "'--cells' '2-4'");
}

TEST(CommandBackend, ArgvShardsSubstituteArgv)
{
    BackendConfig cfg;
    cfg.numShards = 2;
    const std::string out = captureOutput([&](std::FILE *f) {
        runArgvShards({"mybench", "--csv"}, "command:echo {argv}", cfg,
                      f);
    });
    // {argv} carries shell-quoted words; echo strips the quotes.
    EXPECT_EQ(out, "mybench --csv --shard 0/2\n"
                   "mybench --csv --shard 1/2\n");
}

TEST(SubprocessDispatch, PropagatesChildFailure)
{
    BackendConfig cfg;
    cfg.numShards = 2;
    cfg.selfExe = "/bin/false"; // every "child" exits 1 immediately
    try {
        captureOutput([&](std::FILE *f) {
            runStaticSweep(tinySpec(), "subprocess", cfg, f);
        });
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("shard 0/2"), std::string::npos) << msg;
        EXPECT_NE(msg.find("exited with status 1"), std::string::npos)
            << msg;
        // The default budget is 3 attempts for every backend.
        EXPECT_NE(msg.find("failed after 3 attempt(s)"),
                  std::string::npos)
            << msg;
    }
}

/// Write an executable script that plays the role of selfExe.
std::string
writeScript(const ScratchDir &dir, const std::string &name,
            const std::string &body)
{
    const std::string path = dir.path + "/" + name;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "#!/bin/sh\n" << body << "\n";
    out.close();
    ::chmod(path.c_str(), 0755);
    return path;
}

TEST(SubprocessDispatch, DecodesSigkilledChild)
{
    // A child killed by a signal mid-shard must surface as "killed by
    // signal 9" with the shard index — not as a masked exit code 137
    // or, worse, a silently truncated merge.
    ScratchDir dir;
    ASSERT_FALSE(dir.path.empty());
    BackendConfig cfg;
    cfg.numShards = 2;
    // `kill 0` signals the whole process group the dispatch layer
    // puts each child into, so the held pid dies by the signal no
    // matter how many shells sit between it and this script.
    cfg.selfExe = writeScript(dir, "selfkill9",
                              "echo dying-hard >&2\nkill -KILL 0");
    cfg.maxAttempts = 1;
    try {
        captureOutput([&](std::FILE *f) {
            runStaticSweep(tinySpec(), "subprocess", cfg, f);
        });
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("shard 0/2"), std::string::npos) << msg;
        EXPECT_NE(msg.find("killed by signal 9"), std::string::npos)
            << msg;
        EXPECT_NE(msg.find("dying-hard"), std::string::npos) << msg;
    }
}

TEST(SubprocessDispatch, DecodesSigtermedChild)
{
    ScratchDir dir;
    ASSERT_FALSE(dir.path.empty());
    BackendConfig cfg;
    cfg.numShards = 2;
    cfg.selfExe = writeScript(dir, "selfkill15",
                              "echo terminated >&2\nkill -TERM 0");
    cfg.maxAttempts = 1;
    try {
        captureOutput([&](std::FILE *f) {
            runStaticSweep(tinySpec(), "subprocess", cfg, f);
        });
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("shard 0/2"), std::string::npos) << msg;
        EXPECT_NE(msg.find("killed by signal 15"), std::string::npos)
            << msg;
        EXPECT_NE(msg.find("terminated"), std::string::npos) << msg;
    }
}

TEST(LocalSweep, ShardedRunMatchesUnsharded)
{
    // A local sweep runs in-process through runSweep, whose shards
    // concatenate to the unsharded bytes.
    const SweepSpec spec = tinySpec();
    const std::string unsharded = captureOutput(
        [&](std::FILE *f) { runSweep(spec, 0, 1, 2, f); });
    EXPECT_NE(unsharded.find("app,policy,load,seed"),
              std::string::npos);

    const std::string merged = captureOutput([&](std::FILE *f) {
        for (int i = 0; i < 3; ++i)
            runSweep(spec, i, 3, 2, f);
    });
    EXPECT_EQ(merged, unsharded);
}

// End-to-end: the real rubik_cli, three shard children, a shared
// on-disk trace cache — bytes must match the local backend and the
// cache must hold each trace exactly once. Needs the built CLI, whose
// path CMake passes via the RUBIK_CLI test environment variable.
TEST(SubprocessDispatch, MatchesLocalBackendByteForByte)
{
    const char *cli = std::getenv("RUBIK_CLI");
    if (!cli || !*cli || !std::filesystem::exists(cli))
        GTEST_SKIP() << "RUBIK_CLI not set or missing";

    const SweepSpec spec = tinySpec();
    const std::string local = captureOutput(
        [&](std::FILE *f) { runSweep(spec, 0, 1, 0, f); });

    ScratchDir cache;
    ASSERT_FALSE(cache.path.empty());
    BackendConfig cfg;
    cfg.numShards = 3;
    cfg.selfExe = cli;
    cfg.traceCacheDir = cache.path;

    const std::string cold = captureOutput([&](std::FILE *f) {
        runStaticSweep(spec, "subprocess", cfg, f);
    });
    EXPECT_EQ(cold, local);
    // tinySpec uses a fixed bound, so the only traces are the two
    // (app, load, seed) grid combinations — each cached exactly once
    // even though concurrent children shared them.
    EXPECT_EQ(countTraceFiles(cache.path), 2);

    const std::string warm = captureOutput([&](std::FILE *f) {
        runStaticSweep(spec, "subprocess", cfg, f);
    });
    EXPECT_EQ(warm, local);
    EXPECT_EQ(countTraceFiles(cache.path), 2);
}

// Dispatch flags parse strictly: a malformed or out-of-range value is
// a named error (exit 1), never a silent 0 or default.
TEST(SweepFlags, RejectMalformedDispatchValues)
{
    const char *cli = std::getenv("RUBIK_CLI");
    if (!cli || !*cli || !std::filesystem::exists(cli))
        GTEST_SKIP() << "RUBIK_CLI not set or missing";
    ScratchDir dir;
    ASSERT_FALSE(dir.path.empty());
    const std::string spec_path = dir.path + "/grid.spec";
    {
        std::ofstream spec(spec_path, std::ios::binary);
        spec << tinySpec().serialize();
    }
    const std::vector<std::pair<std::string, std::string>> cases = {
        {"--jobs", "abc"},
        {"--shards", "2x"},
        {"--lease-timeout", "nope"},
        {"--retries", "-1"},
        {"--lease-timeout", "inf"},
        {"--batch-cells", "-3"},
    };
    for (const auto &[flag, value] : cases) {
        const std::string err = dir.path + "/err.txt";
        const int status = waitCommand(spawnShellCommand(
            shellQuote(cli) + " sweep --spec " + shellQuote(spec_path) +
                " " + flag + " " + shellQuote(value),
            dir.path + "/out.csv", err));
        EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 1)
            << flag << " " << value << ": "
            << describeWaitStatus(status);
        std::ifstream in(err, std::ios::binary);
        std::ostringstream text;
        text << in.rdbuf();
        EXPECT_NE(text.str().find(flag + ": invalid value '" + value +
                                  "'"),
                  std::string::npos)
            << text.str();
    }
}

} // namespace
} // namespace rubik
