#include "common.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>

#include "runner/experiment_runner.h"
#include "runner/fault.h"
#include "runner/options_parser.h"
#include "runner/orchestrator.h"
#include "workloads/cache_manager.h"
#include "workloads/trace_store.h"

namespace rubik::bench {

namespace {

/// atexit hook so a capped bench converges the cache even when its
/// run was all-hits (no writes, hence no write-triggered enforcement).
void
enforceCacheCapAtExit()
{
    rubik::globalTraceStore().enforceCacheCap();
}

/**
 * Re-run this binary once per shard through the chosen backend and
 * merge the shard CSVs onto stdout. `argv` is the original command
 * line; the child argument vector keeps every flag except the
 * backend/dispatch ones (each child runs `--backend local`
 * implicitly) and gets `--shard I/N` appended by the dispatch engine.
 */
[[noreturn]] void
dispatchSelf(int argc, char **argv, const Options &opts)
{
    std::vector<std::string> child_argv;
    child_argv.push_back(rubik::selfExePath(argv[0]));
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--backend") ||
            !std::strcmp(argv[i], "--shards")) {
            ++i; // skip the flag's value too
            continue;
        }
        if (!std::strncmp(argv[i], "--backend=", 10) ||
            !std::strncmp(argv[i], "--shards=", 9))
            continue;
        child_argv.push_back(argv[i]);
    }

    rubik::BackendConfig cfg;
    cfg.numShards = opts.shards;
    cfg.jobs = opts.jobs;
    cfg.traceCacheDir = opts.traceCache;
    cfg.selfExe = child_argv.front();
    try {
        rubik::runArgvShards(child_argv, opts.backend, cfg, stdout);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "backend dispatch failed: %s\n", e.what());
        std::exit(1);
    }
    std::exit(0);
}

} // anonymous namespace

int
Options::numRequests(int bench_default) const
{
    int n = requests > 0 ? requests : bench_default;
    if (fast)
        n = std::max(200, n / 4);
    return n;
}

Options
parseOptions(int argc, char **argv, bool allow_shard)
{
    Options opts;
    rubik::CommonRunOptions run;
    rubik::ShardOption shard;
    rubik::OptionsParser parser(argc, argv);
    parser.flag("--csv", [&opts] { opts.csv = true; });
    parser.flag("--fast", [&opts] { opts.fast = true; });
    rubik::addRunFlags(parser, &run);
    rubik::addSimdFlag(parser, &run);
    rubik::addShardFlag(parser, &shard);
    parser.value("--backend",
                 [&opts](const char *v) { opts.backend = v; });
    parser.number("--shards", &opts.shards, 1,
                  rubik::ExperimentRunner::kMaxWorkers);
    parser.value("--trace-cache",
                 [&opts](const char *v) { opts.traceCache = v; });
    parser.value("--cache-cap",
                 [&opts](const char *v) { opts.cacheCap = v; });
    parser.value("--fault", [&opts](const char *v) { opts.fault = v; });
    parser.flag("--help", [argv] {
        std::printf("usage: %s [--csv] [--fast] [--requests N] "
                    "[--seed S] [--jobs N] [--shard I/N] "
                    "[--simd auto|scalar|avx2|neon] "
                    "[--backend local|subprocess|command:<tmpl>] "
                    "[--shards N] [--trace-cache DIR] "
                    "[--cache-cap SIZE] [--fault SPEC]\n",
                    argv[0]);
        std::exit(0);
    });
    parser.run();

    opts.seed = run.seed;
    opts.requests = run.requests;
    opts.jobs = run.jobs;
    opts.sim = run.sim;
    opts.shard = shard.shard;
    opts.numShards = shard.numShards;
    // Only a given --simd overrides RUBIK_SIMD; the Auto default
    // would otherwise clobber the environment selection CI pins.
    if (run.simdGiven)
        rubik::applySimdSelection(run);
    if (opts.numShards > 1 && !allow_shard) {
        std::fprintf(stderr, "this bench does not support --shard\n");
        std::exit(1);
    }
    if (opts.numShards > 1 && !opts.csv) {
        // Text tables align columns across all rows, so a shard's
        // bytes would differ from the full run's; only CSV shards
        // concatenate exactly.
        std::fprintf(stderr, "--shard requires --csv\n");
        std::exit(1);
    }
    if (!opts.fault.empty()) {
        // Arm this process and export the spec so dispatched shard
        // children inherit it (delay-trace-io is the useful kind
        // here: it stretches the cache-contention window the per-key
        // lock protects).
        ::setenv("RUBIK_FAULT", opts.fault.c_str(), 1);
        try {
            rubik::FaultInjector::instance().configure(opts.fault);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "--fault: %s\n", e.what());
            std::exit(1);
        }
    }
    if (!opts.traceCache.empty()) {
        try {
            globalTraceStore().setCacheDir(opts.traceCache);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "%s\n", e.what());
            std::exit(1);
        }
    }
    if (!opts.cacheCap.empty()) {
        try {
            globalTraceStore().setCacheCap(
                rubik::parseSizeBytes(opts.cacheCap));
        } catch (const std::exception &e) {
            std::fprintf(stderr, "--cache-cap: %s\n", e.what());
            std::exit(1);
        }
        std::atexit(enforceCacheCapAtExit);
    }
    if (opts.backend != "local") {
        if (opts.shards > 1 && !allow_shard) {
            std::fprintf(stderr,
                         "this bench does not support sharded "
                         "dispatch (--shards)\n");
            std::exit(1);
        }
        if (opts.shards > 1 && !opts.csv) {
            std::fprintf(stderr,
                         "--backend with --shards > 1 requires "
                         "--csv\n");
            std::exit(1);
        }
        if (opts.numShards > 1) {
            std::fprintf(stderr,
                         "--shard cannot be combined with "
                         "--backend\n");
            std::exit(1);
        }
        dispatchSelf(argc, argv, opts);
    }
    return opts;
}

TablePrinter::TablePrinter(std::vector<std::string> headers, bool csv)
    : headers_(std::move(headers)), csv_(csv)
{
}

void
TablePrinter::addRow(std::vector<std::string> cells)
{
    rows_.push_back(std::move(cells));
}

void
TablePrinter::print() const
{
    if (csv_) {
        auto print_row = [](const std::vector<std::string> &row) {
            for (std::size_t i = 0; i < row.size(); ++i)
                std::printf("%s%s", i ? "," : "", row[i].c_str());
            std::printf("\n");
        };
        if (showHeader_)
            print_row(headers_);
        for (const auto &row : rows_)
            print_row(row);
        return;
    }

    std::vector<std::size_t> widths(headers_.size(), 0);
    for (std::size_t i = 0; i < headers_.size(); ++i)
        widths[i] = headers_[i].size();
    for (const auto &row : rows_) {
        for (std::size_t i = 0; i < row.size() && i < widths.size(); ++i)
            widths[i] = std::max(widths[i], row[i].size());
    }

    auto print_row = [&](const std::vector<std::string> &row) {
        for (std::size_t i = 0; i < row.size(); ++i) {
            std::printf("%s%-*s", i ? "  " : "",
                        static_cast<int>(widths[i]), row[i].c_str());
        }
        std::printf("\n");
    };
    print_row(headers_);
    std::size_t total = headers_.empty() ? 0 : 2 * (headers_.size() - 1);
    for (auto w : widths)
        total += w;
    std::printf("%s\n", std::string(total, '-').c_str());
    for (const auto &row : rows_)
        print_row(row);
}

std::string
fmt(const char *format, double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), format, value);
    return buf;
}

void
heading(const Options &opts, const std::string &title)
{
    if (opts.csv)
        std::printf("# %s\n", title.c_str());
    else
        std::printf("\n=== %s ===\n\n", title.c_str());
}

} // namespace rubik::bench
