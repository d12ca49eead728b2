/**
 * @file
 * perfbench_driver: the compiled half of the benchmark. run.py builds
 * it next to rubik_cli and calls it once per run:
 *
 *   perfbench_driver grid  --seed N --seconds S --trace 0|1 --pinned FILE
 *   perfbench_driver serve --seed N --seconds S --trace 0|1 --cli PATH
 *                          --socket PATH [--distill]
 *   perfbench_driver sweep-layers --spec FILE --csv LOCAL_CSV
 *   perfbench_driver build-info
 *
 * Each workload prints one JSON object (see Report) on stdout.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.h"

namespace perfbench {
Report runGrid(uint64_t seed, double seconds, bool trace,
               const std::string &pinned_path);
Report runServe(uint64_t seed, double seconds, bool distill, bool trace,
                const std::string &cli, const std::string &sock);
Report runSweepLayers(const std::string &spec_path,
                      const std::string &csv_path);
} // namespace perfbench

namespace {

void
printBuildInfo()
{
#ifdef NDEBUG
    const bool ndebug = true;
#else
    const bool ndebug = false;
#endif
#ifdef __OPTIMIZE__
    const bool optimized = true;
#else
    const bool optimized = false;
#endif
    std::printf("{\"build_type\": \"%s\", \"ndebug\": %s, "
                "\"optimized\": %s, \"compiler\": \"%s %s\"}\n",
                PERFBENCH_BUILD_TYPE, ndebug ? "true" : "false",
                optimized ? "true" : "false", PERFBENCH_COMPILER_ID,
                __VERSION__);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr, "usage: perfbench_driver "
                             "grid|serve|sweep-layers|build-info "
                             "[options]\n");
        return 2;
    }
    const std::string mode = argv[1];
    if (mode == "build-info") {
        printBuildInfo();
        return 0;
    }
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false, distill = false;
    std::string pinned, cli, sock, spec, csv;
    for (int i = 2; i < argc; ++i) {
        const std::string a = argv[i];
        const char *v = i + 1 < argc ? argv[i + 1] : "";
        if (a == "--distill") {
            distill = true;
            continue;
        }
        if (a == "--seed")
            seed = std::strtoull(v, nullptr, 10);
        else if (a == "--seconds")
            seconds = std::atof(v);
        else if (a == "--trace")
            trace = std::atoi(v) != 0;
        else if (a == "--pinned")
            pinned = v;
        else if (a == "--cli")
            cli = v;
        else if (a == "--socket")
            sock = v;
        else if (a == "--spec")
            spec = v;
        else if (a == "--csv")
            csv = v;
        else {
            std::fprintf(stderr, "perfbench_driver: unknown flag %s\n",
                         a.c_str());
            return 2;
        }
        ++i;
    }
    try {
        if (mode == "grid")
            perfbench::runGrid(seed, seconds, trace, pinned).print();
        else if (mode == "serve")
            perfbench::runServe(seed, seconds, distill, trace, cli, sock)
                .print();
        else if (mode == "sweep-layers")
            perfbench::runSweepLayers(spec, csv).print();
        else {
            std::fprintf(stderr, "perfbench_driver: unknown mode %s\n",
                         mode.c_str());
            return 2;
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_driver %s: %s\n", mode.c_str(),
                     e.what());
        return 1;
    }
    return 0;
}
