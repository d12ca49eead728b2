#include "runner/options_parser.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "runner/experiment_runner.h"

namespace rubik {

OptionsParser::OptionsParser(int argc, char **argv, int start)
    : argc_(argc), argv_(argv), start_(start)
{
    unknown_ = [](const char *token) {
        std::fprintf(stderr, "unknown flag: %s (try --help)\n", token);
        std::exit(1);
    };
}

void
OptionsParser::rejectDuplicate(const std::string &name) const
{
    // A silently shadowed flag (second registration never dispatched,
    // find() returns the first) is a programming error at the entry
    // point — fail loudly at registration time instead.
    if (find(name.c_str()))
        throw std::logic_error("OptionsParser: flag registered twice: " +
                               name);
}

void
OptionsParser::flag(const std::string &name, std::function<void()> fn)
{
    rejectDuplicate(name);
    Handler h;
    h.name = name;
    h.takesValue = false;
    h.fn = [fn = std::move(fn)](const char *) { fn(); };
    handlers_.push_back(std::move(h));
}

void
OptionsParser::value(const std::string &name,
                     std::function<void(const char *)> fn)
{
    rejectDuplicate(name);
    Handler h;
    h.name = name;
    h.takesValue = true;
    h.fn = std::move(fn);
    handlers_.push_back(std::move(h));
}

void
OptionsParser::onUnknown(std::function<void(const char *)> fn)
{
    unknown_ = std::move(fn);
}

void
OptionsParser::invalidValue(const std::string &name, const char *token)
{
    std::fprintf(stderr, "%s: invalid value '%s'\n", name.c_str(), token);
    std::exit(1);
}

const OptionsParser::Handler *
OptionsParser::find(const char *token) const
{
    for (const Handler &h : handlers_) {
        if (h.name == token)
            return &h;
    }
    return nullptr;
}

void
OptionsParser::run()
{
    for (int i = start_; i < argc_; ++i) {
        const char *token = argv_[i];

        // --flag=value form: split at the first '='.
        if (const char *eq = std::strchr(token, '=')) {
            const std::string name(token, eq - token);
            if (const Handler *h = find(name.c_str());
                h && h->takesValue) {
                h->fn(eq + 1);
                continue;
            }
        }

        const Handler *h = find(token);
        if (!h) {
            unknown_(token);
            continue;
        }
        if (!h->takesValue) {
            h->fn(nullptr);
            continue;
        }
        if (i + 1 >= argc_) {
            std::fprintf(stderr, "%s needs a value\n", token);
            std::exit(1);
        }
        h->fn(argv_[++i]);
    }
}

void
addRunFlags(OptionsParser &parser, CommonRunOptions *opts)
{
    parser.number("--seed", &opts->seed);
    parser.number("--requests", &opts->requests, 0);
    parser.number("--jobs", &opts->jobs, 0, ExperimentRunner::kMaxWorkers);
}

void
addSimdFlag(OptionsParser &parser, CommonRunOptions *opts)
{
    parser.value("--simd", [opts](const char *v) {
        const auto mode = simdModeFromString(v);
        if (!mode) {
            std::fprintf(stderr,
                         "--simd wants auto|scalar|avx2|neon, got "
                         "'%s'\n",
                         v);
            std::exit(1);
        }
        opts->sim.numerics.simd = *mode;
        opts->simdGiven = true;
    });
}

void
addShardFlag(OptionsParser &parser, ShardOption *shard)
{
    parser.value("--shard", [shard](const char *v) {
        const auto in = parseNumberList<int>(v, '/', 0);
        if (!in || in->size() != 2 || (*in)[0] >= (*in)[1]) {
            std::fprintf(stderr,
                         "--shard wants I/N with 0 <= I < N\n");
            std::exit(1);
        }
        shard->shard = (*in)[0];
        shard->numShards = (*in)[1];
        shard->given = true;
    });
}

void
applySimdSelection(const CommonRunOptions &opts)
{
    if (!opts.sim.applySimdMode()) {
        std::fprintf(stderr, "--simd: %s is not supported on this "
                             "host\n",
                     simdModeName(opts.sim.numerics.simd));
        std::exit(1);
    }
}

} // namespace rubik
