#ifndef RUBIK_RUNNER_OPTIONS_PARSER_H
#define RUBIK_RUNNER_OPTIONS_PARSER_H

/**
 * @file
 * Shared command-line option parsing.
 *
 * rubik_cli's one-shot, sweep, and fleet modes and every bench binary
 * used to walk argv with their own strcmp ladders, so a knob like
 * --seed was parsed four times with four error-handling styles — and a
 * new shared knob meant touching every ladder. OptionsParser is the
 * one argv walker: entry points register exactly the flags they
 * support (strictness per entry point is preserved; unregistered flags
 * still error) and the canonical shared flags — --seed/--requests/
 * --jobs, --shard I/N, --simd — come from the add*Flags helpers below
 * so they are declared, documented, and error-messaged in one file.
 *
 * Values are accepted both space-separated (`--simd avx2`) and
 * equals-joined (`--simd=avx2`).
 *
 * Every numeric flag parses through number()/numbers(), that is
 * through util/parse_number.h: the whole token is one decimal number,
 * finite, inside the flag's [lo, hi]. Leading whitespace, '+', hex and
 * hex floats, "inf" and "nan" are rejected, as is any value the type
 * cannot hold; strtod/atoi used to accept some of them or read them
 * as 0.
 */

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sim/sim_options.h"
#include "util/parse_number.h"

namespace rubik {

/**
 * Registration-based argv walker. A missing value prints
 * "FLAG needs a value" to stderr and exits 1; an unregistered token
 * goes to the onUnknown handler (default: "unknown flag: %s (try
 * --help)", exit 1).
 */
class OptionsParser
{
  public:
    /// Parse argv[start..argc). rubik_cli subcommands pass start = 2
    /// to skip the subcommand token.
    OptionsParser(int argc, char **argv, int start = 1);

    /// Register a boolean flag. Throws std::logic_error if `name` is
    /// already registered (silent shadowing hid real CLI bugs).
    void flag(const std::string &name, std::function<void()> fn);

    /// Register a valued flag; fn receives the value token. Throws
    /// std::logic_error on a duplicate name, like flag().
    void value(const std::string &name,
               std::function<void(const char *)> fn);

    /**
     * Register a strictly parsed numeric flag: the whole token must
     * parse as a T, be finite, and lie in [lo, hi]. Anything else —
     * `abc`, `2x`, `nope`, `-1` below a zero bound — prints "FLAG:
     * invalid value 'TOKEN'" to stderr and exits 1.
     */
    template <typename T>
    void number(const std::string &name, T *out,
                T lo = std::numeric_limits<T>::lowest(),
                T hi = std::numeric_limits<T>::max())
    {
        value(name, [name, out, lo, hi](const char *v) {
            const std::optional<T> parsed = parseNumber<T>(v, lo, hi);
            if (!parsed)
                invalidValue(name, v);
            *out = *parsed;
        });
    }

    /// A comma list of numbers, each held to number()'s rules; an
    /// empty item (`0.5,`) fails the whole list the same way.
    template <typename T>
    void numbers(const std::string &name, std::vector<T> *out,
                 T lo = std::numeric_limits<T>::lowest(),
                 T hi = std::numeric_limits<T>::max())
    {
        value(name, [name, out, lo, hi](const char *v) {
            std::optional<std::vector<T>> parsed =
                parseNumberList<T>(v, ',', lo, hi);
            if (!parsed)
                invalidValue(name, v);
            *out = std::move(*parsed);
        });
    }

    /// Replace the unknown-token handler.
    void onUnknown(std::function<void(const char *)> fn);

    /// Walk the argument vector, dispatching to handlers in order.
    void run();

  private:
    struct Handler
    {
        std::string name;
        bool takesValue = false;
        std::function<void(const char *)> fn;
    };

    [[noreturn]] static void invalidValue(const std::string &name,
                                          const char *token);
    const Handler *find(const char *token) const;
    void rejectDuplicate(const std::string &name) const;

    int argc_;
    char **argv_;
    int start_;
    std::vector<Handler> handlers_;
    std::function<void(const char *)> unknown_;
};

/// --shard I/N selection (0 <= I < N).
struct ShardOption
{
    int shard = 0;
    int numShards = 1;
    bool given = false;
};

/**
 * The run knobs shared by every simulation entry point, mapped onto
 * SimOptions (and from there onto PolicyRunRequest::options). Callers
 * seed the fields with their own defaults before parsing.
 */
struct CommonRunOptions
{
    uint64_t seed = 42;
    int requests = 0; ///< 0: entry point's default.
    int jobs = 0;     ///< Worker threads; 0: hardware default.
    /// Simulation options; --simd lands in sim.numerics.simd.
    SimOptions sim;
    bool simdGiven = false;
};

/// Register --seed S, --requests N (0: the entry point's default) and
/// --jobs N (0: hardware default; at most ExperimentRunner::kMaxWorkers).
void addRunFlags(OptionsParser &parser, CommonRunOptions *opts);

/**
 * Register --simd auto|scalar|avx2|neon (also --simd=MODE). A bad
 * mode name errors at parse time; host support is checked by
 * applySimdSelection.
 */
void addSimdFlag(OptionsParser &parser, CommonRunOptions *opts);

/// Register --shard I/N with the canonical range check.
void addShardFlag(OptionsParser &parser, ShardOption *shard);

/**
 * Apply opts.sim.numerics.simd process-wide (util/simd.h). Exits 1
 * with a message naming the mode if the host cannot provide it. Call
 * once after parsing, before any simulation work.
 */
void applySimdSelection(const CommonRunOptions &opts);

} // namespace rubik

#endif // RUBIK_RUNNER_OPTIONS_PARSER_H
