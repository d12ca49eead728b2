#include "runner/sweep_spec.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "util/parse_number.h"

namespace rubik {

namespace {

std::string
trim(const std::string &s)
{
    const std::size_t begin = s.find_first_not_of(" \t\r");
    if (begin == std::string::npos)
        return "";
    const std::size_t end = s.find_last_not_of(" \t\r");
    return s.substr(begin, end - begin + 1);
}

std::vector<std::string>
splitList(const std::string &s)
{
    std::vector<std::string> items;
    std::size_t pos = 0;
    while (pos <= s.size()) {
        std::size_t comma = s.find(',', pos);
        if (comma == std::string::npos)
            comma = s.size();
        const std::string item = trim(s.substr(pos, comma - pos));
        if (!item.empty())
            items.push_back(item);
        pos = comma + 1;
    }
    return items;
}

[[noreturn]] void
parseError(int line, const std::string &msg)
{
    throw std::runtime_error("sweep spec line " + std::to_string(line) +
                             ": " + msg);
}

/// A spec number: the whole value parses as a T (util/parse_number.h);
/// ranges are validate()'s job.
template <typename T>
T
parseValue(const std::string &s, int line, const char *what)
{
    const std::optional<T> v = parseNumber<T>(s);
    if (!v)
        parseError(line, "'" + s + "' is not " + what);
    return *v;
}

bool
parseBool(const std::string &s, int line)
{
    if (s == "true" || s == "1")
        return true;
    if (s == "false" || s == "0")
        return false;
    parseError(line, "'" + s + "' is not a boolean");
}

/// Shortest decimal form that parses back to exactly `v`.
std::string
formatDouble(double v)
{
    char buf[64];
    for (int precision = 1; precision <= 17; ++precision) {
        std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
        if (parseNumber<double>(buf) == v)
            break;
    }
    return buf;
}

template <typename T, typename Fmt>
std::string
joinList(const std::vector<T> &items, Fmt format)
{
    std::string out;
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (i > 0)
            out += ",";
        out += format(items[i]);
    }
    return out;
}

} // anonymous namespace

std::size_t
SweepSpec::numCells() const
{
    return apps.size() * loads.size() * policies.size() * seeds.size();
}

SweepCell
SweepSpec::cell(std::size_t index) const
{
    if (index >= numCells())
        throw std::runtime_error("sweep cell index out of range");
    SweepCell c;
    c.index = index;
    c.seed = seeds[index % seeds.size()];
    index /= seeds.size();
    c.policy = policies[index % policies.size()];
    index /= policies.size();
    c.load = loads[index % loads.size()];
    index /= loads.size();
    c.app = apps[index];
    return c;
}

int
SweepSpec::effectiveRequests() const
{
    // Mirrors bench::Options::numRequests so a fast spec matches a
    // --fast bench run.
    return fast ? std::max(200, requests / 4) : requests;
}

void
SweepSpec::validate() const
{
    if (apps.empty())
        throw std::runtime_error("sweep spec: no apps");
    if (loads.empty())
        throw std::runtime_error("sweep spec: no loads");
    if (policies.empty())
        throw std::runtime_error("sweep spec: no policies");
    if (seeds.empty())
        throw std::runtime_error("sweep spec: no seeds");
    for (double load : loads) {
        // The negated comparison keeps NaN from sneaking through.
        if (!(load > 0.0 && load < 1.5))
            throw std::runtime_error(
                "sweep spec: load " + formatDouble(load) +
                " outside (0, 1.5)");
    }
    if (requests <= 0)
        throw std::runtime_error("sweep spec: requests must be > 0");
    if (!(boundMs >= 0.0) || !std::isfinite(boundMs))
        throw std::runtime_error(
            "sweep spec: bound_ms must be finite and >= 0");
    if (!(transitionUs >= 0.0) || !std::isfinite(transitionUs))
        throw std::runtime_error(
            "sweep spec: transition_us must be finite and >= 0");
}

std::string
SweepSpec::serialize() const
{
    std::string out;
    out += "apps = " +
           joinList(apps, [](const std::string &s) { return s; }) + "\n";
    out += "loads = " + joinList(loads, formatDouble) + "\n";
    out += "policies = " +
           joinList(policies, [](const std::string &s) { return s; }) +
           "\n";
    out += "seeds = " +
           joinList(seeds,
                    [](uint64_t s) { return std::to_string(s); }) +
           "\n";
    out += "requests = " + std::to_string(requests) + "\n";
    out += std::string("fast = ") + (fast ? "true" : "false") + "\n";
    out += "bound_ms = " + formatDouble(boundMs) + "\n";
    out += "transition_us = " + formatDouble(transitionUs) + "\n";
    return out;
}

SweepSpec
SweepSpec::parse(const std::string &text)
{
    SweepSpec spec;
    std::istringstream in(text);
    std::string raw;
    int line_no = 0;
    while (std::getline(in, raw)) {
        ++line_no;
        const std::size_t hash = raw.find('#');
        if (hash != std::string::npos)
            raw.erase(hash);
        const std::string line = trim(raw);
        if (line.empty())
            continue;
        const std::size_t eq = line.find('=');
        if (eq == std::string::npos)
            parseError(line_no, "expected 'key = value'");
        const std::string key = trim(line.substr(0, eq));
        const std::string value = trim(line.substr(eq + 1));

        if (key == "apps") {
            spec.apps = splitList(value);
        } else if (key == "loads") {
            spec.loads.clear();
            for (const auto &item : splitList(value))
                spec.loads.push_back(
                    parseValue<double>(item, line_no, "a finite number"));
        } else if (key == "policies") {
            spec.policies = splitList(value);
        } else if (key == "seeds") {
            spec.seeds.clear();
            for (const auto &item : splitList(value))
                spec.seeds.push_back(
                    parseValue<uint64_t>(item, line_no, "a seed"));
        } else if (key == "requests") {
            spec.requests = parseValue<int>(value, line_no, "an integer");
        } else if (key == "fast") {
            spec.fast = parseBool(value, line_no);
        } else if (key == "bound_ms") {
            spec.boundMs =
                parseValue<double>(value, line_no, "a finite number");
        } else if (key == "transition_us") {
            spec.transitionUs =
                parseValue<double>(value, line_no, "a finite number");
        } else {
            parseError(line_no, "unknown key '" + key + "'");
        }
    }
    spec.validate();
    return spec;
}

SweepSpec
SweepSpec::parseFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read sweep spec: " + path);
    std::ostringstream text;
    text << in.rdbuf();
    return parse(text.str());
}

ShardRange
shardRange(std::size_t num_cells, int shard, int num_shards)
{
    if (num_shards < 1)
        throw std::runtime_error("shard count must be >= 1");
    if (shard < 0 || shard >= num_shards)
        throw std::runtime_error("shard index outside [0, N)");
    const auto n = static_cast<std::size_t>(num_shards);
    const auto i = static_cast<std::size_t>(shard);
    return ShardRange{num_cells * i / n, num_cells * (i + 1) / n};
}

std::string
mergeCsvShards(const std::vector<std::string> &shards)
{
    if (shards.empty())
        throw std::runtime_error("no shard inputs to merge");
    auto first_line = [](const std::string &s) {
        return s.substr(0, s.find('\n'));
    };
    std::string out = shards[0];
    const std::string header =
        shards[0].empty() ? "" : first_line(shards[0]);
    for (std::size_t i = 1; i < shards.size(); ++i) {
        const std::string &shard = shards[i];
        std::size_t begin = 0;
        if (!header.empty() && !shard.empty() &&
            first_line(shard) == header) {
            // A repeated header (merging full CSVs rather than
            // header-once shards): keep only the first copy.
            begin = std::min(header.size() + 1, shard.size());
        }
        out.append(shard, begin, std::string::npos);
    }
    return out;
}

void
mergeCsvShardFiles(const std::string &out_path,
                   const std::vector<std::string> &shard_paths)
{
    std::vector<std::string> contents;
    contents.reserve(shard_paths.size());
    for (const auto &path : shard_paths) {
        std::ifstream in(path, std::ios::binary);
        if (!in)
            throw std::runtime_error("cannot read shard: " + path);
        std::ostringstream text;
        text << in.rdbuf();
        contents.push_back(text.str());
    }
    const std::string merged = mergeCsvShards(contents);
    std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
    if (!out || !(out << merged) || !out.flush())
        throw std::runtime_error("cannot write merged CSV: " + out_path);
}

} // namespace rubik
