#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>

#include <sys/resource.h>
#include <unistd.h>

namespace perfbench {

double
now()
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

uint64_t
fnv(const void *data, std::size_t size, uint64_t h)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < size; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

double
peakRssMb(pid_t pid)
{
    const std::string path =
        pid ? "/proc/" + std::to_string(pid) + "/status"
            : std::string("/proc/self/status");
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::atof(line.c_str() + 6) / 1024.0; // kB -> MB
    }
    return -1.0;
}

double
processCpuS(pid_t pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
    std::string text;
    std::getline(in, text);
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, i.e. 12 and 13 after ')'.
    const std::size_t close = text.rfind(')');
    if (close == std::string::npos)
        return -1.0;
    std::istringstream rest(text.substr(close + 2));
    std::string field;
    double ticks = 0.0;
    for (int i = 1; i <= 13 && rest >> field; ++i) {
        if (i >= 12)
            ticks += std::atof(field.c_str());
    }
    return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double
selfCpuS()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
               1e-6;
}

void
Layers::report(Report &rep) const
{
    const double other = tracedS - traceGenS - rebuildS - decideS;
    rep.check(other >= 0.0, "spans exceed the traced wall time");
    rep.set("workloads.trace_gen_s", traceGenS / passes);
    rep.set("workloads.traces", static_cast<double>(traces) / passes);
    rep.set("core.rebuild_s", rebuildS / passes);
    rep.set("core.rebuilds", static_cast<double>(rebuilds) / passes);
    rep.set("core.rebuild_ms_p50", quantile(rebuildMs, 0.5));
    rep.set("core.rebuild_ms_p99", quantile(rebuildMs, 0.99));
    rep.set("policies.decide_s", decideS / passes);
    rep.set("policies.decisions", static_cast<double>(decisions) / passes);
    rep.set("policies.decide_ns_mean",
            decisions ? decideS / static_cast<double>(decisions) * 1e9
                      : 0.0);
    rep.set("other_s", other / passes);
    rep.set("trace.wall_s", tracedS / passes);
    rep.set("trace.overhead_s", (tracedS - untracedS) / passes);
}

void
Report::check(bool ok, const std::string &what)
{
    ++attempted;
    if (!ok) {
        ++failed;
        errors.push_back(what);
    }
}

void
Report::print() const
{
    std::printf("{\"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": %.17g", i ? ", " : "",
                    metrics[i].first.c_str(), metrics[i].second);
    std::printf("}, \"errors\": [");
    for (std::size_t i = 0; i < errors.size(); ++i) {
        std::string e;
        for (char c : errors[i])
            e += (c == '"' || c == '\\') ? '\'' : c;
        std::printf("%s\"%s\"", i ? ", " : "", e.c_str());
    }
    std::printf("]}\n");
    std::fflush(stdout);
}

} // namespace perfbench
