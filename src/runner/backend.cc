#include "runner/backend.h"

#include <stdexcept>

#include <unistd.h>

namespace rubik {

std::string
backendTemplate(const std::string &desc)
{
    if (desc == "local" || desc.empty())
        return "";
    if (desc == "subprocess")
        return "{argv}";
    constexpr const char kCommandPrefix[] = "command:";
    if (desc.rfind(kCommandPrefix, 0) != 0) {
        throw std::runtime_error(
            "unknown backend '" + desc +
            "' (want local, subprocess, or command:<template>)");
    }
    std::string tmpl = desc.substr(sizeof(kCommandPrefix) - 1);
    if (tmpl.empty())
        throw std::runtime_error("command backend: empty command template");
    if (tmpl.find("{argv}") == std::string::npos &&
        tmpl.find("{shard}") == std::string::npos &&
        tmpl.find("{index}") == std::string::npos) {
        throw std::runtime_error(
            "command backend: template must reference {argv}, "
            "{shard}, or {index} so shards run distinct commands");
    }
    return tmpl;
}

std::string
shellQuote(const std::string &arg)
{
    std::string quoted = "'";
    for (const char c : arg) {
        if (c == '\'')
            quoted += "'\\''";
        else
            quoted.push_back(c);
    }
    quoted.push_back('\'');
    return quoted;
}

std::string
joinQuoted(const std::vector<std::string> &argv)
{
    std::string cmd;
    for (const std::string &arg : argv) {
        if (!cmd.empty())
            cmd += ' ';
        cmd += shellQuote(arg);
    }
    return cmd;
}

std::string
instantiateCommandTemplate(const std::string &tmpl,
                           const std::map<std::string, std::string>
                               &fields)
{
    std::string out;
    out.reserve(tmpl.size());
    std::size_t pos = 0;
    while (pos < tmpl.size()) {
        const std::size_t open = tmpl.find('{', pos);
        if (open == std::string::npos) {
            out.append(tmpl, pos, std::string::npos);
            break;
        }
        out.append(tmpl, pos, open - pos);
        const std::size_t close = tmpl.find('}', open);
        if (close == std::string::npos) {
            out.append(tmpl, open, std::string::npos);
            break;
        }
        const std::string key = tmpl.substr(open + 1, close - open - 1);
        const auto it = fields.find(key);
        if (it != fields.end()) {
            out += it->second;
        } else {
            // Unknown placeholder: keep the braces verbatim, so shell
            // constructs like ${VAR} pass through untouched.
            out.append(tmpl, open, close - open + 1);
        }
        pos = close + 1;
    }
    return out;
}

std::string
selfExePath(const char *argv0)
{
    char buf[4096];
    const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n > 0) {
        buf[n] = '\0';
        return buf;
    }
    return argv0 ? argv0 : "";
}

std::string
unitCommand(const std::string &tmpl, const std::string &argv, int index,
            int count, int jobs, const std::string &spec_path,
            const std::string &cells)
{
    std::map<std::string, std::string> fields = {
        {"argv", argv},
        {"shard", std::to_string(index) + "/" + std::to_string(count)},
        {"index", std::to_string(index)},
        {"nshards", std::to_string(count)},
        {"jobs", std::to_string(jobs)},
    };
    if (!spec_path.empty())
        fields.emplace("spec", spec_path);
    if (!cells.empty())
        fields.emplace("cells", cells);
    return instantiateCommandTemplate(tmpl, fields);
}

std::string
sweepBatchCommand(const std::string &tmpl, const BackendConfig &config,
                  const std::string &spec_path, std::size_t begin,
                  std::size_t end, int index, int count)
{
    std::vector<std::string> argv = {
        config.selfExe.empty() ? selfExePath(nullptr) : config.selfExe,
        "sweep", "--spec", spec_path};
    if (config.jobs > 0) {
        argv.push_back("--jobs");
        argv.push_back(std::to_string(config.jobs));
    }
    if (!config.traceCacheDir.empty()) {
        argv.push_back("--trace-cache");
        argv.push_back(config.traceCacheDir);
    }
    if (!config.traceCacheCap.empty()) {
        argv.push_back("--cache-cap");
        argv.push_back(config.traceCacheCap);
    }
    if (config.traceStats)
        argv.push_back("--trace-stats");
    const std::string cells =
        std::to_string(begin) + "-" + std::to_string(end);
    argv.push_back("--cells");
    argv.push_back(cells);
    return unitCommand(tmpl, joinQuoted(argv), index, count, config.jobs,
                       spec_path, cells);
}

} // namespace rubik
