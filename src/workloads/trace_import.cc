#include "workloads/trace_import.h"

#include <cstdio>
#include <optional>
#include <stdexcept>
#include <vector>

#include "sim/trace.h"
#include "util/parse_number.h"

namespace rubik {

namespace {

[[noreturn]] void
reject(const std::string &source, std::size_t line,
       const std::string &reason)
{
    throw std::runtime_error("trace import: " + source + ":" +
                             std::to_string(line) + ": " + reason);
}

std::string
trim(const std::string &s)
{
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && (s[b] == ' ' || s[b] == '\t'))
        ++b;
    while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t' ||
                     s[e - 1] == '\r'))
        --e;
    return s.substr(b, e - b);
}

std::vector<std::string>
splitFields(const std::string &line)
{
    std::vector<std::string> fields;
    std::size_t start = 0;
    while (true) {
        const std::size_t comma = line.find(',', start);
        if (comma == std::string::npos) {
            fields.push_back(trim(line.substr(start)));
            return fields;
        }
        fields.push_back(trim(line.substr(start, comma - start)));
        start = comma + 1;
    }
}

} // anonymous namespace

Trace
parseTraceCsv(const std::string &text, const std::string &source)
{
    if (text.empty())
        reject(source, 1, "empty file");

    Trace trace;
    std::size_t line_no = 0;
    std::size_t columns = 0;
    double prev_arrival = 0.0;
    std::size_t pos = 0;
    while (pos < text.size()) {
        const std::size_t nl = text.find('\n', pos);
        ++line_no;
        if (nl == std::string::npos) {
            // A dump cut off mid-write loses its trailing newline;
            // fail on the final line rather than importing short.
            reject(source, line_no,
                   "truncated file (final line has no newline)");
        }
        const std::string line = text.substr(pos, nl - pos);
        pos = nl + 1;

        const std::vector<std::string> fields = splitFields(line);
        if (line_no == 1) {
            // Header: 3 or 4 named columns, arrival first. A numeric
            // first line means the header is missing, not optional.
            if (fields.size() != 3 && fields.size() != 4)
                reject(source, 1, "header must name 3 or 4 columns");
            if (parseNumber<double>(fields[0]))
                reject(source, 1,
                       "missing header row (line 1 is numeric)");
            if (fields[0].rfind("arrival", 0) != 0)
                reject(source, 1,
                       "first column must be an arrival time "
                       "(header 'arrival...')");
            columns = fields.size();
            continue;
        }

        if (trim(line).empty())
            reject(source, line_no, "blank line");
        if (fields.size() != columns) {
            reject(source, line_no,
                   "expected " + std::to_string(columns) +
                       " fields, got " +
                       std::to_string(fields.size()));
        }
        // Every field is a finite number >= 0 (util/parse_number.h),
        // the class hint an int >= -1.
        const auto field = [&](std::size_t i, const char *name) {
            const std::optional<double> v =
                parseNumber<double>(fields[i], 0.0);
            if (!v)
                reject(source, line_no,
                       std::string(name) + " '" + fields[i] +
                           "' is not a finite number >= 0");
            return *v;
        };
        TraceRecord r;
        r.arrivalTime = field(0, "arrival time");
        r.computeCycles = field(1, "compute cycles");
        r.memoryTime = field(2, "memory time");
        if (!trace.empty() && r.arrivalTime < prev_arrival)
            reject(source, line_no,
                   "non-monotonic arrival time (goes backwards)");
        if (columns == 4) {
            const std::optional<int> hint =
                parseNumber<int>(fields[3], -1);
            if (!hint)
                reject(source, line_no,
                       "class hint '" + fields[3] +
                           "' is not an integer >= -1");
            r.classHint = *hint;
        }
        prev_arrival = r.arrivalTime;
        trace.push_back(r);
    }
    if (trace.empty())
        reject(source, line_no, "no records after header");
    return trace;
}

Trace
importTraceCsv(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f) {
        throw std::runtime_error("trace import: cannot open " + path +
                                 " for reading");
    }
    std::string text;
    char buf[1 << 16];
    std::size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, got);
    const bool read_err = std::ferror(f) != 0;
    std::fclose(f);
    if (read_err)
        throw std::runtime_error("trace import: read error on " + path);
    return parseTraceCsv(text, path);
}

TraceImportResult
convertTraceCsv(const std::string &csv_path,
                const std::string &rtrace_path)
{
    const Trace trace = importTraceCsv(csv_path);
    // Meta names the source so `rubik_cli cache ls`-style header reads
    // can tell an imported trace from a generated one.
    std::string base = csv_path;
    const std::size_t slash = base.find_last_of('/');
    if (slash != std::string::npos)
        base = base.substr(slash + 1);
    const std::string meta = "imported source=" + base +
                             " records=" + std::to_string(trace.size());
    saveTraceBinary(trace, rtrace_path, meta);

    TraceImportResult result;
    result.records = trace.size();
    result.checksum = readTraceBinaryHeader(rtrace_path).checksum;
    result.duration = traceDuration(trace);
    return result;
}

} // namespace rubik
