#include "workloads/cache_manager.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string_view>

#include <sys/stat.h>
#include <unistd.h>

#include "sim/trace.h"
#include "util/parse_number.h"
#include "workloads/file_lock.h"

namespace rubik {

namespace {

namespace fs = std::filesystem;

constexpr char kEntrySuffix[] = ".rtrace";
constexpr char kLockSuffix[] = ".rtrace.lock";
constexpr char kTmpMarker[] = ".rtrace.tmp.";

int64_t
mtimeSeconds(const fs::path &path)
{
    struct stat st;
    if (::stat(path.c_str(), &st) != 0)
        return 0;
    return static_cast<int64_t>(st.st_mtime);
}

/// Split "1.5G" or "15m" into its unit suffix (the trailing letters)
/// and its number, which must be finite and >= 0
/// (util/parse_number.h).
double
splitSuffix(const std::string &text, const char *what, std::string *suffix)
{
    std::size_t cut = text.size();
    while (cut > 0 &&
           std::isalpha(static_cast<unsigned char>(text[cut - 1])))
        --cut;
    const std::optional<double> value =
        parseNumber<double>(std::string_view(text).substr(0, cut), 0.0);
    if (!value)
        throw std::runtime_error(std::string(what) + ": cannot parse '" +
                                 text + "'");
    *suffix = text.substr(cut);
    return *value;
}

} // anonymous namespace

CacheManager::CacheManager(std::string dir) : dir_(std::move(dir))
{
    if (dir_.empty())
        throw std::runtime_error("cache manager: empty directory");
}

bool
CacheManager::exists() const
{
    std::error_code ec;
    return fs::is_directory(dir_, ec);
}

std::vector<CacheManager::Entry>
CacheManager::scan(bool with_headers) const
{
    std::vector<Entry> entries;
    std::error_code ec;
    fs::directory_iterator it(dir_, ec);
    if (ec)
        return entries; // Missing directory: an empty cache.
    for (const fs::directory_entry &de : it) {
        const std::string name = de.path().filename().string();
        if (!name.ends_with(kEntrySuffix))
            continue;
        Entry e;
        e.name = name;
        e.path = de.path().string();
        std::error_code size_ec;
        e.sizeBytes = de.file_size(size_ec);
        if (size_ec)
            e.sizeBytes = 0;
        e.mtimeSec = mtimeSeconds(de.path());
        if (!with_headers) {
            entries.push_back(std::move(e));
            continue;
        }
        try {
            const TraceBinaryHeader h = readTraceBinaryHeader(e.path);
            e.records = h.records;
            e.meta = h.meta;
            if (h.totalBytes != e.sizeBytes) {
                e.error = "size mismatch (header claims " +
                          std::to_string(h.totalBytes) + " bytes)";
            } else {
                e.headerOk = true;
            }
        } catch (const std::exception &ex) {
            e.error = ex.what();
        }
        entries.push_back(std::move(e));
    }
    return entries;
}

std::vector<CacheManager::Entry>
CacheManager::list() const
{
    std::vector<Entry> entries = scan(/*with_headers=*/true);
    std::sort(entries.begin(), entries.end(),
              [](const Entry &a, const Entry &b) {
                  return a.name < b.name;
              });
    return entries;
}

CacheManager::Stats
CacheManager::stats() const
{
    Stats s;
    for (const Entry &e : scan(/*with_headers=*/true)) {
        ++s.entries;
        s.totalBytes += e.sizeBytes;
        if (!e.headerOk)
            ++s.badHeaders;
        if (s.oldestMtimeSec == 0 || e.mtimeSec < s.oldestMtimeSec)
            s.oldestMtimeSec = e.mtimeSec;
        s.newestMtimeSec = std::max(s.newestMtimeSec, e.mtimeSec);
    }
    std::error_code ec;
    for (fs::directory_iterator it(dir_, ec);
         !ec && it != fs::directory_iterator(); ++it) {
        const std::string name = it->path().filename().string();
        if (name.ends_with(kLockSuffix))
            ++s.lockFiles;
        else if (name.find(kTmpMarker) != std::string::npos)
            ++s.tmpFiles;
    }
    return s;
}

CacheManager::VerifyResult
CacheManager::verify(bool fix)
{
    VerifyResult result;
    for (Entry &e : list()) {
        ++result.checked;
        bool ok = false;
        try {
            loadTraceBinary(e.path); // Full checksum over meta+payload.
            ok = true;
        } catch (const std::exception &ex) {
            e.headerOk = false;
            e.error = ex.what();
        }
        if (ok)
            continue;
        if (fix) {
            FileLock lock(e.path + ".lock", /*blocking=*/false);
            // A held lock means a producer is rewriting this entry
            // right now — its atomic rename will repair it.
            if (lock.acquired() && ::unlink(e.path.c_str()) == 0) {
                ++result.removed;
                ::unlink((e.path + ".lock").c_str());
            }
        }
        result.corrupt.push_back(std::move(e));
    }
    return result;
}

CacheManager::VacuumResult
CacheManager::vacuum(uint64_t cap_bytes, int64_t max_age_sec)
{
    VacuumResult result;
    const int64_t now = static_cast<int64_t>(::time(nullptr));

    // Crashed-writer debris: tmp files old enough that no live writer
    // can still be about to rename them, and lock files whose entry is
    // gone and whose lock is free. (Removing a lock file races a
    // process that already opened it — both would then generate; the
    // result is still byte-identical because generation is
    // deterministic and the rewrite is atomic.)
    std::error_code ec;
    for (fs::directory_iterator it(dir_, ec);
         !ec && it != fs::directory_iterator(); ++it) {
        const std::string name = it->path().filename().string();
        if (name.find(kTmpMarker) != std::string::npos) {
            if (now - mtimeSeconds(it->path()) >= kStaleTmpSec &&
                ::unlink(it->path().c_str()) == 0)
                ++result.tmpRemoved;
        } else if (name.ends_with(kLockSuffix)) {
            const std::string entry =
                it->path().string().substr(
                    0, it->path().string().size() - 5); // drop ".lock"
            std::error_code exists_ec;
            if (fs::exists(entry, exists_ec))
                continue;
            FileLock lock(it->path().string(), /*blocking=*/false);
            if (lock.acquired() &&
                ::unlink(it->path().c_str()) == 0)
                ++result.tmpRemoved;
        }
    }

    // Eviction needs only size/mtime/name — skip the header reads so
    // write-triggered cap enforcement stays a stat()-only pass.
    std::vector<Entry> entries = scan(/*with_headers=*/false);
    // Oldest first; name-tiebreak keeps eviction order deterministic
    // when mtimes collide (same-second writes).
    std::sort(entries.begin(), entries.end(),
              [](const Entry &a, const Entry &b) {
                  if (a.mtimeSec != b.mtimeSec)
                      return a.mtimeSec < b.mtimeSec;
                  return a.name < b.name;
              });
    uint64_t total = 0;
    for (const Entry &e : entries)
        total += e.sizeBytes;

    std::vector<bool> gone(entries.size(), false);
    auto evict = [&](std::size_t i) {
        const Entry &e = entries[i];
        FileLock lock(e.path + ".lock", /*blocking=*/false);
        if (!lock.acquired()) {
            ++result.skippedLocked;
            return;
        }
        if (::unlink(e.path.c_str()) != 0)
            return; // Already gone (a concurrent vacuum won the race).
        // Drop the lock file too (we hold its flock), so eviction
        // leaves no debris behind.
        ::unlink((e.path + ".lock").c_str());
        ++result.evicted;
        result.evictedBytes += e.sizeBytes;
        total -= e.sizeBytes;
        gone[i] = true;
    };

    if (max_age_sec > 0) {
        for (std::size_t i = 0; i < entries.size(); ++i) {
            if (now - entries[i].mtimeSec > max_age_sec)
                evict(i);
        }
    }
    if (cap_bytes > 0) {
        for (std::size_t i = 0; i < entries.size() && total > cap_bytes;
             ++i) {
            if (!gone[i])
                evict(i);
        }
    }

    result.remainingBytes = total;
    for (std::size_t i = 0; i < entries.size(); ++i)
        result.remainingEntries += gone[i] ? 0 : 1;
    return result;
}

uint64_t
parseSizeBytes(const std::string &text)
{
    std::string suffix;
    const double value = splitSuffix(text, "size", &suffix);
    double scale = 1.0;
    if (!suffix.empty() &&
        (suffix.back() == 'b' || suffix.back() == 'B'))
        suffix.pop_back();
    if (suffix.size() > 1)
        throw std::runtime_error("size: bad suffix in '" + text + "'");
    if (suffix.size() == 1) {
        switch (std::tolower(static_cast<unsigned char>(suffix[0]))) {
        case 'k':
            scale = 1024.0;
            break;
        case 'm':
            scale = 1024.0 * 1024;
            break;
        case 'g':
            scale = 1024.0 * 1024 * 1024;
            break;
        case 't':
            scale = 1024.0 * 1024 * 1024 * 1024;
            break;
        default:
            throw std::runtime_error("size: bad suffix in '" + text +
                                     "'");
        }
    }
    const double bytes = value * scale;
    // 2^63: far above any real cap, far below where the cast is UB.
    if (!std::isfinite(bytes) || bytes >= 9.223372036854776e18)
        throw std::runtime_error("size: '" + text + "' out of range");
    return static_cast<uint64_t>(bytes);
}

std::string
formatSizeBytes(uint64_t bytes)
{
    const char *units[] = {"B", "KiB", "MiB", "GiB", "TiB"};
    double value = static_cast<double>(bytes);
    std::size_t u = 0;
    while (value >= 1024.0 && u + 1 < std::size(units)) {
        value /= 1024.0;
        ++u;
    }
    char buf[32];
    if (u == 0)
        std::snprintf(buf, sizeof(buf), "%llu B",
                      static_cast<unsigned long long>(bytes));
    else
        std::snprintf(buf, sizeof(buf), "%.1f %s", value, units[u]);
    return buf;
}

int64_t
parseDurationSeconds(const std::string &text)
{
    std::string suffix;
    const double value = splitSuffix(text, "duration", &suffix);
    double scale = 1.0;
    if (suffix.size() > 1)
        throw std::runtime_error("duration: bad suffix in '" + text +
                                 "'");
    if (suffix.size() == 1) {
        switch (std::tolower(static_cast<unsigned char>(suffix[0]))) {
        case 's':
            scale = 1.0;
            break;
        case 'm':
            scale = 60.0;
            break;
        case 'h':
            scale = 3600.0;
            break;
        case 'd':
            scale = 86400.0;
            break;
        default:
            throw std::runtime_error("duration: bad suffix in '" +
                                     text + "'");
        }
    }
    const double seconds = value * scale;
    if (!std::isfinite(seconds) || seconds >= 9.223372036854776e18) {
        throw std::runtime_error("duration: '" + text +
                                 "' out of range");
    }
    return static_cast<int64_t>(seconds);
}

} // namespace rubik
