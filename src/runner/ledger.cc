#include "runner/ledger.h"

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string_view>

#include <fcntl.h>
#include <unistd.h>

#include "runner/fault.h"
#include "sim/trace.h"
#include "util/parse_number.h"

namespace rubik {

namespace {

constexpr char kHeaderPrefix[] = "# rubik sweep ledger v1 ";

std::string
headerLine(uint64_t spec_hash, std::size_t num_cells)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%sspec=%016llx cells=%zu\n",
                  kHeaderPrefix,
                  static_cast<unsigned long long>(spec_hash),
                  num_cells);
    return buf;
}

/// Checksum a record's payload: "<index> <row>".
uint64_t
recordHash(std::size_t index, const std::string &row)
{
    const std::string payload = std::to_string(index) + " " + row;
    return fnv1a64(payload.data(), payload.size());
}

std::string
recordLine(std::size_t index, const std::string &row)
{
    char hex[24];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(
                      recordHash(index, row)));
    return std::to_string(index) + " " + hex + " " + row + "\n";
}

/// Parse "<index> <16-hex> <row>" (no newline). Returns false on any
/// structural or checksum mismatch.
bool
parseRecord(const std::string &line, std::size_t num_cells,
            std::size_t *index, std::string *row)
{
    const std::size_t sp1 = line.find(' ');
    if (sp1 == std::string::npos || sp1 == 0)
        return false;
    const std::size_t sp2 = line.find(' ', sp1 + 1);
    if (sp2 == std::string::npos || sp2 - sp1 - 1 != 16)
        return false;
    const std::string_view text(line);
    const std::optional<std::size_t> idx =
        parseNumber<std::size_t>(text.substr(0, sp1));
    const std::optional<uint64_t> sum = parseNumber<uint64_t>(
        text.substr(sp1 + 1, 16), 0, UINT64_MAX, 16);
    if (!idx || *idx >= num_cells || !sum)
        return false;
    const std::string payload = line.substr(sp2 + 1);
    if (recordHash(*idx, payload) != *sum)
        return false;
    *index = *idx;
    *row = payload;
    return true;
}

void
writeAll(int fd, const char *data, std::size_t size,
         const std::string &path)
{
    while (size > 0) {
        const ssize_t n = ::write(fd, data, size);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throw std::runtime_error("ledger: write failed: " + path);
        }
        data += n;
        size -= static_cast<std::size_t>(n);
    }
}

} // anonymous namespace

uint64_t
sweepSpecHash(const SweepSpec &spec)
{
    const std::string text = spec.serialize();
    return fnv1a64(text.data(), text.size());
}

LedgerScan
scanLedger(const std::string &path)
{
    LedgerScan scan;
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return scan;
    scan.exists = true;
    std::string text;
    char buf[1 << 16];
    std::size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, got);
    std::fclose(f);

    // Header line first; anything else makes the whole file invalid
    // (headerOk=false), which resume treats as "start over".
    const std::size_t nl = text.find('\n');
    if (nl == std::string::npos ||
        text.compare(0, sizeof(kHeaderPrefix) - 1, kHeaderPrefix) !=
            0) {
        scan.droppedBytes = text.size();
        return scan;
    }
    // "spec=<hex> cells=<decimal>", as headerLine writes it.
    constexpr std::size_t kPrefixLen = sizeof(kHeaderPrefix) - 1;
    const std::string_view fields(text.data() + kPrefixLen,
                                  nl - kPrefixLen);
    const std::size_t sp = fields.find(' ');
    std::optional<uint64_t> spec_hash;
    std::optional<std::size_t> cells;
    if (fields.substr(0, 5) == "spec=" && sp != std::string_view::npos &&
        fields.compare(sp, 7, " cells=") == 0) {
        spec_hash = parseNumber<uint64_t>(fields.substr(5, sp - 5), 0,
                                          UINT64_MAX, 16);
        cells = parseNumber<std::size_t>(fields.substr(sp + 7));
    }
    if (!spec_hash || !cells) {
        scan.droppedBytes = text.size();
        return scan;
    }
    scan.headerOk = true;
    scan.specHash = *spec_hash;
    scan.numCells = *cells;
    scan.validBytes = nl + 1;

    // Records: keep the longest prefix of intact, in-range,
    // non-contradictory lines. The first torn or corrupt line ends
    // the prefix; everything after it is dropped (it was never
    // acknowledged as durable in order anyway).
    std::size_t pos = nl + 1;
    while (pos < text.size()) {
        const std::size_t line_end = text.find('\n', pos);
        if (line_end == std::string::npos)
            break; // torn tail: unterminated final line
        const std::string line = text.substr(pos, line_end - pos);
        std::size_t index = 0;
        std::string row;
        if (!parseRecord(line, scan.numCells, &index, &row))
            break;
        const auto it = scan.rows.find(index);
        if (it != scan.rows.end() && it->second != row)
            break; // same cell, different bytes: corrupt
        scan.rows.emplace(index, std::move(row));
        pos = line_end + 1;
        scan.validBytes = pos;
    }
    scan.droppedBytes = text.size() - scan.validBytes;
    return scan;
}

SweepLedger::~SweepLedger() { close(); }

void
SweepLedger::open(const std::string &path, const SweepSpec &spec,
                  bool resume, LedgerScan *scan_out)
{
    close();
    const uint64_t spec_hash = sweepSpecHash(spec);
    const std::size_t num_cells = spec.numCells();
    LedgerScan scan;
    if (resume) {
        scan = scanLedger(path);
        if (scan.exists && scan.headerOk) {
            if (scan.specHash != spec_hash ||
                scan.numCells != num_cells) {
                char msg[160];
                std::snprintf(
                    msg, sizeof(msg),
                    "ledger %s was written for a different spec "
                    "(spec=%016llx cells=%zu, want spec=%016llx "
                    "cells=%zu)",
                    path.c_str(),
                    static_cast<unsigned long long>(scan.specHash),
                    scan.numCells,
                    static_cast<unsigned long long>(spec_hash),
                    num_cells);
                throw std::runtime_error(msg);
            }
            if (scan.droppedBytes > 0) {
                std::fprintf(stderr,
                             "ledger: dropping %zu corrupt tail "
                             "byte(s) of %s\n",
                             scan.droppedBytes, path.c_str());
            }
        } else if (scan.exists) {
            std::fprintf(stderr,
                         "ledger: %s has a corrupt header; starting "
                         "over\n",
                         path.c_str());
            scan = LedgerScan{};
        }
    }
    if (scan_out)
        *scan_out = scan;

    fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_CLOEXEC, 0644);
    if (fd_ < 0)
        throw std::runtime_error("ledger: cannot open " + path);
    path_ = path;
    if (resume && scan.headerOk) {
        // Continue after the valid prefix, shedding any torn tail.
        if (::ftruncate(fd_, static_cast<off_t>(scan.validBytes)) !=
                0 ||
            ::lseek(fd_, 0, SEEK_END) < 0)
            throw std::runtime_error("ledger: cannot truncate " +
                                     path);
    } else {
        if (::ftruncate(fd_, 0) != 0)
            throw std::runtime_error("ledger: cannot truncate " +
                                     path);
        const std::string header = headerLine(spec_hash, num_cells);
        writeAll(fd_, header.data(), header.size(), path_);
        if (::fsync(fd_) != 0)
            throw std::runtime_error("ledger: fsync failed: " + path);
    }
}

void
SweepLedger::append(std::size_t index, const std::string &row)
{
    if (fd_ < 0)
        throw std::runtime_error("ledger: append on closed ledger");
    const std::string line = recordLine(index, row);
    const FaultInjector::LedgerFault fault =
        FaultInjector::instance().ledgerFaultFor(index);
    if (fault == FaultInjector::LedgerFault::KillMidWrite) {
        // Durable half-record, then die: the torn-tail case the scan
        // prefix rule must absorb on resume.
        writeAll(fd_, line.data(), line.size() / 2, path_);
        ::fsync(fd_);
        std::fprintf(stderr,
                     "rubik: injected fault: killed mid-write of "
                     "ledger record for cell %zu\n",
                     index);
        std::fflush(stderr);
        ::_exit(70);
    }
    writeAll(fd_, line.data(), line.size(), path_);
    if (::fsync(fd_) != 0)
        throw std::runtime_error("ledger: fsync failed: " + path_);
    if (fault == FaultInjector::LedgerFault::CorruptTail) {
        const off_t size = ::lseek(fd_, 0, SEEK_END);
        if (size > 6)
            (void)!::pwrite(fd_, "@@@@", 4, size - 5);
        ::fsync(fd_);
        std::fprintf(stderr,
                     "rubik: injected fault: corrupted ledger tail "
                     "after cell %zu\n",
                     index);
        std::fflush(stderr);
        ::_exit(70);
    }
}

void
SweepLedger::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    path_.clear();
}

} // namespace rubik
