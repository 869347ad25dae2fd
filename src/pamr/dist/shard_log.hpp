// On-disk journal of completed work units.
//
// The coordinator appends one flushed line per completed unit, so a killed
// campaign loses at most the units that were literally in flight. A header
// pins the campaign fingerprint (protocol.hpp): `--resume` against a
// journal written by a different suite, seed, trial count or chunk size is
// refused instead of silently merging apples into oranges.
//
//   pamr-shards/1 fingerprint=9f2ab77c01d3e8a4
//   done 0 aggv=3 n=8 sf=...
//   done 3 aggv=3 n=8 sf=...
//
// A truncated final line (the crash happened mid-append) is dropped with a
// warning — its unit simply reruns; corruption anywhere else is an error.
// Every record ends in a newline, so a final line without one is truncated
// even when its text happens to parse. Before appending after a load, the
// journal is cut back to its intact prefix, so the next record starts on a
// line of its own instead of being glued onto the torn bytes. A header
// torn mid-write (a first line with no newline that is a prefix of this
// campaign's header) starts the journal over; any other first line is a
// different campaign's and is refused.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <string_view>

namespace pamr {
namespace dist {

class ShardLog {
 public:
  explicit ShardLog(std::string path) : path_(std::move(path)) {}
  ~ShardLog();

  ShardLog(const ShardLog&) = delete;
  ShardLog& operator=(const ShardLog&) = delete;

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

  /// Reads an existing journal into `completed` (unit id -> aggregate wire
  /// line). A missing or empty file is fine (leaves `completed` empty);
  /// a fingerprint mismatch or a corrupt interior line returns false with
  /// `error` set. On success intact_bytes() is the offset just past the last
  /// good line.
  [[nodiscard]] bool load(std::string_view fingerprint,
                          std::map<std::uint64_t, std::string>& completed,
                          std::string& error);

  /// Length of the journal's intact prefix as of the last successful load()
  /// (the header and every complete record); nullopt before one, or when
  /// there was no file.
  [[nodiscard]] std::optional<std::uintmax_t> intact_bytes() const noexcept {
    return intact_bytes_;
  }

  /// Opens for appending, first truncating the file to intact_bytes() when
  /// load() found one, and writing the header if the file is then new or
  /// empty. Returns false with `error` set on I/O failure.
  [[nodiscard]] bool open_append(std::string_view fingerprint, std::string& error);

  /// Appends one completed unit and flushes. Returns false (after logging,
  /// once) on I/O failure — the campaign still finishes, it just cannot be
  /// resumed past this point.
  bool record(std::uint64_t unit_id, std::string_view aggregate);

 private:
  std::string path_;
  std::FILE* file_ = nullptr;
  std::optional<std::uintmax_t> intact_bytes_;
  bool warned_ = false;
};

}  // namespace dist
}  // namespace pamr
