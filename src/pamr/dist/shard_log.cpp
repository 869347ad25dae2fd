#include "pamr/dist/shard_log.hpp"

#include <filesystem>
#include <fstream>

#include "pamr/exp/metrics.hpp"
#include "pamr/util/log.hpp"
#include "pamr/util/string_util.hpp"

namespace pamr {
namespace dist {

namespace {

constexpr std::string_view kHeaderPrefix = "pamr-shards/1 fingerprint=";
constexpr std::string_view kDonePrefix = "done ";

}  // namespace

ShardLog::~ShardLog() {
  if (file_ != nullptr) std::fclose(file_);
}

bool ShardLog::load(std::string_view fingerprint,
                    std::map<std::uint64_t, std::string>& completed,
                    std::string& error) {
  completed.clear();
  intact_bytes_.reset();
  std::ifstream in(path_, std::ios::binary);
  if (!in) return true;  // no journal yet — nothing to resume

  // getline sets eof only when the line ran into the end of the file
  // without its newline: the append that wrote it never finished.
  std::string line;
  if (!std::getline(in, line)) {
    intact_bytes_ = 0;  // empty file
    return true;
  }
  const std::string header = std::string(kHeaderPrefix) + std::string(fingerprint);
  if (in.eof() && starts_with(header, line)) {
    intact_bytes_ = 0;  // this campaign's header, torn mid-write: start over
    return true;
  }
  if (line != header) {
    error = "journal '" + path_ + "' belongs to a different campaign (header '" +
            line + "', expected fingerprint " + std::string(fingerprint) + ")";
    return false;
  }

  std::uintmax_t intact = line.size() + 1;
  std::size_t line_number = 1;
  bool previous_incomplete = false;
  std::string pending_warning;
  while (std::getline(in, line)) {
    ++line_number;
    if (previous_incomplete) {
      // A malformed line is only forgivable as the file's *last* line.
      error = "journal '" + path_ + "' is corrupt: " + pending_warning;
      return false;
    }
    const auto fail = [&](const std::string& what) {
      pending_warning = what + " at line " + std::to_string(line_number);
      previous_incomplete = true;
    };
    if (in.eof()) {
      fail("unterminated line");
      continue;
    }
    if (!starts_with(line, kDonePrefix)) {
      fail("expected a 'done' line");
      continue;
    }
    const std::string_view rest = std::string_view(line).substr(kDonePrefix.size());
    const std::size_t space = rest.find(' ');
    std::int64_t unit_id = 0;
    if (space == std::string_view::npos ||
        !parse_int64(rest.substr(0, space), unit_id) || unit_id < 0) {
      fail("malformed unit id");
      continue;
    }
    const std::string_view aggregate = rest.substr(space + 1);
    // Validate the payload here, not just its shape: a crash mid-append can
    // truncate *inside* the aggregate text, and an unparsable final line
    // must rerun its unit, not wedge --resume at merge time.
    exp::PointAggregate parsed;
    std::string parse_error;
    if (!exp::parse_point_aggregate(aggregate, parsed, parse_error)) {
      fail("unparsable aggregate (" + parse_error + ")");
      continue;
    }
    completed[static_cast<std::uint64_t>(unit_id)] = std::string(aggregate);
    intact += line.size() + 1;
  }
  if (previous_incomplete) {
    PAMR_LOG_WARN("journal '" + path_ + "': dropping truncated final line (" +
                  pending_warning + "); its unit will rerun");
  }
  intact_bytes_ = intact;
  return true;
}

bool ShardLog::open_append(std::string_view fingerprint, std::string& error) {
  if (intact_bytes_.has_value()) {
    std::error_code ec;
    std::filesystem::resize_file(path_, *intact_bytes_, ec);
    if (ec) {
      error = "cannot truncate journal '" + path_ + "': " + ec.message();
      return false;
    }
  }
  bool need_header = true;
  {
    std::ifstream existing(path_, std::ios::binary);
    need_header = !existing || existing.peek() == std::ifstream::traits_type::eof();
  }
  file_ = std::fopen(path_.c_str(), "ab");
  if (file_ == nullptr) {
    error = "cannot open journal '" + path_ + "' for appending";
    return false;
  }
  if (need_header) {
    std::fprintf(file_, "%.*s%.*s\n", static_cast<int>(kHeaderPrefix.size()),
                 kHeaderPrefix.data(), static_cast<int>(fingerprint.size()),
                 fingerprint.data());
    std::fflush(file_);
  }
  return true;
}

bool ShardLog::record(std::uint64_t unit_id, std::string_view aggregate) {
  if (file_ == nullptr) return false;
  const int written =
      std::fprintf(file_, "done %llu %.*s\n", static_cast<unsigned long long>(unit_id),
                   static_cast<int>(aggregate.size()), aggregate.data());
  const bool ok = written > 0 && std::fflush(file_) == 0;
  if (!ok && !warned_) {
    PAMR_LOG_WARN("journal '" + path_ + "': append failed; this run cannot be resumed");
    warned_ = true;
  }
  return ok;
}

}  // namespace dist
}  // namespace pamr
