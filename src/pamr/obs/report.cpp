#include "pamr/obs/report.hpp"

#include <fstream>

#include "pamr/obs/registry.hpp"
#include "pamr/util/assert.hpp"
#include "pamr/util/string_util.hpp"

namespace pamr::obs {

namespace {

const char* scope_name(Scope scope) {
  switch (scope) {
    case Scope::kUnit: return "unit";
    case Scope::kImpl: return "impl";
    case Scope::kDriver: return "driver";
    case Scope::kWall: return "wall";
  }
  return "?";
}

}  // namespace

bool write_report(const std::string& path, std::string_view driver,
                  std::string_view fingerprint, std::string& error) {
  const Snapshot snap = snapshot();

  std::string out = "{\n";
  out += "  \"schema\": \"pamr-metrics/1\",\n";
  out += "  \"driver\": \"" + json_escape(driver) + "\",\n";
  out += "  \"fingerprint\": \"" + json_escape(fingerprint) + "\",\n";
  out += "  \"build\": {\n";
  out += "    \"obs_compiled\": true,\n";
  out += "    \"check_level\": " + std::to_string(compiled_check_level()) + ",\n";
  out += "    \"compiler\": \"" + json_escape(__VERSION__) + "\"\n";
  out += "  },\n";
  out += std::string("  \"enabled\": ") + (enabled() ? "true" : "false") + ",\n";

  out += "  \"counters\": {\n";
  bool first = true;
  for (std::size_t i = 0; i < kNumMetrics; ++i) {
    const Metric m = static_cast<Metric>(i);
    if (info(m).kind != Kind::kCounter) continue;
    if (!first) out += ",\n";
    first = false;
    out += "    \"" + std::string(info(m).name) + "\": {\"scope\": \"" +
           scope_name(info(m).scope) + "\", \"value\": " +
           std::to_string(snap.counter(m)) + "}";
  }
  out += "\n  },\n";

  out += "  \"histograms\": {\n";
  first = true;
  for (std::size_t i = 0; i < kNumMetrics; ++i) {
    const Metric m = static_cast<Metric>(i);
    if (info(m).kind != Kind::kHistogram) continue;
    if (!first) out += ",\n";
    first = false;
    out += "    \"" + std::string(info(m).name) + "\": {\"scope\": \"" +
           scope_name(info(m).scope) + "\", \"count\": " +
           std::to_string(snap.hist_count(m)) + ", \"sum\": " +
           std::to_string(snap.hist_sum(m)) + ", \"buckets\": [";
    for (std::size_t b = 0; b < kHistBuckets; ++b) {
      if (b > 0) out += ", ";
      out += std::to_string(snap.hist_bucket(m, b));
    }
    out += "]}";
  }
  out += "\n  },\n";

  out += "  \"phases\": {\n";
  first = true;
  for (std::size_t i = 0; i < kNumMetrics; ++i) {
    const Metric m = static_cast<Metric>(i);
    if (info(m).kind != Kind::kTimer) continue;
    if (!first) out += ",\n";
    first = false;
    out += "    \"" + std::string(info(m).name) + "\": {\"wall_ns\": " +
           std::to_string(snap.timer_ns(m)) + ", \"calls\": " +
           std::to_string(snap.timer_calls(m)) + "}";
  }
  out += "\n  }\n";
  out += "}\n";

  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) {
    error = "cannot open '" + path + "' for writing";
    return false;
  }
  file << out;
  file.close();
  if (!file) {
    error = "write to '" + path + "' failed";
    return false;
  }
  return true;
}

}  // namespace pamr::obs
