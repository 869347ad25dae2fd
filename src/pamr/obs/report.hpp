// Run reports: one JSON snapshot of the full registry, written next to the
// result CSVs by --metrics-out. Schema "pamr-metrics/1"; validated in CI by
// tools/validate_telemetry.py. Every value is an integer — the report
// writer never formats a float, so it is trivially byte-stable for a given
// registry state.
#pragma once

#include <string>
#include <string_view>

namespace pamr::obs {

/// Writes the current registry snapshot. `driver` names the producing
/// binary ("pamr_scenarios"); `fingerprint` is the campaign
/// fingerprint of the work that ran (dist::build_campaign_plan), or "" for
/// ad-hoc runs.
[[nodiscard]] bool write_report(const std::string& path, std::string_view driver,
                                std::string_view fingerprint, std::string& error);

}  // namespace pamr::obs
