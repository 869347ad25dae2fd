#include "pamr/power/power_model.hpp"

#include <algorithm>
#include <cmath>

#include "pamr/util/assert.hpp"

namespace pamr {

PowerModel::PowerModel(PowerParams params) : params_(params) {
  PAMR_CHECK(params_.alpha > 1.0, "alpha must exceed 1 (paper: 2 < alpha <= 3)");
  PAMR_CHECK(params_.bandwidth > 0.0, "bandwidth must be positive");
  PAMR_CHECK(params_.p0 >= 0.0 && params_.p_leak >= 0.0, "powers must be non-negative");
}

PowerModel::PowerModel(PowerParams params, FrequencyTable table)
    : PowerModel(params) {
  PAMR_CHECK(table.max_frequency() <= params_.bandwidth + kFeasibilityTolerance,
             "top frequency exceeds the physical link bandwidth");
  table_ = std::move(table);
  level_powers_.reserve(table_->frequencies().size());
  for (const double frequency : table_->frequencies()) {
    level_powers_.push_back(*link_power(frequency));
  }
}

PowerModel PowerModel::paper_discrete() {
  return PowerModel(PowerParams{}, FrequencyTable::kim_horowitz());
}

PowerModel PowerModel::theory(double alpha, double bandwidth) {
  PowerParams params;
  params.p_leak = 0.0;
  params.p0 = 1.0;
  params.alpha = alpha;
  params.bandwidth = bandwidth;
  params.load_unit = 1.0;
  return PowerModel(params);
}

double PowerModel::capacity() const noexcept {
  return table_.has_value() ? table_->max_frequency() : params_.bandwidth;
}

std::optional<double> PowerModel::link_power(double load) const noexcept {
  const auto dynamic = link_dynamic_power(load);
  if (!dynamic.has_value()) return std::nullopt;
  return load > 0.0 ? params_.p_leak + *dynamic : 0.0;
}

std::optional<double> PowerModel::link_dynamic_power(double load) const noexcept {
  PAMR_ASSERT(load >= 0.0);
  if (load == 0.0) return 0.0;
  if (!feasible(load)) return std::nullopt;
  double effective = load;
  if (table_.has_value()) {
    const auto quantized = table_->quantize(load);
    if (!quantized.has_value()) return std::nullopt;
    effective = *quantized;
  }
  return params_.p0 * std::pow(effective * params_.load_unit, params_.alpha);
}

std::optional<double> PowerModel::total_power(std::span<const double> loads) const {
  const auto result = breakdown(loads);
  if (!result.has_value()) return std::nullopt;
  return result->total;
}

std::optional<PowerBreakdown> PowerModel::breakdown(
    std::span<const double> loads) const {
  PowerBreakdown out;
  for (const double load : loads) {
    if (load <= 0.0) continue;
    const auto dynamic = link_dynamic_power(load);
    if (!dynamic.has_value()) return std::nullopt;
    out.dynamic_part += *dynamic;
    out.static_part += params_.p_leak;
    ++out.active_links;
  }
  out.total = out.static_part + out.dynamic_part;
  return out;
}

}  // namespace pamr
