#include "pamr/comm/communication.hpp"

#include <algorithm>
#include <numeric>

#include "pamr/util/string_util.hpp"

namespace pamr {

double total_weight(const CommSet& comms) noexcept {
  double sum = 0.0;
  for (const auto& comm : comms) sum += comm.weight;
  return sum;
}

std::vector<std::size_t> order_by_decreasing_weight(const CommSet& comms) {
  std::vector<std::size_t> order;
  order_by_decreasing_weight(comms, order);
  return order;
}

void order_by_decreasing_weight(const CommSet& comms, std::vector<std::size_t>& out) {
  out.resize(comms.size());
  std::iota(out.begin(), out.end(), std::size_t{0});
  // Ties by index: exactly a stable sort by weight, without stable_sort's
  // temporary buffer.
  std::sort(out.begin(), out.end(), [&comms](std::size_t a, std::size_t b) {
    return comms[a].weight > comms[b].weight ||
           (comms[a].weight == comms[b].weight && a < b);
  });
}

double mean_length(const CommSet& comms) noexcept {
  if (comms.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& comm : comms) {
    sum += static_cast<double>(manhattan_distance(comm.src, comm.snk));
  }
  return sum / static_cast<double>(comms.size());
}

std::string to_string(const Communication& comm) {
  return to_string(comm.src) + "->" + to_string(comm.snk) + " @ " +
         format_bandwidth_mbps(comm.weight);
}

}  // namespace pamr
