#include "pamr/exp/instance_runner.hpp"

#include <array>
#include <optional>
#include <utility>
#include <vector>

#include "pamr/obs/obs.hpp"
#include "pamr/opt/lower_bound.hpp"
#include "pamr/routing/validate.hpp"
#include "pamr/sim/sim_stats.hpp"
#include "pamr/util/assert.hpp"

namespace pamr {
namespace exp {

namespace {

SimSample probe_with_simulator(const Mesh& mesh, const CommSet& comms,
                               const Routing& routing, const sim::SimConfig& config) {
  obs::bump(obs::Metric::kSimProbes);
  const obs::PhaseScope phase(obs::Metric::kPhaseSim);
  const sim::SimStats stats = sim::simulate(mesh, comms, routing, config);
  SimSample sample;
  sample.ran = true;
  sample.delivery = stats.delivery_ratio();
  double latency_sum = 0.0;
  std::int64_t delivered = 0;
  for (std::size_t flow = 0; flow < stats.per_subflow.size(); ++flow) {
    latency_sum += stats.per_subflow[flow].latency_sum;
    delivered += stats.per_subflow[flow].delivered_flits;
    sample.throughput_mbps += stats.delivered_mbps(flow);
  }
  sample.latency_cycles =
      delivered > 0 ? latency_sum / static_cast<double>(delivered) : 0.0;
  return sample;
}

}  // namespace

InstanceSample run_instance(const topo::Topology& topology, const CommSet& comms,
                            const PowerModel& model, const sim::SimConfig* sim_config,
                            RouteWorkspace& workspace) {
  const Mesh* mesh = topology.as_mesh();
  PAMR_CHECK(mesh != nullptr || sim_config == nullptr, "sim=on needs topo=rect");
  std::array<HeuristicSample, kNumBaseRouters> base;
  // Malformed input throws here exactly as it would in the first route call.
  check_comm_set(topology, comms);
  if (mesh != nullptr && certify_infeasible(*mesh, comms, model)) {
    // Every policy would fail: six invalid samples, no routing, no probe.
    obs::bump(obs::Metric::kRouteCertifiedInfeasible);
    return make_instance_sample(base);
  }
  // The BEST routing (lowest power among valid policies) doubles as the
  // simulation probe's subject, so keep it while the scalars are folded.
  std::optional<Routing> best_routing;
  double best_power = 0.0;
  static const std::vector<RouterKind> kinds = all_base_routers();
  for (std::size_t h = 0; h < kinds.size(); ++h) {
    RouteResult result = shared_router(kinds[h]).route(topology, comms, model,
                                                       RouteGoal::kVerdict, workspace);
    base[h].valid = result.valid;
    base[h].power = result.power;
    base[h].static_power = result.breakdown.static_part;
    base[h].elapsed_ms = result.elapsed_ms;
    if (sim_config != nullptr && result.valid && result.routing.has_value() &&
        (!best_routing.has_value() || result.power < best_power)) {
      std::swap(best_routing, result.routing);
      best_power = result.power;
    }
    workspace.recycle(result);
  }
  InstanceSample sample = make_instance_sample(base);
  if (best_routing.has_value()) {
    if (!comms.empty()) {
      sample.sim = probe_with_simulator(*mesh, comms, *best_routing, *sim_config);
    }
    workspace.recycle(*std::move(best_routing));
  }
  return sample;
}

}  // namespace exp
}  // namespace pamr
