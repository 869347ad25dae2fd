#include "pamr/exp/instance_runner.hpp"

#include <array>
#include <memory>
#include <optional>
#include <utility>

#include "pamr/obs/obs.hpp"
#include "pamr/opt/lower_bound.hpp"
#include "pamr/routing/routers.hpp"
#include "pamr/sim/sim_stats.hpp"
#include "pamr/topo/topo_router.hpp"

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

/// The six base policies, built once: routers are stateless, so one set
/// serves every thread.
const std::array<std::unique_ptr<Router>, kNumBaseRouters>& base_routers() {
  static const auto routers = [] {
    std::array<std::unique_ptr<Router>, kNumBaseRouters> made;
    const auto kinds = all_base_routers();
    for (std::size_t h = 0; h < kinds.size(); ++h) made[h] = make_router(kinds[h]);
    return made;
  }();
  return routers;
}

}  // namespace

InstanceSample run_instance(const Mesh& mesh, const CommSet& comms,
                            const PowerModel& model, const sim::SimConfig* sim_config) {
  RouteWorkspace workspace;
  return run_instance(mesh, comms, model, sim_config, workspace);
}

InstanceSample run_instance(const Mesh& mesh, const CommSet& comms,
                            const PowerModel& model, const sim::SimConfig* sim_config,
                            RouteWorkspace& workspace) {
  std::array<HeuristicSample, kNumBaseRouters> base;
  // Malformed input throws here exactly as it would in the first route call.
  check_comm_set(mesh, comms);
  if (certify_infeasible(mesh, comms, model)) {
    // Every policy would fail: six invalid samples, no routing, no probe.
    obs::bump(obs::Metric::kRouteCertifiedInfeasible);
    return make_instance_sample(base);
  }
  // The BEST routing (lowest power among valid policies) doubles as the
  // simulation probe's subject, so keep it while the scalars are folded.
  std::optional<Routing> best_routing;
  double best_power = 0.0;
  const auto& routers = base_routers();
  for (std::size_t h = 0; h < routers.size(); ++h) {
    RouteResult result =
        routers[h]->route(mesh, comms, model, RouteGoal::kVerdict, workspace);
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
      sample.sim = probe_with_simulator(mesh, comms, *best_routing, *sim_config);
    }
    workspace.recycle(*std::move(best_routing));
  }
  return sample;
}

InstanceSample run_instance(const topo::Topology& topology, const CommSet& comms,
                            const PowerModel& model) {
  std::array<HeuristicSample, kNumBaseRouters> base;
  const auto kinds = all_base_routers();
  for (std::size_t h = 0; h < kinds.size(); ++h) {
    const RouteResult result = topo::route_on(topology, kinds[h], comms, model);
    base[h].valid = result.valid;
    base[h].power = result.power;
    base[h].static_power = result.breakdown.static_part;
    base[h].elapsed_ms = result.elapsed_ms;
  }
  return make_instance_sample(base);
}

}  // namespace exp
}  // namespace pamr
