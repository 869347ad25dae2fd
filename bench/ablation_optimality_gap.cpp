// Optimality-gap ablation: how far is the paper's BEST portfolio from the
// exact 1-MP optimum on instances small enough to enumerate? (Paper
// conclusion: "we would like to establish a bound on the optimal solution …
// so that we could give an insight on the absolute performance of our
// heuristics".)
#include <cstdio>

#include "pamr/comm/generator.hpp"
#include "pamr/opt/exact_solver.hpp"
#include "pamr/routing/router.hpp"
#include "pamr/util/args.hpp"
#include "pamr/util/csv.hpp"
#include "pamr/util/stats.hpp"

int main(int argc, char** argv) {
  using namespace pamr;
  ArgParser parser("ablation_optimality_gap", "BEST vs the exact 1-MP optimum on 4x4");
  parser.add_int("trials", 60, "instances drawn", "PAMR_TRIALS");
  parser.add_int("seed", 909, "base seed");
  int exit_code = 0;
  if (!parser.parse(argc, argv, exit_code)) return exit_code;
  const auto trials = static_cast<std::int32_t>(parser.get_int("trials"));
  const auto seed = static_cast<std::uint64_t>(parser.get_int("seed"));

  const PowerModel model = PowerModel::paper_discrete();
  const Mesh mesh(4, 4);
  RunningStats gap;
  std::int32_t exact_feasible = 0;
  for (std::int32_t trial = 0; trial < trials; ++trial) {
    Rng rng(derive_seed(seed, 2, static_cast<std::uint64_t>(trial)));
    UniformWorkload spec;
    spec.num_comms = 6;
    spec.weight_lo = 500.0;
    spec.weight_hi = 2500.0;
    const CommSet comms = generate_uniform(mesh, spec, rng);
    const ExactResult exact = solve_exact_1mp(mesh, comms, model);
    if (!exact.complete || !exact.routing.has_value()) continue;
    ++exact_feasible;
    const RouteResult best = shared_router(RouterKind::kBest).route(mesh, comms, model);
    if (best.valid) gap.add(best.power / exact.power);
  }
  Table table({"policy", "mean power / exact optimum", "max"});
  table.set_double_precision(4);
  table.add_row({std::string{"BEST"}, gap.mean(), gap.max()});
  std::printf("== optimality gap on 4x4, 6 x U[500,2500) (%d feasible instances) ==\n%s\n",
              exact_feasible, table.to_text().c_str());
  return 0;
}
