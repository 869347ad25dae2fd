// Tests for the §6 experiment harness: metric bookkeeping, single-point
// determinism, and coarse shape checks of the registry's figure panels
// (full-resolution sweeps run through pamr_scenarios).
#include <gtest/gtest.h>

#include "pamr/exp/instance_runner.hpp"
#include "pamr/scenario/suite_runner.hpp"

namespace pamr {
namespace exp {
namespace {

TEST(Metrics, SeriesNamesMatchPaperLegend) {
  EXPECT_STREQ(series_name(0), "XY");
  EXPECT_STREQ(series_name(1), "SG");
  EXPECT_STREQ(series_name(2), "IG");
  EXPECT_STREQ(series_name(3), "TB");
  EXPECT_STREQ(series_name(4), "XYI");
  EXPECT_STREQ(series_name(5), "PR");
  EXPECT_STREQ(series_name(kBestSeries), "BEST");
}

TEST(Metrics, BestIsDerivedAsTheValidMinimum) {
  std::array<HeuristicSample, kNumBaseRouters> base{};
  base[0] = {false, 0.0, 0.0, 1.0};         // XY failed
  base[1] = {true, 200.0, 20.0, 2.0};       // SG
  base[2] = {true, 150.0, 15.0, 3.0};       // IG — the winner
  base[3] = {true, 180.0, 18.0, 1.5};       // TB
  base[4] = {false, 0.0, 0.0, 4.0};         // XYI failed
  base[5] = {true, 160.0, 16.0, 5.0};       // PR
  const InstanceSample sample = make_instance_sample(base);
  const HeuristicSample& best = sample.series[kBestSeries];
  EXPECT_TRUE(best.valid);
  EXPECT_DOUBLE_EQ(best.power, 150.0);
  EXPECT_DOUBLE_EQ(best.static_power, 15.0);
  EXPECT_DOUBLE_EQ(best.elapsed_ms, 16.5);  // sum of all six
}

TEST(Metrics, BestFailsWhenEveryoneFails) {
  std::array<HeuristicSample, kNumBaseRouters> base{};
  const InstanceSample sample = make_instance_sample(base);
  EXPECT_FALSE(sample.series[kBestSeries].valid);
  EXPECT_DOUBLE_EQ(sample.series[kBestSeries].inverse_power(), 0.0);
}

TEST(Metrics, AggregateNormalizesAgainstBest) {
  PointAggregate aggregate;
  std::array<HeuristicSample, kNumBaseRouters> base{};
  for (std::size_t h = 0; h < kNumBaseRouters; ++h) base[h] = {true, 100.0, 10.0, 1.0};
  base[5] = {true, 50.0, 5.0, 1.0};  // PR twice as good
  aggregate.add(make_instance_sample(base));
  EXPECT_EQ(aggregate.instances, 1u);
  EXPECT_DOUBLE_EQ(aggregate.normalized_inverse[5].mean(), 1.0);   // PR == BEST
  EXPECT_DOUBLE_EQ(aggregate.normalized_inverse[0].mean(), 0.5);   // XY at half
  EXPECT_DOUBLE_EQ(aggregate.failure_ratio(0), 0.0);
  EXPECT_DOUBLE_EQ(aggregate.static_fraction.mean(), 0.1);
}

TEST(Metrics, MergeMatchesSequentialAggregation) {
  Rng rng(1);
  std::vector<InstanceSample> samples;
  for (int i = 0; i < 50; ++i) {
    std::array<HeuristicSample, kNumBaseRouters> base{};
    for (std::size_t h = 0; h < kNumBaseRouters; ++h) {
      base[h].valid = rng.chance(0.7);
      base[h].power = rng.uniform(50.0, 500.0);
      base[h].static_power = base[h].power * 0.15;
      base[h].elapsed_ms = rng.uniform(0.1, 5.0);
    }
    samples.push_back(make_instance_sample(base));
  }
  PointAggregate all;
  PointAggregate left;
  PointAggregate right;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    all.add(samples[i]);
    (i % 2 == 0 ? left : right).add(samples[i]);
  }
  left.merge(right);
  EXPECT_EQ(left.instances, all.instances);
  for (std::size_t s = 0; s < kNumSeries; ++s) {
    EXPECT_EQ(left.failures[s], all.failures[s]);
    EXPECT_NEAR(left.normalized_inverse[s].mean(), all.normalized_inverse[s].mean(),
                1e-12);
  }
}

/// A single uniform layer on the paper's platform (8×8, discrete links).
scenario::ScenarioSpec uniform_spec(std::int32_t n, double lo, double hi) {
  scenario::ScenarioSpec spec;
  scenario::WorkloadLayer& layer = spec.layers.emplace_back();
  layer.kind = scenario::WorkloadLayer::Kind::kUniform;
  layer.num_comms = n;
  layer.weight_lo = lo;
  layer.weight_hi = hi;
  return spec;
}

TEST(ScenarioPoint, RunIsDeterministic) {
  const Mesh mesh(8, 8);
  const PowerModel model = PowerModel::paper_discrete();
  const scenario::ScenarioSpec spec = uniform_spec(20, 100.0, 1500.0);
  const PointAggregate first = scenario::run_scenario_point(mesh, model, spec, 24, 42, 3);
  const PointAggregate second = scenario::run_scenario_point(mesh, model, spec, 24, 42, 3);
  EXPECT_EQ(first.instances, second.instances);
  for (std::size_t s = 0; s < kNumSeries; ++s) {
    EXPECT_EQ(first.failures[s], second.failures[s]);
    EXPECT_DOUBLE_EQ(first.normalized_inverse[s].mean(),
                     second.normalized_inverse[s].mean());
  }
}

TEST(ScenarioPoint, NormalizedInverseIsAtMostOneAndBestIsExactlyOneWhenValid) {
  const Mesh mesh(8, 8);
  const PowerModel model = PowerModel::paper_discrete();
  const PointAggregate aggregate = scenario::run_scenario_point(
      mesh, model, uniform_spec(30, 100.0, 2500.0), 16, 0x9e3779b9ULL, 0);
  for (std::size_t s = 0; s < kNumSeries; ++s) {
    EXPECT_LE(aggregate.normalized_inverse[s].max(), 1.0 + 1e-9);
    EXPECT_GE(aggregate.normalized_inverse[s].min(), 0.0);
  }
  // Whenever BEST succeeds its normalized value is 1; failures are 0, so
  // its mean equals its success rate.
  EXPECT_NEAR(aggregate.normalized_inverse[kBestSeries].mean(),
              1.0 - aggregate.failure_ratio(kBestSeries), 1e-12);
}

TEST(ScenarioPoint, FailureOrderingMatchesThePaperHierarchy) {
  // §6.1: "From the worst one to the best one, we have XY, SG, TB, IG, XYI
  // and finally PR." Check the coarse ends of that ordering (XY worst, the
  // portfolio BEST at least as good as anything).
  const Mesh mesh(8, 8);
  const PowerModel model = PowerModel::paper_discrete();
  const PointAggregate aggregate = scenario::run_scenario_point(
      mesh, model, uniform_spec(50, 100.0, 1500.0), 32, 0x9e3779b9ULL, 7);
  // BEST dominates everything by construction; XYI starts from XY and only
  // applies strictly improving moves, so it can only fix XY failures, not
  // create new ones.
  for (std::size_t s = 0; s < kNumSeries; ++s) {
    EXPECT_LE(aggregate.failure_ratio(kBestSeries), aggregate.failure_ratio(s) + 1e-12)
        << series_name(s);
  }
  EXPECT_LE(aggregate.failure_ratio(4), aggregate.failure_ratio(0) + 1e-12);
}

TEST(Panels, RegistryDefinitionsMatchThePaperParameters) {
  const scenario::ScenarioRegistry& registry = scenario::ScenarioRegistry::builtin();
  const auto layer = [&](const char* name, std::size_t point) {
    const scenario::Scenario& panel = registry.at(name);
    EXPECT_EQ(panel.points[point].spec.mesh_p, 8) << name;
    EXPECT_EQ(panel.points[point].spec.mesh_q, 8) << name;
    EXPECT_EQ(panel.points[point].spec.model, scenario::ScenarioSpec::ModelKind::kDiscrete)
        << name;
    EXPECT_EQ(panel.points[point].spec.layers.size(), 1u) << name;
    return panel.points[point].spec.layers.front();
  };
  const auto last = [&](const char* name) { return registry.at(name).points.size() - 1; };

  EXPECT_EQ(layer("fig7a_small", last("fig7a_small")).num_comms, 140);
  EXPECT_EQ(layer("fig7b_mixed", last("fig7b_mixed")).num_comms, 70);
  EXPECT_EQ(layer("fig7c_big", last("fig7c_big")).num_comms, 30);
  EXPECT_DOUBLE_EQ(layer("fig7a_small", 0).weight_lo, 100.0);
  EXPECT_DOUBLE_EQ(layer("fig7c_big", 0).weight_lo, 2500.0);

  EXPECT_EQ(layer("fig8a_few_10comms", 0).num_comms, 10);
  EXPECT_EQ(layer("fig8b_some_20comms", 0).num_comms, 20);
  EXPECT_EQ(layer("fig8c_numerous_40comms", 0).num_comms, 40);

  for (const char* name : {"fig9a_numerous_small", "fig9b_some_mixed", "fig9c_few_big"}) {
    const scenario::Scenario& panel = registry.at(name);
    EXPECT_DOUBLE_EQ(panel.points.front().x, 2.0) << name;
    EXPECT_DOUBLE_EQ(panel.points.back().x, 14.0) << name;
    EXPECT_EQ(layer(name, 0).kind, scenario::WorkloadLayer::Kind::kFixedLength) << name;
  }
  EXPECT_EQ(layer("fig9a_numerous_small", 0).num_comms, 100);
  EXPECT_EQ(layer("fig9b_some_mixed", 0).num_comms, 25);
  EXPECT_EQ(layer("fig9c_few_big", 0).num_comms, 12);
}

TEST(Panels, TablesHaveOneRowPerPointAndAllSeries) {
  scenario::Scenario tiny;
  tiny.name = "tiny";
  tiny.x_label = "n";
  for (const std::int32_t n : {5, 10}) {
    tiny.points.push_back({static_cast<double>(n), uniform_spec(n, 100.0, 1500.0)});
  }
  scenario::SuiteOptions options;
  options.instances = 4;
  const scenario::ScenarioResult result = scenario::SuiteRunner(options).run(tiny);
  const Table norm = scenario::normalized_inverse_table(result);
  const Table fail = scenario::failure_ratio_table(result);
  EXPECT_EQ(norm.rows(), 2u);
  EXPECT_EQ(norm.columns(), 1 + kNumSeries);
  EXPECT_EQ(fail.rows(), 2u);
}

}  // namespace
}  // namespace exp
}  // namespace pamr
