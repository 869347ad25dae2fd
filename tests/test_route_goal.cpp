// Tests for RouteGoal::kVerdict (router.hpp): the overload witnesses that
// let SG, TB, IG and PR stop once their routing is provably invalid.
//
//   * Soundness: a verdict call that is abandoned (no routing) belongs to
//     an instance whose full-routing call is invalid.
//   * Identity: a verdict call that is not abandoned returns the full
//     call's valid flag, power, breakdown and routing, bit for bit.
//   Both run over random 2×2–6×6 instances and all nine fig7–9 panels.
//   * Margin: a witness needs a load past PowerModel::proven_overload's
//     margin. An overload inside the margin is not a witness, and neither is
//     a partial sum that passes the bare limit only because it was added in
//     another order than the final load.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <string>
#include <vector>

#include "pamr/opt/lower_bound.hpp"
#include "pamr/routing/router.hpp"
#include "pamr/scenario/registry.hpp"
#include "pamr/scenario/work_list.hpp"
#include "pamr/util/rng.hpp"

namespace pamr {
namespace {

constexpr std::array<RouterKind, 4> kWitnessKinds = {RouterKind::kSG, RouterKind::kTB,
                                                     RouterKind::kIG, RouterKind::kPR};

/// Per-policy tallies of one sweep, indexed by RouterKind.
struct Tally {
  std::array<std::size_t, kNumBaseRouters> abandoned{};
  std::array<std::size_t, kNumBaseRouters> failed{};
  /// Abandoned on instances the certificate does not prove infeasible, so
  /// the witness fired during routing rather than on forced input loads.
  std::array<std::size_t, kNumBaseRouters> abandoned_uncertified{};
};

void expect_same_result(const RouteResult& full, const RouteResult& verdict,
                        const std::string& label) {
  EXPECT_EQ(full.valid, verdict.valid) << label;
  EXPECT_EQ(full.power, verdict.power) << label;  // bitwise: same routing, same sums
  EXPECT_EQ(full.breakdown.total, verdict.breakdown.total) << label;
  EXPECT_EQ(full.breakdown.static_part, verdict.breakdown.static_part) << label;
  EXPECT_EQ(full.breakdown.dynamic_part, verdict.breakdown.dynamic_part) << label;
  EXPECT_EQ(full.breakdown.active_links, verdict.breakdown.active_links) << label;
  ASSERT_TRUE(full.routing.has_value()) << label;
  ASSERT_TRUE(verdict.routing.has_value()) << label;
  ASSERT_EQ(full.routing->per_comm.size(), verdict.routing->per_comm.size()) << label;
  for (std::size_t i = 0; i < full.routing->per_comm.size(); ++i) {
    const auto& a = full.routing->per_comm[i].flows;
    const auto& b = verdict.routing->per_comm[i].flows;
    ASSERT_EQ(a.size(), b.size()) << label << " comm " << i;
    for (std::size_t f = 0; f < a.size(); ++f) {
      EXPECT_EQ(a[f].path, b[f].path) << label << " comm " << i;
      EXPECT_EQ(a[f].weight, b[f].weight) << label << " comm " << i;
    }
  }
}

/// Routes one instance under both goals with every base policy and checks
/// soundness and identity.
void check_instance(const Mesh& mesh, const CommSet& comms, const PowerModel& model,
                    const std::string& label, Tally& tally) {
  const bool certified = certify_infeasible(mesh, comms, model);
  for (const RouterKind kind : all_base_routers()) {
    const auto router = make_router(kind);
    const RouteResult full = router->route(mesh, comms, model);
    const RouteResult verdict = router->route(mesh, comms, model, RouteGoal::kVerdict);
    const std::string where = label + " " + to_cstring(kind);
    const auto h = static_cast<std::size_t>(kind);
    ASSERT_TRUE(full.routing.has_value()) << where << ": the default goal always routes";
    tally.failed[h] += full.valid ? 0 : 1;
    if (verdict.routing.has_value()) {
      expect_same_result(full, verdict, where);
      continue;
    }
    ++tally.abandoned[h];
    tally.abandoned_uncertified[h] += certified ? 0 : 1;
    EXPECT_FALSE(verdict.valid) << where;
    EXPECT_FALSE(full.valid) << where << ": abandoned, but the full routing is valid";
  }
}

/// Every policy without a witness never abandons, and every witness policy
/// abandons somewhere and never more often than it fails.
void expect_witnesses_fired(const Tally& tally) {
  for (const RouterKind kind : all_base_routers()) {
    const auto h = static_cast<std::size_t>(kind);
    EXPECT_LE(tally.abandoned[h], tally.failed[h]) << to_cstring(kind);
    const bool witness =
        std::find(kWitnessKinds.begin(), kWitnessKinds.end(), kind) != kWitnessKinds.end();
    if (witness) {
      EXPECT_GT(tally.abandoned_uncertified[h], 0u)
          << to_cstring(kind) << " never abandoned, so the sweep proves nothing";
    } else {
      EXPECT_EQ(tally.abandoned[h], 0u) << to_cstring(kind);
    }
  }
}

// -- Soundness and identity -----------------------------------------------------

/// Random communications on a p×q mesh, a quarter of them same-row or
/// same-column, with weights that overload some instances and not others.
CommSet random_comms(const Mesh& mesh, std::int32_t count, Rng& rng) {
  CommSet comms;
  const auto pick = [&rng](std::int32_t n) {
    return static_cast<std::int32_t>(rng.below(static_cast<std::uint64_t>(n)));
  };
  while (static_cast<std::int32_t>(comms.size()) < count) {
    const Coord src{pick(mesh.p()), pick(mesh.q())};
    Coord snk{pick(mesh.p()), pick(mesh.q())};
    const std::uint64_t shape = rng.below(8);
    if (shape == 0) snk.u = src.u;
    if (shape == 1) snk.v = src.v;
    if (snk == src) continue;
    comms.push_back({src, snk, rng.uniform(100.0, 2500.0)});
  }
  return comms;
}

TEST(RouteGoal, RandomInstancesAbandonSoundlyAndOtherwiseMatch) {
  const PowerModel model = PowerModel::paper_discrete();
  Tally tally;
  std::uint64_t round = 0;
  for (std::int32_t p = 2; p <= 6; ++p) {
    for (std::int32_t q = 2; q <= 6; ++q) {
      const Mesh mesh(p, q);
      for (int trial = 0; trial < 24; ++trial) {
        Rng rng(derive_seed(0x90A1, static_cast<std::uint64_t>(p * 8 + q), ++round));
        const std::int32_t count =
            2 + static_cast<std::int32_t>(rng.below(static_cast<std::uint64_t>(p * q)));
        const CommSet comms = random_comms(mesh, count, rng);
        check_instance(mesh, comms, model,
                       std::to_string(p) + "x" + std::to_string(q) + " trial " +
                           std::to_string(trial),
                       tally);
      }
    }
  }
  expect_witnesses_fired(tally);
}

TEST(RouteGoal, PaperPanelsAbandonSoundlyAndOtherwiseMatch) {
  constexpr std::size_t kInstances = 3;
  Tally tally;
  for (const char* name :
       {"fig7a_small", "fig7b_mixed", "fig7c_big", "fig8a_few_10comms", "fig8b_some_20comms",
        "fig8c_numerous_40comms", "fig9a_numerous_small", "fig9b_some_mixed",
        "fig9c_few_big"}) {
    const scenario::Scenario& panel = scenario::ScenarioRegistry::builtin().at(name);
    for (std::size_t point = 0; point < panel.points.size(); ++point) {
      const scenario::ScenarioSpec& spec = panel.points[point].spec;
      const Mesh mesh = spec.make_mesh();
      const PowerModel model = spec.make_model();
      for (std::size_t instance = 0; instance < kInstances; ++instance) {
        Rng rng(derive_seed(panel.default_seed, point, instance));
        const double t =
            (static_cast<double>(instance) + 0.5) / static_cast<double>(kInstances);
        const CommSet comms = spec.generate(mesh, model, t, rng);
        // The campaign never routes a certified instance.
        if (certify_infeasible(mesh, comms, model)) continue;
        check_instance(mesh, comms, model,
                       std::string(name) + " point " + std::to_string(point) +
                           " instance " + std::to_string(instance),
                       tally);
      }
    }
  }
  expect_witnesses_fired(tally);
}

// -- Margin ---------------------------------------------------------------------

/// A continuous model: a link is valid up to exactly limit(), with no
/// frequency table rejecting loads inside the tolerance.
PowerModel continuous_model() { return PowerModel(PowerParams{}); }

/// Routes under both goals and reports whether the verdict call abandoned;
/// a call that did not abandon must match the full call.
bool abandons(RouterKind kind, const Mesh& mesh, const CommSet& comms,
              const PowerModel& model) {
  const auto router = make_router(kind);
  const RouteResult full = router->route(mesh, comms, model);
  const RouteResult verdict = router->route(mesh, comms, model, RouteGoal::kVerdict);
  if (verdict.routing.has_value()) {
    expect_same_result(full, verdict, to_cstring(kind));
    return false;
  }
  EXPECT_FALSE(full.valid) << to_cstring(kind);
  return true;
}

TEST(RouteGoal, WitnessNeedsALoadPastTheMargin) {
  // 1×2 mesh: every communication rides the one east link, so its load is
  // forced (PR) and committed (SG, TB, IG) from the first commit on.
  const Mesh mesh(1, 2);
  const PowerModel model = continuous_model();
  const double cap = model.limit();
  const auto on_the_link = [&](double total) {
    return CommSet{{{0, 0}, {0, 1}, 0.5 * cap}, {{0, 0}, {0, 1}, total - 0.5 * cap}};
  };
  for (const RouterKind kind : kWitnessKinds) {
    EXPECT_FALSE(abandons(kind, mesh, on_the_link(cap), model)) << to_cstring(kind);
    // Overloaded, but inside the margin: the routing is invalid, yet the
    // load proves nothing, so the call routes to the end.
    EXPECT_FALSE(abandons(kind, mesh, on_the_link(cap * (1.0 + 0.5 * kCertificateMargin)),
                          model))
        << to_cstring(kind);
    EXPECT_TRUE(abandons(kind, mesh, on_the_link(cap * (1.0 + 4.0 * kCertificateMargin)),
                         model))
        << to_cstring(kind);
  }
}

TEST(RouteGoal, PathRemoverWitnessFiresOnACutThePruneLeftSingle) {
  // 2×2 mesh. A runs (0,0)→(1,1); B and C are straight, on the east links
  // (0,0)→(0,1) and (1,0)→(1,1). The top link is B's, where A is the only
  // removable member: removing it leaves A's first cut single, and the
  // prune leaves its second cut single on C's link, whose forced load
  // becomes a + c. Only the prune window sees that second cut.
  const Mesh mesh(2, 2);
  const PowerModel model = continuous_model();
  const double cap = model.limit();
  const double a = 2000.0;
  const auto instance = [&](double total) {
    return CommSet{
        {{0, 0}, {1, 1}, a}, {{0, 0}, {0, 1}, 3000.0}, {{1, 0}, {1, 1}, total - a}};
  };
  EXPECT_FALSE(abandons(RouterKind::kPR, mesh, instance(cap), model));
  EXPECT_FALSE(abandons(RouterKind::kPR, mesh,
                        instance(cap * (1.0 + 0.5 * kCertificateMargin)), model));
  EXPECT_TRUE(abandons(RouterKind::kPR, mesh,
                       instance(cap * (1.0 + 4.0 * kCertificateMargin)), model));
  // The instance is not certified: PR finds the witness while routing.
  EXPECT_FALSE(certify_infeasible(mesh, instance(cap * (1.0 + 4.0 * kCertificateMargin)),
                                  model));
}

TEST(RouteGoal, SummationOrderAloneIsNoWitness) {
  // Three communications on the 1×2 mesh's one link, indexed lightest first.
  // SG, TB and IG commit them heaviest first, while the final load adds
  // them in index order. Search weights whose heaviest-first sum passes the
  // bare limit while the index-order sum does not: the full routing is
  // valid, so only the margin keeps the witness from lying.
  const Mesh mesh(1, 2);
  const PowerModel model = continuous_model();
  const double cap = model.limit();
  Rng rng(0x5EED);
  std::size_t found = 0;
  for (int trial = 0; trial < 400 && found < 8; ++trial) {
    const double hi = rng.uniform(1450.0, 1700.0);
    const double lo = rng.uniform(1200.0, 1450.0);
    double lightest = cap - (hi + lo);
    for (int step = 0; step < 3; ++step) {
      const bool committed_over = (hi + lo) + lightest > cap;
      const bool final_within = (lightest + lo) + hi <= cap;
      if (committed_over && final_within) break;
      lightest = std::nextafter(lightest, 2.0 * cap);
    }
    if (!((hi + lo) + lightest > cap && (lightest + lo) + hi <= cap)) continue;
    ++found;
    const CommSet comms = {{{0, 0}, {0, 1}, lightest}, {{0, 0}, {0, 1}, lo},
                           {{0, 0}, {0, 1}, hi}};
    ASSERT_TRUE(make_router(RouterKind::kXY)->route(mesh, comms, model).valid);
    for (const RouterKind kind : kWitnessKinds) {
      EXPECT_FALSE(abandons(kind, mesh, comms, model)) << to_cstring(kind);
    }
  }
  EXPECT_GT(found, 0u) << "no order-sensitive weights found, so the test proves nothing";
}

}  // namespace
}  // namespace pamr
