// LoadIndex unit tests plus the PR differential suite. The index is checked
// against the seed's own model — a persistent order vector stably re-sorted
// by load every round — on its full Walk order and its top() after every
// call. The incremental removal loop must reproduce the reference
// implementation bit for bit — same paths, same power — across mesh shapes,
// seeds and comm counts, including exact-tie workloads (equal weights make
// whole cuts carry exactly equal loads, which is where the seed's
// stable-history tie-break is observable).
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "pamr/comm/generator.hpp"
#include "pamr/routing/load_index.hpp"
#include "pamr/routing/routers.hpp"

namespace pamr {
namespace {

// ------------------------------------------------------------ LoadIndex --

std::vector<LinkId> walk_order(const LoadIndex& index) {
  std::vector<LinkId> order;
  LoadIndex::Walk walk(index);
  for (LinkId link = walk.next(); link != kInvalidLink; link = walk.next()) {
    order.push_back(link);
  }
  return order;
}

/// The seed's order: every link in a persistent vector, stably re-sorted by
/// load each round. Retired links stay in the vector (the seed never drops
/// them) but are left out of the live order the index is compared against.
class StableSortOracle {
 public:
  explicit StableSortOracle(const LinkLoads& loads)
      : order_(loads.values().size()), retired_(loads.values().size(), 0) {
    std::iota(order_.begin(), order_.end(), LinkId{0});
    resort(loads);
  }

  void resort(const LinkLoads& loads) {
    std::stable_sort(order_.begin(), order_.end(), [&](LinkId a, LinkId b) {
      return loads.load(a) > loads.load(b);
    });
  }

  void retire(LinkId link) { retired_[static_cast<std::size_t>(link)] = 1; }
  [[nodiscard]] bool retired(LinkId link) const {
    return retired_[static_cast<std::size_t>(link)] != 0;
  }

  [[nodiscard]] std::vector<LinkId> live() const {
    std::vector<LinkId> out;
    for (const LinkId link : order_) {
      if (!retired(link)) out.push_back(link);
    }
    return out;
  }

 private:
  std::vector<LinkId> order_;
  std::vector<char> retired_;
};

void expect_matches(const LoadIndex& index, const StableSortOracle& oracle,
                    const LinkLoads& loads, const std::string& label) {
  const std::vector<LinkId> live = oracle.live();
  ASSERT_EQ(walk_order(index), live) << label;
  ASSERT_EQ(index.empty(), live.empty()) << label;
  if (!live.empty()) ASSERT_EQ(index.top(), live.front()) << label;
  index.check_invariants(loads);
}

TEST(LoadIndex, InitialOrderIsLoadDescendingWithLinkIdTies) {
  const Mesh mesh(2, 3);  // 14 links
  LinkLoads loads(mesh);
  loads.add(LinkId{3}, 10.0);
  loads.add(LinkId{7}, 10.0);
  loads.add(LinkId{1}, 25.0);
  const LoadIndex index(loads);

  const std::vector<LinkId> order = walk_order(index);
  ASSERT_EQ(order.size(), static_cast<std::size_t>(mesh.num_links()));
  EXPECT_EQ(index.top(), LinkId{1});
  EXPECT_EQ(order[0], LinkId{1});
  EXPECT_EQ(order[1], LinkId{3});  // tie with 7 → lower LinkId first
  EXPECT_EQ(order[2], LinkId{7});
  // Idle links follow in LinkId order.
  EXPECT_EQ(order[3], LinkId{0});
  EXPECT_EQ(order[4], LinkId{2});
}

/// Random update rounds against the oracle. Every round reports a set of
/// distinct links, mixing: fresh values; exact duplicates of other links'
/// loads; a small value grid (so whole tie blocks form); a pair that rises
/// and falls into the same tie block; links reported without moving; and,
/// with `retire` set, retired links (reported or not) and retire() calls
/// between reorders.
void run_oracle_rounds(const Mesh& mesh, std::uint64_t seed, int rounds, bool retire) {
  const auto num_links = static_cast<std::size_t>(mesh.num_links());
  LinkLoads loads(mesh);
  Rng rng(seed);
  for (std::size_t l = 0; l < num_links; ++l) {
    // Half the links on a coarse grid: ties from the very first round.
    const double value = (rng.below(2) == 0)
                             ? rng.uniform(0.0, 100.0)
                             : 10.0 * static_cast<double>(rng.below(6));
    loads.add(static_cast<LinkId>(l), value);
  }
  LoadIndex index(loads);
  StableSortOracle oracle(loads);
  LoadIndex::Walk walk(index);
  const auto label = [&](int round) {
    return std::to_string(mesh.p()) + "x" + std::to_string(mesh.q()) +
           " seed " + std::to_string(seed) + " round " + std::to_string(round);
  };
  expect_matches(index, oracle, loads, label(-1));

  const auto set_load = [&](LinkId link, double value) {
    loads.add(link, value - loads.load(link));
  };
  const auto random_link = [&] { return static_cast<LinkId>(rng.below(num_links)); };

  for (int round = 0; round < rounds; ++round) {
    std::vector<LinkId> changed;
    const auto report = [&](LinkId link) {
      if (std::find(changed.begin(), changed.end(), link) != changed.end()) return false;
      changed.push_back(link);
      return true;
    };

    // One rise and one fall into the same tie block: both take the load of
    // a third link, one from above and one from below.
    if (rng.below(3) == 0) {
      const LinkId anchor = random_link();
      const double target = loads.load(anchor);
      LinkId above = kInvalidLink;
      LinkId below = kInvalidLink;
      for (int tries = 0; tries < 64 && (above == kInvalidLink || below == kInvalidLink);
           ++tries) {
        const LinkId link = random_link();
        if (link == anchor || oracle.retired(link)) continue;
        if (loads.load(link) > target && above == kInvalidLink) above = link;
        if (loads.load(link) < target && below == kInvalidLink) below = link;
      }
      for (const LinkId link : {above, below}) {
        if (link != kInvalidLink && report(link)) set_load(link, target);
      }
    }

    const auto count = 1 + rng.below(num_links > 100 ? 18 : 6);
    for (std::uint64_t i = 0; i < count; ++i) {
      const LinkId link = random_link();
      if (!report(link)) continue;
      switch (rng.below(4)) {
        case 0: set_load(link, rng.uniform(0.0, 100.0)); break;
        case 1: set_load(link, loads.load(random_link())); break;
        case 2: set_load(link, 10.0 * static_cast<double>(rng.below(6))); break;
        default: break;  // reported, but its load does not move
      }
    }

    index.reorder(changed, loads);
    oracle.resort(loads);

    if (retire && rng.below(4) == 0 && !index.empty()) {
      // Retire either the top (as PR does) or any live link.
      LinkId victim = index.top();
      if (rng.below(2) == 0) {
        const std::vector<LinkId> live = oracle.live();
        victim = live[rng.below(live.size())];
      }
      index.retire(victim);
      oracle.retire(victim);
    }

    // The long-lived walk was abandoned midway last round, before this
    // round's reorder and retire: restarted, it yields the full new order.
    walk.restart();
    const std::vector<LinkId> live = oracle.live();
    std::vector<LinkId> walked;
    for (LinkId link = walk.next(); link != kInvalidLink; link = walk.next()) {
      walked.push_back(link);
    }
    ASSERT_EQ(walked, live) << label(round);
    expect_matches(index, oracle, loads, label(round));

    // Abandon it midway again: restarted on an unchanged index, it repeats
    // the same prefix.
    walk.restart();
    const std::size_t partial = live.empty() ? 0 : rng.below(live.size());
    for (std::size_t k = 0; k < partial; ++k) {
      ASSERT_EQ(walk.next(), live[k]) << label(round) << " step " << k;
    }
  }
}

TEST(LoadIndex, ReorderMatchesRepeatedStableSort) {
  for (const std::uint64_t seed : {0x10ADull, 7ull, 0xF00Dull}) {
    run_oracle_rounds(Mesh(4, 4), seed, 300, /*retire=*/false);
    run_oracle_rounds(Mesh(16, 16), seed, 120, /*retire=*/false);  // 960 links
  }
}

TEST(LoadIndex, ReorderMatchesRepeatedStableSortWithRetirement) {
  for (const std::uint64_t seed : {0x2E71ull, 11ull}) {
    run_oracle_rounds(Mesh(4, 4), seed, 300, /*retire=*/true);
    run_oracle_rounds(Mesh(16, 16), seed, 120, /*retire=*/true);
  }
}

TEST(LoadIndex, RetireErasesTheLinkImmediately) {
  const Mesh mesh(2, 2);
  LinkLoads loads(mesh);
  for (LinkId l = 0; l < mesh.num_links(); ++l) loads.add(l, 1.0 + l);
  LoadIndex index(loads);
  const auto num_links = static_cast<std::size_t>(mesh.num_links());

  index.retire(LinkId{2});
  // Gone from the order at once, without waiting for a reorder…
  std::vector<LinkId> order = walk_order(index);
  EXPECT_EQ(order.size(), num_links - 1);
  EXPECT_EQ(std::count(order.begin(), order.end(), LinkId{2}), 0);
  EXPECT_NO_THROW(index.check_invariants(loads));

  // …and for good, even if its load later changes and is reported.
  loads.add(LinkId{2}, 100.0);
  index.reorder({LinkId{2}}, loads);
  order = walk_order(index);
  EXPECT_EQ(order.size(), num_links - 1);
  EXPECT_EQ(std::count(order.begin(), order.end(), LinkId{2}), 0);
  EXPECT_NE(index.top(), LinkId{2});
  EXPECT_NO_THROW(index.check_invariants(loads));

  // Retiring the top repeatedly drains the index in order.
  std::vector<LinkId> drained;
  while (!index.empty()) {
    drained.push_back(index.top());
    index.retire(index.top());
  }
  EXPECT_EQ(drained, order);
}

/// A member list as a vector, for comparisons.
std::vector<std::uint32_t> member_list(LoadIndex& index, LinkId link) {
  const std::span<std::uint32_t> members = index.members(link);
  return {members.begin(), members.end()};
}

TEST(LoadIndex, MemberListsKeepInsertionOrder) {
  const Mesh mesh(2, 2);
  LinkLoads loads(mesh);
  LoadIndex index(loads);
  // Pass 1 counts the memberships, pass 2 adds them in order.
  for (int k = 0; k < 3; ++k) index.count_member(LinkId{1});
  index.count_member(LinkId{3});
  index.add_member(LinkId{1}, 4);
  index.add_member(LinkId{3}, 7);
  index.add_member(LinkId{1}, 0);
  index.add_member(LinkId{1}, 2);
  EXPECT_EQ(member_list(index, LinkId{1}), (std::vector<std::uint32_t>{4, 0, 2}));
  EXPECT_EQ(member_list(index, LinkId{3}), (std::vector<std::uint32_t>{7}));
  EXPECT_TRUE(index.members(LinkId{0}).empty());
  // Compaction keeps a prefix; a reset empties every list.
  index.truncate_members(LinkId{1}, 1);
  EXPECT_EQ(member_list(index, LinkId{1}), (std::vector<std::uint32_t>{4}));
  index.reset(loads);
  EXPECT_TRUE(index.members(LinkId{1}).empty());
  EXPECT_TRUE(index.members(LinkId{3}).empty());
}

TEST(TouchLog, TakeChangedKeepsOnlyMovedLinksAndClears) {
  LinkLoads loads(4);
  loads.add(1, 5.0);
  TouchLog log(4);
  log.record(1, loads.load(1));
  loads.add(1, 2.0);
  log.record(1, loads.load(1));  // second touch: snapshot stays 5.0
  log.record(2, loads.load(2));  // touched, never moved
  log.record(3, loads.load(3));
  loads.add(3, 1.0);

  std::vector<LinkId> changed{0};  // overwritten, not appended to
  log.take_changed(loads, changed);
  EXPECT_EQ(changed, (std::vector<LinkId>{1, 3}));
  EXPECT_TRUE(log.links.empty());
  EXPECT_TRUE(log.before.empty());
  EXPECT_EQ(std::count(log.seen.begin(), log.seen.end(), 1), 0);
}

// ---------------------------------------------------------- differential --

void expect_identical(const Mesh& mesh, const CommSet& comms,
                      const std::string& label) {
  const PowerModel model = PowerModel::paper_discrete();
  const RouteResult ref =
      PathRemoverRouter(PathRemoverRouter::Mode::kReference).route(mesh, comms, model);
  const RouteResult inc = PathRemoverRouter().route(mesh, comms, model);

  ASSERT_TRUE(ref.routing.has_value()) << label;
  ASSERT_TRUE(inc.routing.has_value()) << label;
  EXPECT_EQ(ref.valid, inc.valid) << label;
  EXPECT_EQ(ref.power, inc.power) << label;  // bitwise: same routing, same sum
  ASSERT_EQ(ref.routing->per_comm.size(), inc.routing->per_comm.size()) << label;
  for (std::size_t i = 0; i < comms.size(); ++i) {
    const auto& ref_flows = ref.routing->per_comm[i].flows;
    const auto& inc_flows = inc.routing->per_comm[i].flows;
    ASSERT_EQ(ref_flows.size(), 1u) << label;
    ASSERT_EQ(inc_flows.size(), 1u) << label;
    EXPECT_EQ(ref_flows[0].path.links, inc_flows[0].path.links)
        << label << " comm " << i;
  }
}

TEST(PathRemoverDifferential, DefaultModeIsIncremental) {
  EXPECT_EQ(PathRemoverRouter().mode(), PathRemoverRouter::Mode::kIncremental);
  EXPECT_EQ(PathRemoverRouter(PathRemoverRouter::Mode::kReference).mode(),
            PathRemoverRouter::Mode::kReference);
}

using MeshShape = std::pair<int, int>;

class PathRemoverDifferentialSweep
    : public ::testing::TestWithParam<MeshShape> {};

TEST_P(PathRemoverDifferentialSweep, UniformWorkloadsAreBitIdentical) {
  const auto [p, q] = GetParam();
  const Mesh mesh(p, q);
  for (const std::uint64_t seed : {1ull, 2ull, 0xBEEFull}) {
    for (const std::int32_t nc : {1, 8, 40, 120}) {
      Rng rng(seed);
      UniformWorkload spec;
      spec.num_comms = nc;
      const CommSet comms = generate_uniform(mesh, spec, rng);
      expect_identical(mesh, comms,
                       std::to_string(p) + "x" + std::to_string(q) + " seed=" +
                           std::to_string(seed) + " nc=" + std::to_string(nc));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, PathRemoverDifferentialSweep,
                         ::testing::Values(MeshShape(4, 4), MeshShape(8, 8),
                                           MeshShape(16, 16), MeshShape(3, 9),
                                           MeshShape(1, 12), MeshShape(9, 2)),
                         [](const auto& param_info) {
                           return std::to_string(param_info.param.first) + "x" +
                                  std::to_string(param_info.param.second);
                         });

TEST(PathRemoverDifferential, EqualWeightTiesAreBitIdentical) {
  // All-equal weights put exactly equal loads on every link of a cut; the
  // removal order then hinges entirely on the stable-history tie-break.
  for (const auto& [p, q] : {MeshShape(6, 6), MeshShape(8, 8), MeshShape(4, 9)}) {
    const Mesh mesh(p, q);
    Rng rng(derive_seed(0x71E5, static_cast<std::uint64_t>(p),
                        static_cast<std::uint64_t>(q)));
    CommSet comms;
    for (int i = 0; i < 150; ++i) {
      const auto src = static_cast<std::int32_t>(
          rng.below(static_cast<std::uint64_t>(mesh.num_cores())));
      auto snk = src;
      while (snk == src) {
        snk = static_cast<std::int32_t>(
            rng.below(static_cast<std::uint64_t>(mesh.num_cores())));
      }
      comms.push_back(Communication{mesh.core_coord(src), mesh.core_coord(snk), 10.0});
    }
    expect_identical(mesh, comms,
                     "ties " + std::to_string(p) + "x" + std::to_string(q));
  }
}

TEST(PathRemoverDifferential, HeavyOverloadIsBitIdentical) {
  // Far past capacity: the constructed routing is invalid under the model,
  // but both implementations must still construct the same one.
  const Mesh mesh(5, 5);
  Rng rng(0x0E44);
  UniformWorkload spec;
  spec.num_comms = 60;
  spec.weight_lo = 2000.0;
  spec.weight_hi = 3400.0;
  const CommSet comms = generate_uniform(mesh, spec, rng);
  expect_identical(mesh, comms, "overload 5x5");
}

TEST(PathRemoverDifferential, SustainedOverloadAtScaleIsBitIdentical) {
  // The 32×32/nc=2000 benchmark shape scaled for CI: many overlapping
  // rectangles per link mean long removal runs with repeated windowed
  // prunes per communication — the regime where the incremental prune's
  // persistent marks accumulate the most history before being re-read.
  const Mesh mesh(10, 10);
  Rng rng(0x5CA1E);
  UniformWorkload spec;
  spec.num_comms = 240;
  spec.weight_lo = 800.0;
  spec.weight_hi = 3400.0;
  const CommSet comms = generate_uniform(mesh, spec, rng);
  expect_identical(mesh, comms, "sustained overload 10x10");
}

}  // namespace
}  // namespace pamr
