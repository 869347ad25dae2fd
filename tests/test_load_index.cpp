// LoadIndex and LoadOrder unit tests plus the PR differential suite. Both
// orders are checked against the seed's own model — a persistent order
// vector stably re-sorted by load every round — after every call: LoadOrder
// by its full array, LoadIndex by top() and by draining a copy through
// top()/retire(). The library's removal loop must reproduce the seed loop
// (tests/seed_routers.hpp) bit for bit — same paths, same power, and the same virtual
// loads after every removal — across mesh shapes, seeds and comm counts,
// including exact-tie workloads (equal weights make whole cuts carry
// exactly equal loads, which is where the seed's stable-history tie-break
// is observable).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "pamr/comm/generator.hpp"
#include "pamr/mesh/rectangle.hpp"
#include "pamr/routing/load_index.hpp"
#include "pamr/routing/routers.hpp"
#include "pamr/routing/workspace.hpp"
#include "seed_routers.hpp"

namespace pamr {
namespace {

// ------------------------------------------------- LoadIndex, LoadOrder --

/// The live order of `index`, read by draining a copy through top() and
/// retire().
std::vector<LinkId> drained_order(const LoadIndex& index) {
  LoadIndex copy = index;
  std::vector<LinkId> order;
  while (!copy.empty()) {
    order.push_back(copy.top());
    copy.retire(copy.top());
  }
  return order;
}

/// The full array of `order`.
std::vector<LinkId> array_of(const LoadOrder& order) {
  std::vector<LinkId> links;
  for (std::size_t at = 0; at < order.size(); ++at) links.push_back(order.at(at));
  return links;
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

  /// Every link, retired ones included.
  [[nodiscard]] const std::vector<LinkId>& all() const { return order_; }

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

/// LoadOrder never retires, so it follows the oracle's full order; LoadIndex
/// its live order.
void expect_matches(LoadIndex& index, const LoadOrder& order,
                    const StableSortOracle& oracle, const LinkLoads& loads,
                    const std::string& label) {
  ASSERT_EQ(array_of(order), oracle.all()) << label;
  order.check_invariants(loads);
  const std::vector<LinkId> live = oracle.live();
  ASSERT_EQ(index.empty(), live.empty()) << label;
  if (!live.empty()) {
    ASSERT_EQ(index.top(), live.front()) << label;
  }
  ASSERT_EQ(drained_order(index), live) << label;
  index.check_invariants(loads);
}

TEST(LoadIndex, InitialOrderIsLoadDescendingWithLinkIdTies) {
  const Mesh mesh(2, 3);  // 14 links
  LinkLoads loads(mesh);
  loads.add(LinkId{3}, 10.0);
  loads.add(LinkId{7}, 10.0);
  loads.add(LinkId{1}, 25.0);
  LoadIndex index(loads);
  LoadOrder load_order;
  load_order.reset(loads);

  for (const std::vector<LinkId>& order : {drained_order(index), array_of(load_order)}) {
    ASSERT_EQ(order.size(), static_cast<std::size_t>(mesh.num_links()));
    EXPECT_EQ(order[0], LinkId{1});
    EXPECT_EQ(order[1], LinkId{3});  // tie with 7 → lower LinkId first
    EXPECT_EQ(order[2], LinkId{7});
    // Idle links follow in LinkId order.
    EXPECT_EQ(order[3], LinkId{0});
    EXPECT_EQ(order[4], LinkId{2});
  }
  EXPECT_EQ(index.top(), LinkId{1});
}

/// An index and an order that one run of oracle rounds resets.
struct IndexAndOrder {
  LoadIndex index;
  LoadOrder order;
};

/// Random update rounds against the oracle. Every round reports a set of
/// distinct links, mixing: fresh values; exact duplicates of other links'
/// loads; a small value grid (so whole tie blocks form); a pair that rises
/// and falls into the same tie block; a block of links that all fall onto
/// one load and a block that all rise onto another (tied classes of the
/// stamp rule); links reported without moving; and, with `retire` set,
/// retired links (reported or not) and retire() calls between reorders.
/// The LoadOrder takes the same reports (it ignores no link: XYI retires
/// none).
///
/// With `idle_share` > 0 at least that share of the links starts idle
/// (load 0), as in a small route call, and the rounds lift idle links off 0.
/// `reused`, if given, is reset instead of a fresh pair: e.g. one that
/// served another mesh.
void run_oracle_rounds(const Mesh& mesh, std::uint64_t seed, int rounds, bool retire,
                       double idle_share = 0.0, IndexAndOrder* reused = nullptr) {
  const auto num_links = static_cast<std::size_t>(mesh.num_links());
  LinkLoads loads(mesh);
  Rng rng(seed);
  const auto max_loaded = static_cast<std::size_t>(
      static_cast<double>(num_links) * (1.0 - idle_share));
  std::size_t loaded = 0;
  for (std::size_t l = 0; l < num_links; ++l) {
    if (idle_share > 0.0 && (loaded == max_loaded || rng.uniform(0.0, 1.0) < idle_share)) {
      continue;
    }
    // Half the links on a coarse grid: ties from the very first round.
    const double value = (rng.below(2) == 0)
                             ? rng.uniform(0.0, 100.0)
                             : 10.0 * static_cast<double>(rng.below(6));
    loads.add(static_cast<LinkId>(l), value);
    ++loaded;
  }
  IndexAndOrder fresh;
  LoadIndex& index = reused != nullptr ? reused->index : fresh.index;
  LoadOrder& order = reused != nullptr ? reused->order : fresh.order;
  index.reset(loads);
  order.reset(loads);
  StableSortOracle oracle(loads);
  const auto label = [&](int round) {
    return std::to_string(mesh.p()) + "x" + std::to_string(mesh.q()) +
           " seed " + std::to_string(seed) + " round " + std::to_string(round);
  };
  expect_matches(index, order, oracle, loads, label(-1));

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

    // Tied classes: three to five links fall onto one load and as many
    // rise onto another, in the same round. A grid target also ties them
    // with links that do not move; a fresh one ties them only with each
    // other.
    if (rng.below(3) == 0) {
      const auto block = [&](double target, bool fall) {
        const auto size = 3 + rng.below(3);
        std::uint64_t added = 0;
        for (int tries = 0; tries < 256 && added < size; ++tries) {
          const LinkId link = random_link();
          if (oracle.retired(link)) continue;
          const double load = loads.load(link);
          if ((fall ? load <= target : load >= target) || !report(link)) continue;
          set_load(link, target);
          ++added;
        }
      };
      const bool grid = rng.below(2) == 0;
      block(grid ? 10.0 * static_cast<double>(rng.below(3)) : rng.uniform(0.0, 30.0),
            /*fall=*/true);
      block(grid ? 10.0 * static_cast<double>(3 + rng.below(3)) : rng.uniform(30.0, 60.0),
            /*fall=*/false);
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
    order.reorder(changed, loads);
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

    expect_matches(index, order, oracle, loads, label(round));
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

TEST(LoadOrder, SingleMovesAcrossTheWholeArrayMatchStableSort) {
  // One link per round jumps to the top, to the bottom, or into a tie
  // block far from its old slot: the affected range must reach from its
  // old position to its new one in either direction.
  const Mesh mesh(3, 3);  // 24 links
  LinkLoads loads(mesh);
  for (LinkId l = 0; l < mesh.num_links(); ++l) {
    loads.add(l, 10.0 * static_cast<double>(l % 5));
  }
  LoadOrder order;
  order.reset(loads);
  StableSortOracle oracle(loads);
  const std::vector<double> targets{1000.0, 0.0, 20.0, 40.0, 0.0, 30.0, 1000.0, 10.0};
  for (std::size_t round = 0; round < 3 * targets.size(); ++round) {
    const auto link = static_cast<LinkId>((7 * round + 3) % 24);
    loads.add(link, targets[round % targets.size()] - loads.load(link));
    order.reorder({link}, loads);
    oracle.resort(loads);
    ASSERT_EQ(array_of(order), oracle.all()) << "round " << round;
    order.check_invariants(loads);
  }
}

TEST(LoadIndex, ResetWithMostlyIdleLinksMatchesStableSort) {
  // Both resets order only the loaded links and put the idle ones behind
  // them. One index and one order serve every shape, so each reset also
  // reuses buffers a larger or smaller mesh (and retirements) left behind.
  IndexAndOrder reused;
  for (const std::uint64_t seed : {3ull, 0x1D1Eull}) {
    for (const auto& [p, q] : {std::pair{8, 8}, std::pair{3, 5}, std::pair{16, 16},
                               std::pair{2, 2}}) {
      run_oracle_rounds(Mesh(p, q), seed, 40, /*retire=*/seed == 3, /*idle_share=*/0.75,
                        &reused);
    }
  }
}

TEST(LoadOrder, CheckInvariantsCatchesUnreportedLoadChange) {
  LinkLoads loads(4);
  loads.add(0, 4.0);
  loads.add(1, 3.0);
  LoadOrder order;
  order.reset(loads);
  EXPECT_NO_THROW(order.check_invariants(loads));
  loads.add(3, 10.0);  // never reported to reorder()
  try {
    order.check_invariants(loads);
    FAIL() << "stale order passed its invariant sweep";
  } catch (const InvariantError& e) {
    EXPECT_EQ(e.category(), "load-order");
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
  std::vector<LinkId> order = drained_order(index);
  EXPECT_EQ(order.size(), num_links - 1);
  EXPECT_EQ(std::count(order.begin(), order.end(), LinkId{2}), 0);
  EXPECT_NO_THROW(index.check_invariants(loads));

  // …and for good, even if its load later changes and is reported.
  loads.add(LinkId{2}, 100.0);
  index.reorder({LinkId{2}}, loads);
  order = drained_order(index);
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

TEST(LoadIndex, FallenKeysAreRepairedOnlyAtTheTop) {
  // Rounds dominated by falls, as PR's removals are: a fallen link keeps
  // its old heap entry until it reaches the top, where top() re-keys it.
  // Every round is checked against the oracle; draining a copy re-keys
  // every entry still stale, so the copy's repairs count them.
  std::uint64_t falls = 0;
  std::uint64_t repaired = 0;
  std::uint64_t stale_at_end = 0;
  for (const std::uint64_t seed : {0xFA11ull, 5ull, 0x7E57ull}) {
    const Mesh mesh(6, 6);  // 120 links
    const auto num_links = static_cast<std::size_t>(mesh.num_links());
    LinkLoads loads(mesh);
    Rng rng(seed);
    for (std::size_t l = 0; l < num_links; ++l) {
      loads.add(static_cast<LinkId>(l), 10.0 * static_cast<double>(1 + rng.below(40)));
    }
    LoadIndex index(loads);
    StableSortOracle oracle(loads);
    for (int round = 0; round < 300; ++round) {
      std::vector<LinkId> changed;
      const auto count = 1 + rng.below(8);
      for (std::uint64_t i = 0; i < count; ++i) {
        // Half the rounds move the top first, as a PR removal does.
        const LinkId link = i == 0 && rng.below(2) == 0 && !index.empty()
                                ? index.top()
                                : static_cast<LinkId>(rng.below(num_links));
        if (std::find(changed.begin(), changed.end(), link) != changed.end()) continue;
        changed.push_back(link);
        const double load = loads.load(link);
        // Three falls (some onto a tie grid) to one rise; a rise may
        // stay behind its stale entry or pass it.
        const double target = rng.below(4) != 0
                                  ? (rng.below(2) == 0 ? load * rng.uniform(0.0, 1.0)
                                                       : 10.0 * std::floor(load / 20.0))
                                  : load + 10.0 * static_cast<double>(1 + rng.below(30));
        if (target < load && !oracle.retired(link)) ++falls;
        loads.add(link, target - load);
      }
      index.reorder(changed, loads);
      oracle.resort(loads);
      if (rng.below(8) == 0 && !index.empty()) {
        // Retire the top (as PR does) or a live link deeper in the heap.
        LinkId victim = index.top();
        if (rng.below(2) == 0) {
          const std::vector<LinkId> live = oracle.live();
          victim = live[rng.below(live.size())];
        }
        index.retire(victim);
        oracle.retire(victim);
      }
      const std::vector<LinkId> live = oracle.live();
      if (live.empty()) break;
      ASSERT_EQ(index.top(), live.front()) << "seed " << seed << " round " << round;
      index.check_invariants(loads);
    }
    ASSERT_EQ(drained_order(index), oracle.live()) << "seed " << seed;
    LoadIndex copy = index;
    const std::uint64_t before = copy.repairs();
    while (!copy.empty()) copy.retire(copy.top());
    repaired += index.repairs();
    stale_at_end += copy.repairs() - before;
  }
  // Both sides of the laziness happen: stale tops are repaired, and falls
  // that never reached the top were never sifted.
  EXPECT_GE(repaired, 200u);
  EXPECT_GE(stale_at_end, 50u);
  EXPECT_LT(repaired, falls);
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
  const RouteResult ref = seed::PathRemoverRouter().route(mesh, comms, model);
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
  // A few equal-weight pairs, each listed twice. Every link of a cut
  // carries the same share, and with few communications the loads rarely
  // sum to distinct values, so the hot link is one of an exact tie from
  // the first removal on: the removal order hinges on the stable-history
  // tie-break, starting from the initial LinkId order, and on the
  // heaviest-first order between a pair's two copies. (With many more
  // communications the sums rarely tie at the top.)
  for (const auto& [p, q] : {MeshShape(6, 6), MeshShape(8, 8), MeshShape(4, 9)}) {
    const Mesh mesh(p, q);
    for (const int pairs : {8, 16, 24}) {
      Rng rng(derive_seed(0x71E5, static_cast<std::uint64_t>(p),
                          static_cast<std::uint64_t>(q)));
      CommSet comms;
      for (int i = 0; i < pairs; ++i) {
        const auto src = static_cast<std::int32_t>(
            rng.below(static_cast<std::uint64_t>(mesh.num_cores())));
        auto snk = src;
        while (snk == src) {
          snk = static_cast<std::int32_t>(
              rng.below(static_cast<std::uint64_t>(mesh.num_cores())));
        }
        for (int copy = 0; copy < 2; ++copy) {
          comms.push_back(Communication{mesh.core_coord(src), mesh.core_coord(snk), 10.0});
        }
      }
      expect_identical(mesh, comms,
                       "ties " + std::to_string(p) + "x" + std::to_string(q) +
                           " pairs=" + std::to_string(pairs));
    }
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

// -------------------------------------------------- one-pass re-spread --

/// Bitwise equality of two load vectors (a -0.0 vs 0.0 or an ulp counts).
bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(), [](double x, double y) {
           return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
         });
}

/// What a re-spread trace exercised.
struct RespreadCoverage {
  /// Removals whose prune shrank cuts on both sides of the removed link's.
  int both_sides = 0;
  /// Links whose stored load moved, by an ulp-sized round trip, in a cut
  /// outside the span of the cuts the removal shrank: (x − s) + s ≠ x.
  int round_trips = 0;
};

/// Routes `comms` with the seed oracle and the library router under a
/// PrTrace and demands the same removal sequence with, after every removal,
/// the same cut sizes and bit-identical virtual loads: the library's
/// one-pass re-spread against the seed's two full passes. Returns what the trace covered.
RespreadCoverage expect_identical_respread(const Mesh& mesh, const CommSet& comms,
                                           const std::string& label) {
  const PowerModel model = PowerModel::paper_discrete();
  PrTrace ref;
  PrTrace inc;
  seed::PathRemoverRouter reference;
  PathRemoverRouter incremental;
  reference.set_trace(&ref);
  incremental.set_trace(&inc);
  static_cast<void>(reference.route(mesh, comms, model));
  static_cast<void>(incremental.route(mesh, comms, model));

  RespreadCoverage coverage;
  EXPECT_EQ(ref.removals.size(), inc.removals.size()) << label;
  std::vector<std::vector<std::uint32_t>> sizes;  // per comm, before the removal
  for (const Communication& comm : comms) {
    const CommRect rect(mesh, comm.src, comm.snk);
    std::vector<std::uint32_t>& cut_sizes = sizes.emplace_back();
    for (std::int32_t t = 0; t < rect.length(); ++t) {
      cut_sizes.push_back(static_cast<std::uint32_t>(rect.cut_size(t)));
    }
  }
  for (std::size_t r = 0; r < std::min(ref.removals.size(), inc.removals.size()); ++r) {
    const PrTrace::Removal& a = ref.removals[r];
    const PrTrace::Removal& b = inc.removals[r];
    EXPECT_EQ(a.comm, b.comm) << label << " removal " << r;
    EXPECT_EQ(a.depth, b.depth) << label << " removal " << r;
    EXPECT_EQ(a.cut_sizes, b.cut_sizes) << label << " removal " << r;
    EXPECT_TRUE(same_bits(a.loads, b.loads)) << label << " removal " << r;
    if (testing::Test::HasFailure()) return coverage;

    // The span of the cuts this removal shrank (the removed link's included).
    std::vector<std::uint32_t>& before = sizes[a.comm];
    std::int32_t lo = a.depth;
    std::int32_t hi = a.depth;
    for (std::size_t t = 0; t < before.size(); ++t) {
      if (before[t] == a.cut_sizes[t]) continue;
      lo = std::min(lo, static_cast<std::int32_t>(t));
      hi = std::max(hi, static_cast<std::int32_t>(t));
    }
    if (lo < a.depth && hi > a.depth) ++coverage.both_sides;
    before = a.cut_sizes;
    if (r == 0) continue;
    const CommRect rect(mesh, comms[a.comm].src, comms[a.comm].snk);
    const std::vector<double>& previous = ref.removals[r - 1].loads;
    for (std::size_t l = 0; l < previous.size(); ++l) {
      if (std::bit_cast<std::uint64_t>(previous[l]) ==
          std::bit_cast<std::uint64_t>(a.loads[l])) {
        continue;
      }
      // Only this communication's links move in its removal.
      const std::int32_t t = rect.depth(mesh.link(static_cast<LinkId>(l)).from);
      EXPECT_GE(t, 0) << label << " removal " << r << " moved a foreign link";
      if (t < lo || t > hi) ++coverage.round_trips;
    }
  }
  return coverage;
}

TEST(PathRemoverRespread, OnePassMatchesTwoPassesAfterEveryRemoval) {
  // Uniform weights make (x − s) + s ≠ x common; equal weights make whole
  // tie blocks, where such an ulp decides the next removal.
  RespreadCoverage total;
  const Mesh mesh(8, 8);
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    Rng rng(seed);
    UniformWorkload spec;
    spec.num_comms = 40;
    const RespreadCoverage covered = expect_identical_respread(
        mesh, generate_uniform(mesh, spec, rng), "uniform seed " + std::to_string(seed));
    total.both_sides += covered.both_sides;
    total.round_trips += covered.round_trips;
  }
  Rng rng(0xE0A1);
  CommSet equal;
  for (int i = 0; i < 60; ++i) {
    const auto src = static_cast<std::int32_t>(rng.below(64));
    auto snk = src;
    while (snk == src) snk = static_cast<std::int32_t>(rng.below(64));
    equal.push_back(Communication{mesh.core_coord(src), mesh.core_coord(snk), 10.0});
  }
  const RespreadCoverage covered = expect_identical_respread(mesh, equal, "equal weights");
  total.both_sides += covered.both_sides;
  total.round_trips += covered.round_trips;
  // The workloads must exercise both cases the one pass has to get right.
  EXPECT_GT(total.both_sides, 0);
  EXPECT_GT(total.round_trips, 0);
}

// ------------------------------------------------- live-degree cascade --

/// The live links of the one communication built in `workspace.pr`, cut by
/// cut.
std::vector<std::vector<LinkId>> live_cuts(const RouteWorkspace& workspace,
                                           std::int32_t length) {
  const RouteWorkspace::PathRemover& pr = workspace.pr;
  std::vector<std::vector<LinkId>> cuts;
  for (std::size_t t = 0; t < static_cast<std::size_t>(length); ++t) {
    const auto begin = pr.cut_links.begin() + pr.cut_begin[t];
    cuts.emplace_back(begin, begin + pr.cut_size[t]);
  }
  return cuts;
}

/// The links of `cuts` that a fresh full sweep keeps: reached from src by
/// a forward sweep and reaching snk in a backward one.
std::vector<std::vector<LinkId>> swept(const Mesh& mesh, const CommRect& rect,
                                       const std::vector<std::vector<LinkId>>& cuts) {
  std::vector<char> forward(static_cast<std::size_t>(mesh.num_cores()), 0);
  std::vector<char> backward(forward.size(), 0);
  const auto cell = [&](Coord c) { return static_cast<std::size_t>(mesh.core_index(c)); };
  forward[cell(rect.src())] = 1;
  for (const std::vector<LinkId>& cut : cuts) {
    for (const LinkId link : cut) {
      if (forward[cell(mesh.link(link).from)] != 0) forward[cell(mesh.link(link).to)] = 1;
    }
  }
  backward[cell(rect.snk())] = 1;
  for (auto cut = cuts.rbegin(); cut != cuts.rend(); ++cut) {
    for (const LinkId link : *cut) {
      if (backward[cell(mesh.link(link).to)] != 0) backward[cell(mesh.link(link).from)] = 1;
    }
  }
  std::vector<std::vector<LinkId>> kept(cuts.size());
  for (std::size_t t = 0; t < cuts.size(); ++t) {
    for (const LinkId link : cuts[t]) {
      if (forward[cell(mesh.link(link).from)] != 0 && backward[cell(mesh.link(link).to)] != 0) {
        kept[t].push_back(link);
      }
    }
  }
  return kept;
}

TEST(PathRemoverPrune, CascadeKeepsExactlyTheSweepsLinks) {
  // Random removals, each of a live link whose cut keeps >= 2 links, on
  // rectangles of 1×n, n×1, 3×7 and 6×6 steps in all four quadrants, at
  // the default check level. After every removal the live cuts must equal
  // a fresh full sweep of the previous cuts without the removed link: no
  // link kept that the sweep erases, none erased that it keeps. The
  // allowed flags must agree with the cuts.
  std::vector<std::pair<std::int32_t, std::int32_t>> shapes{{3, 7}, {6, 6}};
  for (std::int32_t n = 1; n <= 8; ++n) {
    shapes.emplace_back(1, n);
    shapes.emplace_back(n, 1);
  }
  int removals = 0;
  int toward_src = 0;   // removals whose cascade killed links before the cut
  int toward_snk = 0;   // ... and after it
  Rng rng(0xCA5C);
  RouteWorkspace workspace;
  for (const auto& [du, dv] : shapes) {
    const Mesh mesh(du + 3, dv + 3);
    for (int quadrant = 0; quadrant < 4; ++quadrant) {
      const bool up = (quadrant & 1) != 0;
      const bool left = (quadrant & 2) != 0;
      const Coord src{up ? du + 1 : 1, left ? dv + 1 : 1};
      const Coord snk{up ? 1 : du + 1, left ? 1 : dv + 1};
      const CommRect rect(mesh, src, snk);
      const std::string label = std::to_string(du) + "x" + std::to_string(dv) +
                                " quadrant " + std::to_string(quadrant);
      for (int run = 0; run < 12; ++run) {
        std::vector<std::vector<LinkId>> expected;
        std::int32_t depth = -1;
        PathRemoverRouter::remove_links(
            mesh, Communication{src, snk, 100.0}, workspace, [&]() -> LinkId {
              const std::vector<std::vector<LinkId>> cuts = live_cuts(workspace, rect.length());
              if (depth >= 0) {
                EXPECT_EQ(cuts, expected) << label << " run " << run;
                ++removals;
              }
              for (LinkId link = 0; link < mesh.num_links(); ++link) {
                const bool live = std::any_of(cuts.begin(), cuts.end(), [&](const auto& cut) {
                  return std::find(cut.begin(), cut.end(), link) != cut.end();
                });
                EXPECT_EQ(workspace.pr.allowed[static_cast<std::size_t>(link)] != 0, live)
                    << label << " link " << link;
              }
              std::vector<std::int32_t> removable;
              for (std::size_t t = 0; t < cuts.size(); ++t) {
                if (cuts[t].size() >= 2) removable.push_back(static_cast<std::int32_t>(t));
              }
              if (removable.empty() || testing::Test::HasFailure()) return kInvalidLink;
              depth = removable[rng.below(removable.size())];
              const std::vector<LinkId>& cut = cuts[static_cast<std::size_t>(depth)];
              const LinkId link = cut[rng.below(cut.size())];
              expected = cuts;
              std::erase(expected[static_cast<std::size_t>(depth)], link);
              expected = swept(mesh, rect, expected);
              bool before = false;
              bool after = false;
              for (std::size_t t = 0; t < cuts.size(); ++t) {
                const bool lost = expected[t].size() + (t == static_cast<std::size_t>(depth))
                                  < cuts[t].size();
                before |= lost && static_cast<std::int32_t>(t) < depth;
                after |= lost && static_cast<std::int32_t>(t) > depth;
              }
              toward_src += before ? 1 : 0;
              toward_snk += after ? 1 : 0;
              return link;
            });
        ASSERT_FALSE(testing::Test::HasFailure()) << label << " run " << run;
      }
    }
  }
  // The removals must cascade both ways, so both kill rules are exercised.
  EXPECT_GE(removals, 2000);
  EXPECT_GE(toward_src, 200);
  EXPECT_GE(toward_snk, 200);
}

}  // namespace
}  // namespace pamr
