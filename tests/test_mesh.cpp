// Unit tests for pamr/mesh: grid topology, link numbering, diagonals
// (paper §3.3) and the monotone communication rectangles.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "pamr/mesh/diagonal.hpp"
#include "pamr/mesh/mesh.hpp"
#include "pamr/mesh/rectangle.hpp"

namespace pamr {
namespace {

TEST(Coord, ManhattanDistance) {
  EXPECT_EQ(manhattan_distance({0, 0}, {0, 0}), 0);
  EXPECT_EQ(manhattan_distance({0, 0}, {3, 4}), 7);
  EXPECT_EQ(manhattan_distance({3, 4}, {0, 0}), 7);
  EXPECT_EQ(manhattan_distance({2, 5}, {4, 1}), 6);
}

TEST(Coord, StepAndOpposite) {
  EXPECT_EQ(step({1, 1}, LinkDir::kEast), (Coord{1, 2}));
  EXPECT_EQ(step({1, 1}, LinkDir::kWest), (Coord{1, 0}));
  EXPECT_EQ(step({1, 1}, LinkDir::kSouth), (Coord{2, 1}));
  EXPECT_EQ(step({1, 1}, LinkDir::kNorth), (Coord{0, 1}));
  for (int d = 0; d < kNumLinkDirs; ++d) {
    const auto dir = static_cast<LinkDir>(d);
    EXPECT_EQ(opposite(opposite(dir)), dir);
    EXPECT_EQ(step(step({5, 5}, dir), opposite(dir)), (Coord{5, 5}));
  }
}

TEST(Mesh, LinkCountMatchesFormula) {
  for (const auto& [p, q] : {std::pair{1, 1}, {1, 5}, {2, 2}, {3, 4}, {8, 8}}) {
    const Mesh mesh(p, q);
    EXPECT_EQ(mesh.num_links(), 2 * (p * (q - 1) + (p - 1) * q))
        << p << "x" << q;
    EXPECT_EQ(mesh.num_cores(), p * q);
  }
}

TEST(Mesh, CoreIndexRoundTrips) {
  const Mesh mesh(3, 5);
  for (std::int32_t i = 0; i < mesh.num_cores(); ++i) {
    EXPECT_EQ(mesh.core_index(mesh.core_coord(i)), i);
  }
}

TEST(Mesh, LinksAreUniqueAndConsistent) {
  const Mesh mesh(4, 3);
  std::set<std::pair<std::pair<int, int>, std::pair<int, int>>> seen;
  for (LinkId id = 0; id < mesh.num_links(); ++id) {
    const LinkInfo& info = mesh.link(id);
    EXPECT_EQ(manhattan_distance(info.from, info.to), 1);
    EXPECT_EQ(step(info.from, info.dir), info.to);
    EXPECT_TRUE(seen.insert({{info.from.u, info.from.v}, {info.to.u, info.to.v}}).second);
    EXPECT_EQ(mesh.link_between(info.from, info.to), id);
    EXPECT_EQ(mesh.link_from(info.from, info.dir), id);
  }
}

TEST(Mesh, BordersHaveNoOutgoingLinks) {
  const Mesh mesh(3, 3);
  EXPECT_EQ(mesh.link_from({0, 0}, LinkDir::kNorth), kInvalidLink);
  EXPECT_EQ(mesh.link_from({0, 0}, LinkDir::kWest), kInvalidLink);
  EXPECT_EQ(mesh.link_from({2, 2}, LinkDir::kSouth), kInvalidLink);
  EXPECT_EQ(mesh.link_from({2, 2}, LinkDir::kEast), kInvalidLink);
}

TEST(Mesh, LinkFromGivesOneAnswerThroughBothOverloads) {
  // The Mesh's inline LinkDir overload and the Topology's direction-index
  // overload answer alike: the link, or kInvalidLink at the boundary and
  // for a core outside the mesh (CrossingIndex::reset's per-link table of
  // read-window neighbours relies on the latter).
  const std::int32_t p = 3;
  const std::int32_t q = 4;
  const Mesh mesh(p, q);
  const topo::Topology& topology = mesh;
  std::vector<Coord> cores = {{-1, 0}, {p, 0}, {0, -1}, {0, q}};
  for (std::int32_t c = 0; c < mesh.num_cores(); ++c) cores.push_back(mesh.core_coord(c));
  for (const Coord core : cores) {
    for (int d = 0; d < kNumLinkDirs; ++d) {
      const LinkId by_dir = mesh.link_from(core, static_cast<LinkDir>(d));
      EXPECT_EQ(topology.link_from(core, d), by_dir) << to_string(core) << " dir " << d;
      if (!mesh.contains(core)) {
        EXPECT_EQ(by_dir, kInvalidLink) << to_string(core);
      }
    }
  }
  // An out-of-range direction index is still a caller bug.
  EXPECT_THROW((void)topology.link_from({0, 0}, kNumLinkDirs), std::logic_error);
  EXPECT_THROW((void)topology.link_from({0, 0}, -1), std::logic_error);
}

TEST(Mesh, MeshesOfOneShapeShareTheirLinkTables) {
  const Mesh a(8, 8);
  const Mesh b(8, 8);
  const Mesh wide(8, 4);
  const Mesh tall(4, 8);
  EXPECT_EQ(a.links().data(), b.links().data());
  EXPECT_NE(a.links().data(), wide.links().data());
  EXPECT_NE(wide.links().data(), tall.links().data());
  const Mesh copy = wide;
  EXPECT_EQ(copy.links().data(), wide.links().data());
  EXPECT_EQ(copy.num_links(), 2 * (8 * 3 + 7 * 4));
  const LinkInfo& east = tall.link(tall.link_between({3, 6}, {3, 7}));
  EXPECT_EQ(east.from, (Coord{3, 6}));
  EXPECT_EQ(east.to, (Coord{3, 7}));
}

TEST(Mesh, ConcurrentConstructionSharesOneTable) {
  // Pool workers build meshes concurrently; all of them must get the one
  // table of their shape.
  std::vector<const LinkInfo*> seen(8, nullptr);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < seen.size(); ++t) {
    threads.emplace_back([&seen, t] { seen[t] = Mesh(5, 9).links().data(); });
  }
  for (std::thread& thread : threads) thread.join();
  for (const LinkInfo* links : seen) EXPECT_EQ(links, Mesh(5, 9).links().data());
}

TEST(Mesh, RejectsBadInputs) {
  EXPECT_THROW(Mesh(0, 3), std::logic_error);
  const Mesh mesh(2, 2);
  EXPECT_THROW((void)mesh.link_between({0, 0}, {1, 1}), std::logic_error);
  EXPECT_THROW((void)mesh.link(99), std::logic_error);
}

TEST(Diagonal, QuadrantOfMatchesPaperRules) {
  // Paper: u_src <= u_snk & v_src <= v_snk -> d=1 (SE), etc.
  EXPECT_EQ(quadrant_of({0, 0}, {2, 2}), Quadrant::kSE);
  EXPECT_EQ(quadrant_of({0, 2}, {2, 0}), Quadrant::kSW);
  EXPECT_EQ(quadrant_of({2, 2}, {0, 0}), Quadrant::kNW);
  EXPECT_EQ(quadrant_of({2, 0}, {0, 2}), Quadrant::kNE);
  // Tie rules: equality counts as "<=".
  EXPECT_EQ(quadrant_of({1, 1}, {1, 3}), Quadrant::kSE);
  EXPECT_EQ(quadrant_of({1, 1}, {1, 1}), Quadrant::kSE);
  EXPECT_EQ(quadrant_of({1, 3}, {1, 1}), Quadrant::kSW);
}

TEST(Diagonal, EveryCoreOnExactlyOneDiagonalPerDirection) {
  const Mesh mesh(3, 4);
  for (int d = 0; d < kNumQuadrants; ++d) {
    const auto direction = static_cast<Quadrant>(d);
    std::size_t covered = 0;
    for (std::int32_t k = 0; k <= mesh.p() + mesh.q() - 2; ++k) {
      covered += diagonal_cores(mesh, direction, k).size();
    }
    EXPECT_EQ(covered, static_cast<std::size_t>(mesh.num_cores()));
  }
}

TEST(Diagonal, IndexAdvancesByOnePerHop) {
  const Mesh mesh(4, 4);
  for (int d = 0; d < kNumQuadrants; ++d) {
    const auto direction = static_cast<Quadrant>(d);
    const QuadrantSteps steps = quadrant_steps(direction);
    for (std::int32_t u = 0; u < 4; ++u) {
      for (std::int32_t v = 0; v < 4; ++v) {
        const Coord c{u, v};
        for (const LinkDir dir : {steps.vertical, steps.horizontal}) {
          const Coord to = step(c, dir);
          if (!mesh.contains(to)) continue;
          EXPECT_EQ(diagonal_index(mesh, direction, to),
                    diagonal_index(mesh, direction, c) + 1);
        }
      }
    }
  }
}

TEST(Diagonal, CutSizeMatchesEnumeration) {
  for (const auto& [p, q] : {std::pair{2, 2}, {3, 5}, {8, 8}, {4, 7}}) {
    const Mesh mesh(p, q);
    for (int d = 0; d < kNumQuadrants; ++d) {
      const auto direction = static_cast<Quadrant>(d);
      for (std::int32_t k = 0; k <= p + q - 3; ++k) {
        EXPECT_EQ(diagonal_cut_size(mesh, direction, k),
                  static_cast<std::int32_t>(diagonal_cut_links(mesh, direction, k).size()))
            << "p=" << p << " q=" << q << " d=" << d << " k=" << k;
      }
    }
  }
}

TEST(Diagonal, CutSizesMatchTheoremSums) {
  // The proofs use cut sizes 2k for k < p, then 2p-1, then symmetric
  // (1-based k). Verify on a tall mesh in 0-based form.
  const Mesh mesh(3, 6);  // p=3, q=6
  const std::vector<std::int32_t> expected{2, 4, 5, 5, 5, 4, 2};
  for (std::size_t k = 0; k < expected.size(); ++k) {
    EXPECT_EQ(diagonal_cut_size(mesh, Quadrant::kSE, static_cast<std::int32_t>(k)),
              expected[k])
        << k;
  }
}

TEST(Diagonal, CutLinksGoBetweenConsecutiveDiagonals) {
  const Mesh mesh(4, 5);
  for (int d = 0; d < kNumQuadrants; ++d) {
    const auto direction = static_cast<Quadrant>(d);
    for (std::int32_t k = 0; k <= mesh.p() + mesh.q() - 3; ++k) {
      for (const LinkId link : diagonal_cut_links(mesh, direction, k)) {
        const LinkInfo& info = mesh.link(link);
        EXPECT_EQ(diagonal_index(mesh, direction, info.from), k);
        EXPECT_EQ(diagonal_index(mesh, direction, info.to), k + 1);
      }
    }
  }
}

TEST(CommRect, BasicGeometry) {
  const Mesh mesh(5, 5);
  const CommRect rect(mesh, {1, 1}, {3, 4});
  EXPECT_EQ(rect.du(), 2);
  EXPECT_EQ(rect.dv(), 3);
  EXPECT_EQ(rect.length(), 5);
  EXPECT_EQ(rect.quadrant(), Quadrant::kSE);
  EXPECT_TRUE(rect.contains({2, 2}));
  EXPECT_FALSE(rect.contains({0, 2}));
  EXPECT_FALSE(rect.contains({2, 0}));
  EXPECT_EQ(rect.depth({1, 1}), 0);
  EXPECT_EQ(rect.depth({3, 4}), 5);
  EXPECT_EQ(rect.depth({2, 2}), 2);
  EXPECT_EQ(rect.depth({0, 0}), -1);
}

TEST(CommRect, ReversedOrientation) {
  const Mesh mesh(5, 5);
  const CommRect rect(mesh, {4, 4}, {1, 2});  // NW
  EXPECT_EQ(rect.quadrant(), Quadrant::kNW);
  EXPECT_EQ(rect.length(), 5);
  EXPECT_TRUE(rect.contains({2, 3}));
  EXPECT_EQ(rect.depth({4, 4}), 0);
  EXPECT_EQ(rect.depth({1, 2}), 5);
  // Steps must go north/west only.
  for (const auto& step : rect.next_steps({3, 3})) {
    const LinkInfo& info = mesh.link(step.link);
    EXPECT_TRUE(info.dir == LinkDir::kNorth || info.dir == LinkDir::kWest);
  }
}

TEST(CommRect, DepthLevelsPartitionTheRectangle) {
  const Mesh mesh(6, 6);
  const CommRect rect(mesh, {1, 4}, {4, 0});  // SW, du=3, dv=4
  std::size_t cells = 0;
  for (std::int32_t t = 0; t <= rect.length(); ++t) {
    const auto at_depth = rect.cells_at_depth(t);
    EXPECT_EQ(static_cast<std::int32_t>(at_depth.size()), rect.width_at_depth(t));
    for (const Coord c : at_depth) EXPECT_EQ(rect.depth(c), t);
    cells += at_depth.size();
  }
  EXPECT_EQ(cells, static_cast<std::size_t>((rect.du() + 1) * (rect.dv() + 1)));
}

TEST(CommRect, CutSizesAndAllLinks) {
  const Mesh mesh(6, 6);
  const CommRect rect(mesh, {0, 0}, {2, 3});
  std::vector<LinkId> all;
  for (std::int32_t t = 0; t < rect.length(); ++t) {
    std::int32_t in_cut = 0;
    rect.for_each_cut_link(t, [&](LinkId link) {
      // Every cut link steps from depth t to depth t+1 inside the rectangle.
      EXPECT_EQ(rect.depth(mesh.link(link).from), t);
      EXPECT_EQ(rect.depth(mesh.link(link).to), t + 1);
      all.push_back(link);
      ++in_cut;
    });
    EXPECT_EQ(in_cut, rect.cut_size(t));
  }
  std::sort(all.begin(), all.end());
  EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end());
  // Rectangle link count: du*(dv+1) vertical + dv*(du+1) horizontal.
  EXPECT_EQ(all.size(), static_cast<std::size_t>(2 * 4 + 3 * 3));
}

TEST(CommRect, CutLinksListVerticalBeforeHorizontalByRowOffset) {
  const Mesh mesh(6, 6);
  const CommRect rect(mesh, {1, 1}, {3, 3});  // SE, du = dv = 2
  std::vector<LinkId> cut;
  rect.for_each_cut_link(1, [&](LinkId link) { cut.push_back(link); });
  // Depth 1 holds (1,2) then (2,1): each cell's south step, then its east.
  const std::vector<LinkId> expected = {
      mesh.link_between({1, 2}, {2, 2}), mesh.link_between({1, 2}, {1, 3}),
      mesh.link_between({2, 1}, {3, 1}), mesh.link_between({2, 1}, {2, 2})};
  EXPECT_EQ(cut, expected);
}

TEST(CommRect, DegenerateLine) {
  const Mesh mesh(4, 4);
  const CommRect rect(mesh, {2, 0}, {2, 3});
  EXPECT_EQ(rect.du(), 0);
  EXPECT_EQ(rect.length(), 3);
  for (std::int32_t t = 0; t < rect.length(); ++t) EXPECT_EQ(rect.cut_size(t), 1);
  const auto steps = rect.next_steps({2, 1});
  ASSERT_EQ(steps.size(), 1u);
  EXPECT_EQ(steps[0].to, (Coord{2, 2}));
}

TEST(CommRect, SingleCell) {
  const Mesh mesh(4, 4);
  const CommRect rect(mesh, {1, 1}, {1, 1});
  EXPECT_EQ(rect.length(), 0);
  EXPECT_TRUE(rect.next_steps({1, 1}).empty());
  EXPECT_EQ(rect.cut_size(0), 0);
  rect.for_each_cut_link(0, [](LinkId) { ADD_FAILURE() << "a single cell has no cut"; });
}

TEST(CommRect, NextStepsStayInRectangleAndAdvanceDepth) {
  const Mesh mesh(8, 8);
  const CommRect rect(mesh, {6, 5}, {2, 1});  // NW quadrant
  for (std::int32_t t = 0; t < rect.length(); ++t) {
    for (const Coord c : rect.cells_at_depth(t)) {
      const auto steps = rect.next_steps(c);
      EXPECT_FALSE(steps.empty());
      for (const auto& s : steps) {
        EXPECT_TRUE(rect.contains(s.to));
        EXPECT_EQ(rect.depth(s.to), t + 1);
      }
    }
  }
}

}  // namespace
}  // namespace pamr
