#include "pamr/topo/topology.hpp"

#include <algorithm>
#include <map>
#include <mutex>
#include <queue>
#include <tuple>

#include "pamr/mesh/mesh.hpp"
#include "pamr/topo/topologies.hpp"

namespace pamr {
namespace topo {

const char* to_cstring(TopoKind kind) noexcept {
  switch (kind) {
    case TopoKind::kRect: return "rect";
    case TopoKind::kTorus: return "torus";
    case TopoKind::kDiag: return "diag";
  }
  return "?";
}

bool parse_topo_kind(std::string_view text, TopoKind& out) noexcept {
  for (int k = 0; k < kNumTopoKinds; ++k) {
    const auto kind = static_cast<TopoKind>(k);
    if (text == to_cstring(kind)) {
      out = kind;
      return true;
    }
  }
  return false;
}

void LinkTable::add(Coord from, std::int32_t dir, Coord to) {
  PAMR_ASSERT(from.u >= 0 && from.u < p && from.v >= 0 && from.v < q);
  PAMR_ASSERT(to.u >= 0 && to.u < p && to.v >= 0 && to.v < q);
  PAMR_ASSERT(dir >= 0 && dir < num_dirs);
  const std::size_t slot =
      static_cast<std::size_t>(from.u * q + from.v) * static_cast<std::size_t>(num_dirs) +
      static_cast<std::size_t>(dir);
  PAMR_ASSERT(link_of_core_dir[slot] == kInvalidLink);
  link_of_core_dir[slot] = static_cast<LinkId>(links.size());
  links.push_back(LinkInfo{from, to, static_cast<LinkDir>(dir)});
}

namespace {

/// The link table of a (kind, p, q) shape, built on first use and kept for
/// the life of the process (std::map never moves its values): a campaign
/// holds a topology per point and unit, and the tables of an 8×8 mesh take
/// ~5.5 KB.
const LinkTable& shared_link_table(TopoKind kind, std::int32_t p, std::int32_t q,
                                   std::int32_t num_dirs,
                                   void (*build)(LinkTable&)) {
  static std::mutex mutex;
  static std::map<std::tuple<TopoKind, std::int32_t, std::int32_t>, LinkTable> shapes;
  const std::lock_guard<std::mutex> lock(mutex);
  const auto [it, inserted] = shapes.try_emplace({kind, p, q});
  LinkTable& table = it->second;
  if (inserted) {
    table.p = p;
    table.q = q;
    table.num_dirs = num_dirs;
    table.link_of_core_dir.assign(
        static_cast<std::size_t>(p * q) * static_cast<std::size_t>(num_dirs),
        kInvalidLink);
    build(table);
    table.links.shrink_to_fit();
  }
  return table;
}

}  // namespace

Topology::Topology(TopoKind kind, std::int32_t p, std::int32_t q, std::int32_t num_dirs,
                   BuildLinks build)
    : kind_(kind), p_(p), q_(q), num_dirs_(num_dirs) {
  PAMR_CHECK(p >= 1 && q >= 1, "topology dimensions must be positive");
  PAMR_CHECK(num_dirs >= 1, "topology needs a direction table");
  const LinkTable& table = shared_link_table(kind, p, q, num_dirs, build);
  links_ = table.links;
  link_of_core_dir_ = table.link_of_core_dir.data();
}

LinkId Topology::link_from(Coord from, std::int32_t dir) const {
  PAMR_CHECK(dir >= 0 && dir < num_dirs_, "direction out of range");
  if (!contains(from)) return kInvalidLink;
  return link_of_core_dir_[static_cast<std::size_t>(core_index(from)) *
                               static_cast<std::size_t>(num_dirs_) +
                           static_cast<std::size_t>(dir)];
}

std::string Topology::describe_link(LinkId id) const {
  const LinkInfo& info = link(id);
  return to_string(info.from) + "->" + to_string(info.to);
}

bool Topology::is_shortest(const Path& path) const {
  Coord at = path.src;
  std::int32_t remaining = distance(path.src, path.snk);
  if (path.length() != remaining) return false;
  for (const LinkId id : path.links) {
    if (id < 0 || id >= num_links()) return false;
    const LinkInfo& info = link(id);
    if (info.from != at) return false;
    if (distance(info.to, path.snk) != remaining - 1) return false;
    at = info.to;
    --remaining;
  }
  return at == path.snk;
}

Path Topology::canonical_path(Coord src, Coord snk) const {
  Path path;
  path.src = src;
  path.snk = snk;
  Coord at = src;
  while (at != snk) {
    const std::vector<TopoStep> steps = next_steps(at, snk);
    PAMR_ASSERT_MSG(!steps.empty(), "next_steps empty before reaching the sink");
    path.links.push_back(steps.front().link);
    at = steps.front().to;
  }
  return path;
}

std::unique_ptr<const Topology> make_topology(TopoKind kind, std::int32_t p,
                                              std::int32_t q) {
  switch (kind) {
    case TopoKind::kRect: return std::make_unique<Mesh>(p, q);
    case TopoKind::kTorus: return std::make_unique<TorusTopology>(p, q);
    case TopoKind::kDiag: return std::make_unique<DiagTopology>(p, q);
  }
  PAMR_CHECK(false, "unknown topology kind");
  return nullptr;  // unreachable
}

DistanceStats distance_stats(const Topology& topology) {
  // BFS from every core over the link graph. The per-core adjacency is
  // materialized once; duplicate neighbours (a dimension-2 torus axis has
  // two parallel links per pair) are harmless for BFS.
  const std::int32_t n = topology.num_cores();
  std::vector<std::vector<std::int32_t>> out(static_cast<std::size_t>(n));
  for (const LinkInfo& link : topology.links()) {
    out[static_cast<std::size_t>(topology.core_index(link.from))].push_back(
        topology.core_index(link.to));
  }
  DistanceStats stats;
  std::vector<std::int32_t> dist(static_cast<std::size_t>(n));
  for (std::int32_t source = 0; source < n; ++source) {
    std::fill(dist.begin(), dist.end(), -1);
    dist[static_cast<std::size_t>(source)] = 0;
    std::queue<std::int32_t> frontier;
    frontier.push(source);
    while (!frontier.empty()) {
      const std::int32_t core = frontier.front();
      frontier.pop();
      for (const std::int32_t next : out[static_cast<std::size_t>(core)]) {
        if (dist[static_cast<std::size_t>(next)] >= 0) continue;
        dist[static_cast<std::size_t>(next)] = dist[static_cast<std::size_t>(core)] + 1;
        frontier.push(next);
      }
    }
    for (std::int32_t core = 0; core < n; ++core) {
      const std::int32_t d = dist[static_cast<std::size_t>(core)];
      PAMR_ASSERT_MSG(d >= 0, "topology link graph is not strongly connected");
      stats.total_hops += d;
      if (d > stats.diameter) stats.diameter = d;
    }
  }
  return stats;
}

}  // namespace topo
}  // namespace pamr
