#include "pamr/mesh/mesh.hpp"

#include <map>
#include <mutex>
#include <utility>

#include "pamr/util/assert.hpp"

namespace pamr {

namespace {

struct LinkTables {
  std::vector<LinkInfo> links;
  std::vector<LinkId> link_of_core_dir;
};

LinkTables build_link_tables(std::int32_t p, std::int32_t q) {
  LinkTables tables;
  tables.link_of_core_dir.assign(static_cast<std::size_t>(p * q) * kNumLinkDirs,
                                 kInvalidLink);
  tables.links.reserve(static_cast<std::size_t>(2 * (p * (q - 1) + (p - 1) * q)));

  // Enumerate links in a fixed, documented order: per core (row-major), per
  // direction (E, W, S, N). The order is part of the library's determinism
  // contract — link loads serialized by one build are comparable across
  // runs.
  for (std::int32_t u = 0; u < p; ++u) {
    for (std::int32_t v = 0; v < q; ++v) {
      const Coord from{u, v};
      for (int d = 0; d < kNumLinkDirs; ++d) {
        const auto dir = static_cast<LinkDir>(d);
        const Coord to = step(from, dir);
        if (to.u < 0 || to.u >= p || to.v < 0 || to.v >= q) continue;
        const auto id = static_cast<LinkId>(tables.links.size());
        tables.links.push_back(LinkInfo{from, to, dir});
        tables.link_of_core_dir[static_cast<std::size_t>(u * q + v) * kNumLinkDirs +
                                static_cast<std::size_t>(d)] = id;
      }
    }
  }
  return tables;
}

/// The link tables of a p×q mesh, built on first use and kept for the life
/// of the process (std::map never moves its values).
const LinkTables& shared_link_tables(std::int32_t p, std::int32_t q) {
  PAMR_CHECK(p >= 1 && q >= 1, "mesh dimensions must be positive");
  static std::mutex mutex;
  static std::map<std::pair<std::int32_t, std::int32_t>, LinkTables> shapes;
  const std::lock_guard<std::mutex> lock(mutex);
  const auto [it, inserted] = shapes.try_emplace({p, q});
  if (inserted) it->second = build_link_tables(p, q);
  return it->second;
}

}  // namespace

Mesh::Mesh(std::int32_t p, std::int32_t q) : p_(p), q_(q) {
  const LinkTables& tables = shared_link_tables(p, q);
  links_ = tables.links;
  link_of_core_dir_ = tables.link_of_core_dir.data();
}

LinkId Mesh::link_from(Coord from, LinkDir dir) const noexcept {
  if (!contains(from)) return kInvalidLink;
  return link_of_core_dir_[static_cast<std::size_t>(core_index(from)) * kNumLinkDirs +
                           static_cast<std::size_t>(dir)];
}

std::vector<Coord> Mesh::successors(Coord c) const {
  PAMR_CHECK(contains(c), "core outside mesh");
  std::vector<Coord> out;
  out.reserve(4);
  for (int d = 0; d < kNumLinkDirs; ++d) {
    const Coord to = step(c, static_cast<LinkDir>(d));
    if (contains(to)) out.push_back(to);
  }
  return out;
}

std::string Mesh::describe_link(LinkId id) const {
  const LinkInfo& info = link(id);
  return to_string(info.from) + "->" + to_string(info.to);
}

}  // namespace pamr
