#include "pamr/routing/path.hpp"

#include "pamr/mesh/diagonal.hpp"
#include "pamr/util/assert.hpp"

namespace pamr {

Path path_from_cores(const Mesh& mesh, const std::vector<Coord>& cores) {
  PAMR_CHECK(!cores.empty(), "a path visits at least one core");
  Path path;
  path.src = cores.front();
  path.snk = cores.back();
  path.links.reserve(cores.size() - 1);
  for (std::size_t i = 0; i + 1 < cores.size(); ++i) {
    path.links.push_back(mesh.link_between(cores[i], cores[i + 1]));
  }
  return path;
}

std::vector<Coord> cores_of_path(const Mesh& mesh, const Path& path) {
  std::vector<Coord> cores;
  cores.reserve(path.links.size() + 1);
  cores.push_back(path.src);
  for (const LinkId id : path.links) {
    const LinkInfo& info = mesh.link(id);
    PAMR_CHECK(info.from == cores.back(), "disconnected link chain");
    cores.push_back(info.to);
  }
  PAMR_CHECK(cores.back() == path.snk, "path does not end at its sink");
  return cores;
}

Path xy_path(const Mesh& mesh, Coord src, Coord snk) {
  Path path{src, snk,
            std::vector<LinkId>(static_cast<std::size_t>(manhattan_distance(src, snk)))};
  write_xy_path(mesh, src, snk, path.links);
  return path;
}

void write_xy_path(const Mesh& mesh, Coord src, Coord snk, std::span<LinkId> links) {
  PAMR_ASSERT(links.size() == static_cast<std::size_t>(manhattan_distance(src, snk)));
  std::size_t k = 0;
  Coord at = src;
  const std::int32_t sv = sign_of(snk.v - src.v);
  while (at.v != snk.v) {
    const Coord to{at.u, at.v + sv};
    links[k++] = mesh.link_between(at, to);
    at = to;
  }
  const std::int32_t su = sign_of(snk.u - src.u);
  while (at.u != snk.u) {
    const Coord to{at.u + su, at.v};
    links[k++] = mesh.link_between(at, to);
    at = to;
  }
}

Path yx_path(const Mesh& mesh, Coord src, Coord snk) {
  Path path;
  path.src = src;
  path.snk = snk;
  Coord at = src;
  const std::int32_t su = sign_of(snk.u - src.u);
  while (at.u != snk.u) {
    const Coord to{at.u + su, at.v};
    path.links.push_back(mesh.link_between(at, to));
    at = to;
  }
  const std::int32_t sv = sign_of(snk.v - src.v);
  while (at.v != snk.v) {
    const Coord to{at.u, at.v + sv};
    path.links.push_back(mesh.link_between(at, to));
    at = to;
  }
  return path;
}

bool is_manhattan(const Mesh& mesh, const Path& path) {
  if (path.length() != manhattan_distance(path.src, path.snk)) return false;
  // Shortest length plus connectedness implies monotonicity, but verify the
  // steps explicitly anyway: each hop must use one of the quadrant's two
  // directions and the chain must be connected.
  const QuadrantSteps steps = quadrant_steps(quadrant_of(path.src, path.snk));
  Coord at = path.src;
  for (const LinkId id : path.links) {
    if (id < 0 || id >= mesh.num_links()) return false;
    const LinkInfo& info = mesh.link(id);
    if (info.from != at) return false;
    if (info.dir != steps.vertical && info.dir != steps.horizontal) return false;
    at = info.to;
  }
  return at == path.snk;
}

std::string to_string(const Mesh& mesh, const Path& path) {
  std::string out = to_string(path.src);
  Coord at = path.src;
  for (const LinkId id : path.links) {
    const LinkInfo& info = mesh.link(id);
    out += std::string(" ") + to_cstring(info.dir) + " " + to_string(info.to);
    at = info.to;
  }
  (void)at;
  return out;
}

}  // namespace pamr
