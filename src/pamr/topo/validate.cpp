#include "pamr/topo/validate.hpp"

#include <algorithm>

#include "pamr/routing/deadlock.hpp"
#include "pamr/util/assert.hpp"

namespace pamr {
namespace topo {

bool verify_vc_acyclic(const Topology& topology, const Routing& routing) {
  // Vertices are (link, class) pairs, flattened as link * num_classes +
  // class; hop h of a flow occupies vc_classes(path)[h], and the packet can
  // hold that channel while requesting hop h+1's. Dally & Seitz on the
  // expanded graph covers both within-class cycles and (for the torus)
  // cross-class dateline transitions in one check.
  const std::int32_t num_classes = topology.num_vc_classes();
  ChannelDependencyGraph expanded(
      static_cast<std::size_t>(topology.num_links()) *
      static_cast<std::size_t>(num_classes));
  for (const CommRouting& routed : routing.per_comm) {
    for (const RoutedFlow& flow : routed.flows) {
      const Path& path = flow.path;
      const std::vector<std::int32_t> classes = topology.vc_classes(path);
      PAMR_ASSERT(classes.size() == path.links.size());
      const auto vertex = [&](std::size_t hop) {
        PAMR_ASSERT(classes[hop] >= 0 && classes[hop] < num_classes);
        return static_cast<LinkId>(path.links[hop]) * num_classes + classes[hop];
      };
      for (std::size_t hop = 0; hop + 1 < path.links.size(); ++hop) {
        expanded[static_cast<std::size_t>(vertex(hop))].push_back(vertex(hop + 1));
      }
    }
  }
  for (std::vector<LinkId>& edges : expanded) {
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  }
  return !find_dependency_cycle(expanded).has_value();
}

}  // namespace topo
}  // namespace pamr
