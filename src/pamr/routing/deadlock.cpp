#include "pamr/routing/deadlock.hpp"

#include <algorithm>

#include "pamr/util/assert.hpp"

namespace pamr {

namespace {

/// The dependency graph over (link, class) vertices, flattened as
/// link * num_classes + class: hop h of a flow occupies class classes[h]
/// (all 0 without VC classes), and the packet can hold that channel while
/// requesting hop h+1's. Each vertex's edges are deduplicated, ascending.
ChannelDependencyGraph dependency_graph(const topo::Topology& topology,
                                        const Routing& routing, bool with_vc_classes) {
  const std::int32_t num_classes = with_vc_classes ? topology.num_vc_classes() : 1;
  ChannelDependencyGraph graph(static_cast<std::size_t>(topology.num_links()) *
                               static_cast<std::size_t>(num_classes));
  std::vector<std::int32_t> classes;
  for (const CommRouting& routed : routing.per_comm) {
    for (const RoutedFlow& flow : routed.flows) {
      const Path& path = flow.path;
      if (with_vc_classes) {
        classes = topology.vc_classes(path);
        PAMR_ASSERT(classes.size() == path.links.size());
      } else {
        classes.assign(path.links.size(), 0);
      }
      const auto vertex = [&](std::size_t hop) {
        PAMR_ASSERT(classes[hop] >= 0 && classes[hop] < num_classes);
        return static_cast<LinkId>(path.links[hop]) * num_classes + classes[hop];
      };
      for (std::size_t hop = 0; hop + 1 < path.links.size(); ++hop) {
        graph[static_cast<std::size_t>(vertex(hop))].push_back(vertex(hop + 1));
      }
    }
  }
  for (std::vector<LinkId>& edges : graph) {
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  }
  return graph;
}

}  // namespace

ChannelDependencyGraph channel_dependency_graph(const topo::Topology& topology,
                                                const Routing& routing) {
  return dependency_graph(topology, routing, false);
}

std::optional<std::vector<LinkId>> find_dependency_cycle(
    const ChannelDependencyGraph& graph) {
  // Iterative DFS with colors; on finding a back edge, reconstruct the
  // cycle from the DFS stack.
  enum : char { kWhite = 0, kGray = 1, kBlack = 2 };
  std::vector<char> color(graph.size(), kWhite);
  std::vector<LinkId> stack;          // current DFS path
  std::vector<std::size_t> edge_pos;  // per stack entry: next edge index

  for (std::size_t root = 0; root < graph.size(); ++root) {
    if (color[root] != kWhite) continue;
    stack.clear();
    edge_pos.clear();
    stack.push_back(static_cast<LinkId>(root));
    edge_pos.push_back(0);
    color[root] = kGray;
    while (!stack.empty()) {
      const auto node = static_cast<std::size_t>(stack.back());
      if (edge_pos.back() < graph[node].size()) {
        const LinkId next = graph[node][edge_pos.back()++];
        const auto next_index = static_cast<std::size_t>(next);
        if (color[next_index] == kGray) {
          // Back edge: cycle = stack suffix from `next` onwards + next.
          std::vector<LinkId> cycle;
          const auto start = std::find(stack.begin(), stack.end(), next);
          PAMR_ASSERT(start != stack.end());
          cycle.assign(start, stack.end());
          cycle.push_back(next);
          return cycle;
        }
        if (color[next_index] == kWhite) {
          color[next_index] = kGray;
          stack.push_back(next);
          edge_pos.push_back(0);
        }
      } else {
        color[node] = kBlack;
        stack.pop_back();
        edge_pos.pop_back();
      }
    }
  }
  return std::nullopt;
}

bool has_deadlock_risk(const topo::Topology& topology, const Routing& routing) {
  return find_dependency_cycle(channel_dependency_graph(topology, routing)).has_value();
}

bool verify_vc_acyclic(const topo::Topology& topology, const Routing& routing) {
  // Dally & Seitz on the expanded graph covers both within-class cycles and
  // (for the torus) cross-class dateline transitions in one check.
  return !find_dependency_cycle(dependency_graph(topology, routing, true)).has_value();
}

}  // namespace pamr
