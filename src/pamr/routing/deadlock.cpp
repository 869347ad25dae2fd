#include "pamr/routing/deadlock.hpp"

#include <algorithm>

#include "pamr/util/assert.hpp"

namespace pamr {

namespace {

void add_path_dependencies(const Path& path, ChannelDependencyGraph& graph) {
  for (std::size_t hop = 0; hop + 1 < path.links.size(); ++hop) {
    auto& edges = graph[static_cast<std::size_t>(path.links[hop])];
    const LinkId next = path.links[hop + 1];
    if (std::find(edges.begin(), edges.end(), next) == edges.end()) {
      edges.push_back(next);
    }
  }
}

}  // namespace

ChannelDependencyGraph channel_dependency_graph(const Mesh& mesh,
                                                const Routing& routing) {
  ChannelDependencyGraph graph(static_cast<std::size_t>(mesh.num_links()));
  for (const CommRouting& comm : routing.per_comm) {
    for (const RoutedFlow& flow : comm.flows) {
      add_path_dependencies(flow.path, graph);
    }
  }
  return graph;
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

bool has_deadlock_risk(const Mesh& mesh, const Routing& routing) {
  return find_dependency_cycle(channel_dependency_graph(mesh, routing)).has_value();
}

}  // namespace pamr
