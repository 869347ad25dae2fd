// Deadlock analysis for Manhattan routings.
//
// The paper assumes "a deadlock avoidance technique is used (such as
// resource ordering [Gunther 81] or escape channels [Duato 93])" (§1).
// This module supplies that substrate:
//
//  * channel_dependency_graph / has_deadlock_risk — Dally & Seitz's
//    criterion: a deterministic routing is deadlock-free iff its channel
//    dependency graph (links as vertices, an edge when some packet may hold
//    one link while requesting the next) is acyclic. XY routing is acyclic
//    by the turn argument; general Manhattan routings are NOT — four
//    staircase paths, one per quadrant, can close a cycle.
//
//  * the quadrant virtual channels — the resource-ordering fix: give every
//    flow the virtual channel of its quadrant. Within one quadrant all
//    paths are monotone in the same two directions, so every hop strictly
//    increases the quadrant's diagonal index and no cyclic wait can form;
//    across quadrants the channels are disjoint. Hence ANY Manhattan
//    routing is deadlock-free with 4 virtual channels (per physical link).
//    Mesh::vc_classes assigns these classes.
//
//  * verify_vc_acyclic — the machine check of any topology's VC scheme
//    (Topology::vc_classes: the quadrant classes on rect and diag, the
//    dateline-bumped classes on the torus) on a concrete routing, over the
//    CDG of (link, class) pairs.
//
// Every entry takes a topo::Topology, so a Mesh and the torus/diag
// topologies are analysed by the same code.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "pamr/routing/routing.hpp"
#include "pamr/topo/topology.hpp"

namespace pamr {

/// Adjacency list over links: edge (a → b) when some flow's path traverses
/// link a immediately followed by link b (the packet can hold a while
/// waiting for b). Each link's edges are deduplicated, ascending.
using ChannelDependencyGraph = std::vector<std::vector<LinkId>>;

[[nodiscard]] ChannelDependencyGraph channel_dependency_graph(
    const topo::Topology& topology, const Routing& routing);

/// A cycle in the CDG (as a link sequence, first link repeated at the end),
/// or nullopt if the graph is acyclic — i.e. the routing is deadlock-free
/// on a single channel per link.
[[nodiscard]] std::optional<std::vector<LinkId>> find_dependency_cycle(
    const ChannelDependencyGraph& graph);

/// Convenience wrapper: true iff the routing can deadlock without VCs.
[[nodiscard]] bool has_deadlock_risk(const topo::Topology& topology,
                                     const Routing& routing);

/// Machine check of the topology's virtual-channel scheme on a concrete
/// routing: builds the channel dependency graph over (link, VC class)
/// vertices — hop h of a flow occupies class vc_classes(path)[h] — and
/// verifies it is globally acyclic (Dally & Seitz over the expanded graph,
/// which also covers the torus's cross-class dateline transitions). Returns
/// true iff no cyclic wait can form.
[[nodiscard]] bool verify_vc_acyclic(const topo::Topology& topology,
                                     const Routing& routing);

}  // namespace pamr
