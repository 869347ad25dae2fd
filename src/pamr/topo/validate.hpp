// Machine check of the per-topology virtual-channel deadlock-freedom
// argument. The routing checks themselves (validate_structure,
// check_comm_set) take any topology and live in routing/validate.hpp.
#pragma once

#include "pamr/routing/routing.hpp"
#include "pamr/topo/topology.hpp"

namespace pamr {
namespace topo {

/// Machine check of the topology's virtual-channel scheme on a concrete
/// routing: builds the channel dependency graph over (link, VC class)
/// vertices — hop h of a flow occupies class vc_classes(path)[h] — and
/// verifies it is globally acyclic (Dally & Seitz over the expanded graph,
/// which also covers the torus's cross-class dateline transitions). Returns
/// true iff no cyclic wait can form.
[[nodiscard]] bool verify_vc_acyclic(const Topology& topology,
                                     const Routing& routing);

}  // namespace topo
}  // namespace pamr
