#pragma once
/// \file clock_tree.hpp
/// Clock-tree synthesis: a recursive-bisection H-tree over the placed
/// sequential elements, with wirelength, insertion-delay and skew
/// estimates. Completes the implementation flow's clock story (the
/// panel's power discussions all assume a synthesized clock network).

#include <vector>

#include "janus/netlist/netlist.hpp"
#include "janus/netlist/technology.hpp"
#include "janus/util/geometry.hpp"

namespace janus {

/// One node of the synthesized tree.
struct ClockNode {
    Point tap;                 ///< physical location of this tree node
    int level = 0;             ///< 0 = root
    std::vector<int> children; ///< indices into ClockTree::nodes
    std::vector<InstId> leaves;///< flops driven directly (clusters only)
};

struct ClockTree {
    std::vector<ClockNode> nodes;  ///< node 0 is the root
    double total_wirelength_um = 0;
    double max_insertion_delay_ps = 0;
    double min_insertion_delay_ps = 0;
    int levels = 0;
    std::size_t buffers = 0;
    double skew_ps() const {
        return max_insertion_delay_ps - min_insertion_delay_ps;
    }
};

/// Builds the clock tree for all sequential instances of a placed design.
/// Returns an empty tree (no nodes) when the design has no flops.
ClockTree build_clock_tree(const Netlist& nl);

/// Clock-network power (mW): wire + buffer switching at full clock rate.
double clock_tree_power_mw(const ClockTree& tree, const TechnologyNode& node,
                           double frequency_mhz);

}  // namespace janus
