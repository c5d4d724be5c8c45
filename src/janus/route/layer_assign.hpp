#pragma once
/// \file layer_assign.hpp
/// Layer assignment: distributes 2-D global routes over the metal stack.
/// Horizontal segments go to H-preferred layers, vertical to V-preferred
/// layers, balancing per-layer usage; layer changes cost vias. Feeds the
/// layer-reduction cost experiment (E3).

#include <vector>

#include "janus/route/global_router.hpp"

namespace janus {

struct LayerAssignOptions {
    int routing_layers = 6;  ///< metal layers available to signals
};

struct LayerAssignResult {
    int layers_used = 0;
    std::size_t via_count = 0;
    std::size_t total_wirelength = 0;
    /// Demand beyond capacity summed over all (edge, layer) pairs.
    double layer_overflow = 0;
    /// Usage histogram per layer (total edge units assigned).
    std::vector<double> layer_usage;
    bool success() const { return layer_overflow == 0; }
};

/// Assigns every routed segment to layers. Layer 0 is M1-adjacent
/// (horizontal preferred); odd layers are vertical preferred.
LayerAssignResult assign_layers(const GlobalRouteResult& routes, int grid_w,
                                int grid_h, const LayerAssignOptions& opts = {});

}  // namespace janus
