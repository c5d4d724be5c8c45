#pragma once
/// \file floorplan.hpp
/// Slicing-tree floorplanning with simulated annealing over normalized
/// Polish expressions (Wong-Liu). Blocks are soft: each may realize any
/// of a small set of aspect ratios. Models the "automatic floorplan"
/// capability Rossi asks for; no flow stage calls it (run_hier_flow tiles
/// its blocks on a grid of its own).

#include <cstdint>
#include <string>
#include <vector>

#include "janus/util/geometry.hpp"
#include "janus/util/rng.hpp"

namespace janus {

/// One floorplan block (a macro or a cluster of standard cells).
struct Block {
    std::string name;
    double area_um2 = 0;
    double min_aspect = 0.5;  ///< height/width lower bound
    double max_aspect = 2.0;
    /// Connectivity: weights to other blocks (by index); used in the
    /// wirelength term of the cost.
    std::vector<std::pair<std::size_t, double>> connections;
};

struct FloorplanOptions {
    double wirelength_weight = 0.1;  ///< lambda in cost = area + lambda * WL
    int aspect_steps = 3;            ///< aspect ratios tried per block
    int moves_per_temperature = 200;
    double initial_temperature = 1.0;
    double cooling = 0.92;
    double final_temperature = 1e-3;
    std::uint64_t seed = 1;
};

struct PlacedBlock {
    Rect rect;  ///< position in nm
};

struct FloorplanResult {
    std::vector<PlacedBlock> blocks;  ///< same order as the input
    Rect bounding_box;
    double area_um2 = 0;        ///< bounding box area
    double utilization = 0;     ///< sum(block areas) / bbox area
    double wirelength_um = 0;   ///< weighted center-to-center HPWL
};

/// Floorplans the blocks; result rectangles do not overlap and respect
/// each block's area at one of its candidate aspect ratios.
FloorplanResult floorplan(const std::vector<Block>& blocks,
                          const FloorplanOptions& opts = {});

}  // namespace janus
