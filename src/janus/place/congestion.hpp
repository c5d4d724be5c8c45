#pragma once
/// \file congestion.hpp
/// Bin-based routing-congestion estimation from a placement: each net's
/// bounding box spreads demand over the bins it crosses; capacity comes
/// from the available routing layers. Used by the scan-reorder experiment
/// (E8).

#include <vector>

#include "janus/place/analytic_place.hpp"
#include "janus/netlist/technology.hpp"

namespace janus {

struct CongestionOptions {
    int routing_layers = 6;      ///< layers available for signal routing
};

struct CongestionMap {
    std::size_t bins = 0;
    std::vector<double> demand;    ///< per bin, in track-lengths
    std::vector<double> capacity;  ///< per bin
    double max_overflow = 0;       ///< max(demand/capacity) - 1, floored at 0
    double overflow_fraction = 0;  ///< fraction of bins over capacity
    double total_demand = 0;

    double utilization(std::size_t bx, std::size_t by) const {
        const std::size_t k = by * bins + bx;
        return capacity[k] > 0 ? demand[k] / capacity[k] : 0;
    }
};

/// Estimates congestion for a placed netlist.
CongestionMap estimate_congestion(const Netlist& nl, const PlacementArea& area,
                                  const TechnologyNode& node,
                                  const CongestionOptions& opts = {});

}  // namespace janus
