#pragma once
/// \file analytic_place.hpp
/// Global placement: quadratic wirelength minimization over a star net
/// model (one auxiliary variable per net), solved per axis by
/// Jacobi-preconditioned conjugate gradients, alternated with spreading by
/// recursive median bisection and anchored re-solves (SimPL style). On
/// large designs the first, unanchored solve runs coarse to fine over an
/// aggregation hierarchy of the star-model system (docs/PLACE.md); a system
/// of at most 2,000 variables is solved on its own. This is the throughput
/// path used for large designs (E5).

#include <cstdint>

#include "janus/netlist/netlist.hpp"
#include "janus/netlist/technology.hpp"
#include "janus/util/geometry.hpp"

namespace janus {

/// Die/row geometry derived from the design.
struct PlacementArea {
    Rect die;                  ///< in nm
    std::int64_t row_height = 0;  ///< nm
    std::int64_t site_width = 0;  ///< nm
    int num_rows = 0;
};

/// Computes a square die sized for `utilization` and builds the row grid.
PlacementArea make_placement_area(const Netlist& nl, const TechnologyNode& node,
                                  double utilization = 0.7);

struct AnalyticPlaceOptions {
    /// Cap on each CG solve: the unanchored solve on the coarsest level,
    /// and max(5, cap/4) for each anchored re-solve.
    int solver_iterations = 300;
    int spreading_iterations = 12;
    std::uint64_t seed = 1;
};

struct PlaceQuality {
    double hpwl_um = 0;       ///< total half-perimeter wirelength
    double runtime_ms = 0;    ///< wall time of the placement call
    int levels = 1;           ///< levels of the solver hierarchy (1: never coarsened)
    /// CG iterations run on the star model itself, summed over both axes
    /// and every solve.
    std::int64_t fine_iterations = 0;
};

/// Places all instances of `nl` inside `area` (positions written into the
/// netlist; `placed` set). Primary I/O is modeled as fixed pads spread
/// around the die boundary.
PlaceQuality analytic_place(Netlist& nl, const PlacementArea& area,
                            const AnalyticPlaceOptions& opts = {});

/// Total HPWL of all nets (um) using instance positions and boundary pads.
double total_hpwl_um(const Netlist& nl, const PlacementArea& area);

/// Boundary pad location for primary input `k` of `n_in` (west edge, top
/// to bottom) or primary output `k` of `n_out` (east edge). All placement
/// and timing code shares this assignment.
Point input_pad_position(const Rect& die, std::size_t k, std::size_t n_in);
Point output_pad_position(const Rect& die, std::size_t k, std::size_t n_out);

}  // namespace janus
