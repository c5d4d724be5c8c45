#pragma once
/// \file legalize.hpp
/// Tetris-style legalization: snaps globally-placed cells onto rows and
/// sites without overlap, minimizing displacement.

#include "janus/place/analytic_place.hpp"

namespace janus {

struct LegalizeResult {
    double total_displacement_um = 0;
    double max_displacement_um = 0;
    bool success = true;  ///< false if the die ran out of sites
};

/// Footprint width of instance `i` on `area`'s sites: its track width
/// rounded up to whole sites, at least one site. Every cell is one row
/// high.
std::int64_t cell_width_nm(const Netlist& nl, InstId i, const PlacementArea& area);

/// Legalizes all instances in place. Cells are processed in x order and
/// packed to the nearest feasible row position (the classic Tetris
/// heuristic).
LegalizeResult legalize(Netlist& nl, const PlacementArea& area);

/// True if no two cells overlap and all cells sit on row/site boundaries.
bool is_legal(const Netlist& nl, const PlacementArea& area);

}  // namespace janus
