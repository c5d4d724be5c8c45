#pragma once
/// \file tech_map.hpp
/// Cut-based technology mapping from an AIG into a standard-cell netlist.
/// Matching is exhaustive over input permutations and phases (inverter
/// absorption), selection is area-flow driven. `naive_map` is the
/// no-optimization baseline used by experiment E1.
///
/// The matching DP is eval-parallel per topological level (docs/SYNTH.md):
/// each node's cut truth tables and pattern lookups are pure given the
/// area-flow of its (lower-level, frozen) leaves, so each level fans out on
/// a WorkerTeam and the netlist emission stays serial. Output is
/// byte-identical for any worker count.

#include <cstdint>
#include <memory>

#include "janus/logic/aig.hpp"
#include "janus/netlist/netlist.hpp"

namespace janus {

struct TechMapOptions {
    /// Threads for cut enumeration and the level-parallel matching sweep;
    /// byte-identical output for any value. 1 = serial.
    int workers = 1;
};

struct TechMapStats {
    std::uint64_t cuts_evaluated = 0;  ///< non-trivial cuts truth-table'd
    std::uint64_t matched_cuts = 0;    ///< cuts with a library pattern
    int workers = 1;
};

/// Maps `aig` onto `lib`. The result is a valid netlist whose primary
/// input/output names and order match the AIG's, logically equivalent to
/// it (verified in tests by exhaustive/random simulation).
Netlist tech_map(const Aig& aig, std::shared_ptr<const CellLibrary> lib,
                 const TechMapOptions& opts = {}, TechMapStats* stats = nullptr);

/// Baseline mapping: one AND2 cell per AIG node plus explicit inverters on
/// complemented edges. No sharing-aware matching, no multi-input cells.
Netlist naive_map(const Aig& aig, std::shared_ptr<const CellLibrary> lib);

}  // namespace janus
