#pragma once
/// \file aig_netlist.hpp
/// Bridge from parsed AIGER designs to the gate-level Netlist the physical
/// flow consumes (one direction only: nothing turns a netlist into AIGER).
///
///   netlist_from_aiger : AigerDesign -> Netlist. AND nodes become AND2
///   instances, complemented literals memoized INV instances, latches DFF
///   instances stitched back around the combinational extraction (the
///   D pin gets the next-state cone, the Q net feeds everything that read
///   the latch output). The result runs synth -> place -> route -> STA
///   unmodified; scenario::load_design reads `.aag`/`.aig` files through it.
///
/// The Netlist does not model reset state (the flow is timing-driven): a
/// reset=1 latch maps to a plain DFF like any other, and a caller that
/// simulates the result starts its state vector from the latches' resets.

#include <memory>

#include "janus/logic/aiger.hpp"
#include "janus/netlist/cell_library.hpp"
#include "janus/netlist/netlist.hpp"

namespace janus {

/// Instantiates `design` over `lib` (needs AND2, INV, DFF; BUF and
/// constant cells for degenerate outputs). Throws std::runtime_error if
/// the library lacks a required function.
Netlist netlist_from_aiger(const AigerDesign& design,
                           std::shared_ptr<const CellLibrary> lib);

}  // namespace janus
