#pragma once
/// \file aig_netlist.hpp
/// Bridge between parsed AIGER designs and the gate-level Netlist the
/// physical flow consumes, in both directions:
///
///   netlist_from_aiger : AigerDesign -> Netlist. AND nodes become AND2
///   instances, complemented literals memoized INV instances, latches DFF
///   instances stitched back around the combinational extraction (the
///   D pin gets the next-state cone, the Q net feeds everything that read
///   the latch output). The result runs synth -> place -> route -> STA
///   unmodified.
///
///   aiger_from_netlist : Netlist -> AigerDesign. Every combinational cell
///   function folds into Aig::land()/lor()/lxor() terms; DFF/SCAN_DFF cut
///   the graph (SCAN_DFF's next state keeps the full se ? si : d mux
///   semantics so the export stays cycle-accurate for scan designs).
///   Composing the two directions is the basis of the cross-format
///   equivalence tests in tests/ingest_test.cpp.
///
/// Latch power-up values survive the round-trip inside AigerDesign, but
/// the Netlist itself does not model reset state (the flow is
/// timing-driven); a reset=1 latch maps to a plain DFF like any other.

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

/// Exports any netlist (combinational or sequential) as an AIGER design:
/// cells fold into AND/INV structure, sequential cells become latches.
/// Input, output and latch order follow primary_inputs() /
/// primary_outputs() / sequential_instances() order.
AigerDesign aiger_from_netlist(const Netlist& nl);

}  // namespace janus
