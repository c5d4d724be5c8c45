#pragma once
/// \file io.hpp
/// Serialization of gate-level netlists in the JanusEDA structural text
/// format (.jnl) — a small single-driver structural subset equivalent to
/// structural Verilog. The format is line oriented:
///
///   design <name>
///   input <pi_name> <net>      # one per primary input, in order
///   inst <name> <cell> <out> <in0> <in1> ...
///   output <po_name> <net>
///
/// Every `input` line carries both the port name and its net token — the
/// historical one-token `input <pi_name>` form was never emitted by
/// write_netlist and is rejected with a clear error — and no two `input`
/// lines share a port name. Nets are referenced
/// as n<id> by the writer; the reader accepts any identifier. Nets are
/// created only by their drivers (`input` lines and `inst` outputs), so a
/// parsed netlist has exactly one net per PI plus one per instance — no
/// helper nets are left behind and parse(write(nl)) preserves the net
/// count (docs/IO.md).

#include <iosfwd>
#include <memory>
#include <string>

#include "janus/netlist/netlist.hpp"

namespace janus {

/// Writes `nl` to a stream in .jnl format.
void write_netlist(std::ostream& os, const Netlist& nl);

/// Convenience: .jnl text of a netlist.
std::string netlist_to_string(const Netlist& nl);

/// Parses a .jnl stream into a netlist over `lib`. Every cell referenced
/// must exist in the library. Throws std::runtime_error on malformed input.
/// Reads the stream whole, then parses it like netlist_from_string.
Netlist read_netlist(std::istream& is, std::shared_ptr<const CellLibrary> lib);

/// Parses .jnl text in place, in one pass (docs/IO.md).
Netlist netlist_from_string(const std::string& text,
                            std::shared_ptr<const CellLibrary> lib);

/// Writes instance placements as "place <instance> <x_nm> <y_nm>" lines
/// (unplaced instances are skipped) — the .jpl companion of the .jnl
/// netlist.
void write_placement(std::ostream& os, const Netlist& nl);

/// Applies a placement file to a netlist (matching by instance name).
/// Returns the number of instances placed; unknown names throw.
std::size_t read_placement(std::istream& is, Netlist& nl);

}  // namespace janus
