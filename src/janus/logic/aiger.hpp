#pragma once
/// \file aiger.hpp
/// AIGER circuit reader: the interchange format of the hardware
/// model-checking and logic-synthesis communities (Biere's aiger toolkit,
/// ABC, the HWMCC benchmark sets). Both variants are read:
///
///   aag M I L O A   — ASCII: one decimal literal set per line
///   aig M I L O A   — binary: inputs/ands implicit, and-gate fanins
///                     delta-encoded as LEB128-style 7-bit groups
///
/// Literals are 2*var (+1 when complemented); variable 0 is constant
/// false. Latches carry a next-state literal and an optional reset value
/// (0/1, default 0 per the AIGER spec). The reader folds the file through
/// Aig::land(), so structural hashing and the constant/idempotence rules
/// apply transparently — the in-memory graph can be smaller than the
/// file's A count, and the literal map tracks it. Latch outputs enter the
/// Aig as extra inputs after the real ones and next-state functions as
/// extra cones, i.e. the classic combinational extraction; AigerDesign
/// keeps the boundary bookkeeping, and aig_netlist.hpp stitches DFFs back
/// around it for the physical flow. Symbol tables (i/l/o lines) and
/// comment sections are honored. Grammar notes: docs/IO.md.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "janus/logic/aig.hpp"

namespace janus {

/// One AIGER latch: combinationally extracted into the design Aig.
struct AigerLatch {
    std::string name;   ///< symbol-table name or "l<k>"
    AigLit next = 0;    ///< next-state function, a literal of AigerDesign::aig
    int reset = 0;      ///< 0/1 power-up value (AIGER default 0)
};

/// A parsed AIGER file. `aig` holds the combinational extraction: inputs
/// 0..num_inputs-1 are the file's real inputs, inputs num_inputs.. are the
/// latch outputs (current-state variables); aig.outputs() are the file's
/// real outputs. Latch next-state literals live in `latches`.
struct AigerDesign {
    Aig aig;
    std::string name;              ///< from the comment section or caller
    std::size_t num_inputs = 0;    ///< real primary inputs
    std::vector<AigerLatch> latches;
    std::size_t file_ands = 0;     ///< A from the header (>= aig.num_ands())

    bool sequential() const { return !latches.empty(); }
};

/// Parses either AIGER variant (dispatched on the `aag`/`aig` magic).
/// Binary payloads require a stream opened in binary mode —
/// read_aiger_file does this for you. Throws std::runtime_error with a
/// byte/line position on malformed or truncated input.
AigerDesign read_aiger(std::istream& is, const std::string& name = "aiger");

/// Opens `path` (binary mode) and parses it; the design name is the file
/// stem unless the comment section names it.
AigerDesign read_aiger_file(const std::string& path);

}  // namespace janus
