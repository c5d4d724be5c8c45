#pragma once
/// \file equivalence.hpp
/// Combinational equivalence checking. Exhaustive truth tables for designs
/// with few inputs, a SAT miter for wider ones and random simulation as a
/// falsifier when the SAT budget runs out — the verification step every
/// synthesis transform in JanusEDA is held to in tests.

#include <cstdint>
#include <optional>
#include <string>

#include "janus/netlist/netlist.hpp"

namespace janus {

struct EquivalenceResult {
    bool equivalent = false;
    /// "proved" (truth tables), "proved-sat" (miter UNSAT), or "sampled"
    /// (random vectors only; the SAT budget ran out).
    std::string method;
    /// A distinguishing input assignment when not equivalent (bit i =
    /// value of primary input i).
    std::optional<std::uint64_t> counterexample;
    std::size_t vectors_checked = 0;
};

struct EquivalenceOptions {
    /// SAT decision budget before falling back to random sampling.
    std::uint64_t sat_decisions = 200000;
    std::size_t random_vectors = 2048;
    std::uint64_t seed = 1;
};

/// Checks that two combinational netlists (same PI/PO count and order)
/// implement identical functions. Throws std::invalid_argument on
/// interface mismatch or sequential inputs.
EquivalenceResult check_equivalence(const Netlist& a, const Netlist& b,
                                    const EquivalenceOptions& opts = {});

}  // namespace janus
