#pragma once
/// \file aig.hpp
/// And-Inverter Graph: the multi-level logic representation under the
/// JanusEDA synthesis flow. Nodes are two-input ANDs; edges carry an
/// optional complement. Structural hashing keeps the graph canonical as
/// it is built.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "janus/logic/truth_table.hpp"
#include "janus/netlist/netlist.hpp"

namespace janus {

/// A literal: AIG node index shifted left once, low bit = complemented.
using AigLit = std::uint32_t;

constexpr AigLit aig_lit(std::uint32_t node, bool complement) {
    return (node << 1) | static_cast<AigLit>(complement);
}
constexpr std::uint32_t aig_node(AigLit lit) { return lit >> 1; }
constexpr bool aig_is_complement(AigLit lit) { return lit & 1u; }
constexpr AigLit aig_not(AigLit lit) { return lit ^ 1u; }

class Aig {
  public:
    /// Node 0 is the constant-false node; literal 0 = const0, 1 = const1.
    Aig();

    static constexpr AigLit const0() { return 0; }
    static constexpr AigLit const1() { return 1; }

    /// Adds a primary input and returns its (positive) literal.
    AigLit add_input(std::string name = {});
    std::size_t num_inputs() const { return inputs_.size(); }
    /// Literal of input i.
    AigLit input(std::size_t i) const { return aig_lit(inputs_.at(i), false); }

    /// Complemented literal. With land() and the three after it, the Aig
    /// is a Boolean algebra that apply_function() (cell_library.hpp) builds
    /// cells through.
    static constexpr AigLit lnot(AigLit a) { return aig_not(a); }
    /// Structurally hashed AND with constant/idempotence simplification.
    AigLit land(AigLit a, AigLit b);
    AigLit lor(AigLit a, AigLit b) { return aig_not(land(aig_not(a), aig_not(b))); }
    AigLit lxor(AigLit a, AigLit b);
    AigLit lmux(AigLit sel, AigLit a, AigLit b);  ///< sel ? b : a
    AigLit lmaj(AigLit a, AigLit b, AigLit c);

    /// Registers an output.
    void add_output(std::string name, AigLit lit);
    const std::vector<std::pair<std::string, AigLit>>& outputs() const {
        return outputs_;
    }
    /// Replaces output o's literal (used by optimization passes).
    void set_output(std::size_t o, AigLit lit) { outputs_.at(o).second = lit; }

    /// Number of AND nodes (excludes constants and inputs).
    std::size_t num_ands() const;
    /// Total nodes including const and inputs.
    std::size_t num_nodes() const { return fanin0_.size(); }

    bool is_and(std::uint32_t node) const;
    bool is_input(std::uint32_t node) const;
    AigLit fanin0(std::uint32_t node) const { return fanin0_.at(node); }
    AigLit fanin1(std::uint32_t node) const { return fanin1_.at(node); }

    /// Depth (level) of every node; level of const/inputs is 0.
    std::vector<int> levels() const;
    /// Depth of the deepest output cone.
    int depth() const;
    /// AND nodes grouped by level, ascending id within a level: entry l
    /// holds the level l + 1 nodes (the constant and inputs are level 0).
    /// Every fanin of a node sits in an earlier entry, so one entry's nodes
    /// can be processed in any order once the earlier entries are done.
    std::vector<std::vector<std::uint32_t>> and_levels() const;

    /// Fanout count of every node (output references included).
    std::vector<std::uint32_t> fanout_counts() const;

    /// Nodes in topological order (fanins precede users); constants and
    /// inputs come first. All nodes are included, live or dead.
    std::vector<std::uint32_t> topological_order() const;

    /// Evaluates all outputs for one input assignment.
    std::vector<bool> simulate(const std::vector<bool>& input_values) const;

    /// Truth tables of all outputs; requires num_inputs() <= 16.
    std::vector<TruthTable> output_truth_tables() const;

    /// Copies only the logic reachable from outputs, re-hashing along the
    /// way (removes dead nodes and re-applies simplification rules).
    Aig cleanup() const;

    /// Builds an AIG from a combinational netlist (flops are not allowed;
    /// use the flow layer to cut sequential designs at register
    /// boundaries first). Input/output order matches the netlist.
    static Aig from_netlist(const Netlist& nl);

    /// Number of land() calls answered from the unique table (an existing
    /// node was returned instead of creating a new one). Simplification
    /// short-circuits (const/idempotence/complement) do not count.
    std::uint64_t strash_hits() const { return strash_hits_; }

    /// Total heap footprint: node arrays, the strash unique table, and
    /// input/output bookkeeping (name strings counted at capacity).
    std::size_t memory_bytes() const;

    const std::string& input_name(std::size_t i) const { return input_names_.at(i); }
    /// Renames input i / output o — used by the AIGER reader, whose symbol
    /// table arrives after the nodes it names (aiger.hpp).
    void set_input_name(std::size_t i, std::string name) {
        input_names_.at(i) = std::move(name);
    }
    void set_output_name(std::size_t o, std::string name) {
        outputs_.at(o).first = std::move(name);
    }

  private:
    // Parallel arrays per node. A node is an input iff fanin0 == kInputMark.
    static constexpr AigLit kInputMark = 0xFFFFFFFFu;
    std::vector<AigLit> fanin0_;
    std::vector<AigLit> fanin1_;
    std::vector<std::uint32_t> inputs_;
    std::vector<std::string> input_names_;
    std::vector<std::pair<std::string, AigLit>> outputs_;

    // Open-addressed strash unique table (boolector BtorAIGUniqueTable
    // style): power-of-two capacity, linear probing, grown at 50% load.
    // strash_keys_ holds the packed (min,max) literal pair; 0 is the empty
    // sentinel — safe because land() resolves any AND touching literal 0 or
    // 1 (const0/const1) by simplification before probing, so a stored key
    // always has both halves >= 2.
    std::vector<std::uint64_t> strash_keys_;
    std::vector<std::uint32_t> strash_values_;
    std::size_t strash_count_ = 0;
    std::uint64_t strash_hits_ = 0;

    std::uint32_t new_and_node(AigLit a, AigLit b);
    void strash_grow();
};

}  // namespace janus
