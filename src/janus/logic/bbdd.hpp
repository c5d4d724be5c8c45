#pragma once
/// \file bbdd.hpp
/// Biconditional binary decision diagrams (BBDDs): decision diagrams whose
/// levels branch on the *biconditional* of two adjacent variables
/// (x_i XOR x_{i+1}) instead of a single variable. They are the canonical
/// logic abstraction for controlled-polarity devices (SiNW / CNT
/// transistors), which De Micheli's introduction names as the reason EDA
/// "can no longer think in terms of NANDs, NORs and AOIs" (E12).
///
/// Semantics of an inner node at level i (0-based, variables x0..xn-1):
///   level i < n-1:  f = (x_i XOR x_{i+1}) ? f_neq : f_eq
///   level n-1:      f = x_{n-1} ? f_hi : f_lo        (Shannon tail)
/// Reduction and a unique table make the diagram canonical for a fixed
/// variable order, exactly as for ROBDDs.

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "janus/logic/truth_table.hpp"

namespace janus {

class Bbdd {
  public:
    using Ref = std::uint32_t;
    static constexpr Ref kFalse = 0;
    static constexpr Ref kTrue = 1;

    explicit Bbdd(int num_vars);

    int num_vars() const { return num_vars_; }

    /// Builds the canonical BBDD of a truth table.
    Ref from_truth_table(const TruthTable& tt);

    /// Inner nodes reachable from roots (shared nodes counted once).
    std::size_t count_nodes(const std::vector<Ref>& roots) const;

    /// Evaluates under an assignment (bit v = value of x_v).
    bool evaluate(Ref f, std::uint64_t assignment) const;

    std::size_t size() const { return nodes_.size() - 2; }

  private:
    struct Node {
        int level;  ///< branching level; terminals use num_vars_
        Ref neq;    ///< cofactor where x_level != x_{level+1} (or x=1 at tail)
        Ref eq;     ///< cofactor where x_level == x_{level+1} (or x=0 at tail)
    };

    int num_vars_;
    std::vector<Node> nodes_;
    std::unordered_map<std::uint64_t, Ref> unique_;
    /// Exact memo for from_truth_table, one map per level: table -> node.
    std::vector<std::unordered_map<TruthTable, Ref, TruthTableHash>> build_cache_;

    Ref make_node(int level, Ref neq, Ref eq);
    Ref build(const TruthTable& f, int level);
};

}  // namespace janus
