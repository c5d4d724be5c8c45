#pragma once
/// \file bdd.hpp
/// Reduced ordered binary decision diagrams (Shannon expansion): the
/// AND/INV-era baseline representation in experiment E12. Equivalence
/// checking does not use them (equivalence.hpp compares truth tables and
/// runs a SAT miter).

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "janus/logic/truth_table.hpp"

namespace janus {

/// A BDD manager over a fixed variable count with the natural order
/// x0 < x1 < ... Nodes are referenced by index; 0 and 1 are the terminals.
class Bdd {
  public:
    using Ref = std::uint32_t;
    static constexpr Ref kFalse = 0;
    static constexpr Ref kTrue = 1;

    explicit Bdd(int num_vars);

    int num_vars() const { return num_vars_; }

    /// The function x_var.
    Ref var(int v);

    Ref land(Ref a, Ref b) { return ite(a, b, kFalse); }
    Ref lor(Ref a, Ref b) { return ite(a, kTrue, b); }
    Ref lnot(Ref a) { return ite(a, kFalse, kTrue); }
    Ref lxor(Ref a, Ref b) { return ite(a, lnot(b), b); }
    /// If-then-else — the universal BDD operator.
    Ref ite(Ref f, Ref g, Ref h);

    /// Builds the ROBDD of a truth table (exact, bottom-up).
    Ref from_truth_table(const TruthTable& tt);

    /// Number of inner nodes reachable from the given roots (terminals not
    /// counted, sharing across roots counted once).
    std::size_t count_nodes(const std::vector<Ref>& roots) const;

    /// Number of satisfying assignments over all num_vars variables.
    std::uint64_t sat_count(Ref f) const;

    /// Evaluates f under an assignment (bit v = value of variable v).
    bool evaluate(Ref f, std::uint64_t assignment) const;

    /// Total inner nodes ever created (allocation pressure metric).
    std::size_t size() const { return nodes_.size() - 2; }

  private:
    struct Node {
        int var;  ///< branching variable; terminals use num_vars_
        Ref lo;   ///< cofactor var=0
        Ref hi;   ///< cofactor var=1
    };

    int num_vars_;
    std::vector<Node> nodes_;
    std::unordered_map<std::uint64_t, Ref> unique_;
    std::unordered_map<std::uint64_t, Ref> ite_cache_;

    Ref make_node(int var, Ref lo, Ref hi);
    int var_of(Ref r) const { return nodes_[r].var; }
};

}  // namespace janus
