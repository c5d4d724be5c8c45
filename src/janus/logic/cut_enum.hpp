#pragma once
/// \file cut_enum.hpp
/// K-feasible cut enumeration on an AIG — the shared engine of the
/// technology mapper and the rewriting pass.

#include <cstdint>
#include <vector>

#include "janus/logic/aig.hpp"
#include "janus/logic/truth_table.hpp"

namespace janus {

/// One cut: a set of leaf nodes whose functions determine the root.
struct Cut {
    std::vector<std::uint32_t> leaves;  ///< sorted node indices
    std::uint64_t signature = 0;        ///< bloom-style subset filter

    bool trivial() const { return leaves.size() == 1; }
};

/// Per-node cut sets for a whole AIG.
struct CutSet {
    /// cuts[n] lists the cuts of node n; the first entry is always the
    /// trivial cut {n}.
    std::vector<std::vector<Cut>> cuts;
};

struct CutEnumOptions {
    int max_leaves = 4;  ///< K
    /// Exact cap on the cuts stored per node, *including* the leading
    /// trivial cut (so at most max_cuts_per_node - 1 non-trivial cuts
    /// survive). The list never exceeds this size at any point.
    int max_cuts_per_node = 8;
    /// Threads for the level-parallel enumeration sweep. Each node's cut
    /// set is a pure function of its fanins' (lower-level, frozen) cut
    /// sets, so the result is identical for any value; 1 = serial.
    int workers = 1;
};

/// Enumerates K-feasible cuts bottom-up with dominance pruning, one
/// Aig::and_levels() level at a time. Nodes of a level are processed
/// concurrently on a WorkerTeam of `opts.workers` and each writes only its
/// own cut list, so the output is byte-identical for any worker count.
CutSet enumerate_cuts(const Aig& aig, const CutEnumOptions& opts = {});

/// Reusable scratch for cut-function evaluation. Replaces the historical
/// per-call `unordered_map<node, TruthTable>` with flat cone-indexed
/// vectors: an epoch-stamped node->slot array (O(1) reset between cuts)
/// plus one flat word array holding every cone node's table, leaves first.
/// A cut of at most six leaves is one word per node, so evaluating it
/// allocates nothing once the scratch has grown. Construct once per
/// worker and call `evaluate` per cut; instances are not thread-safe but
/// independent instances may run concurrently on one shared Aig.
class CutConeEvaluator {
  public:
    explicit CutConeEvaluator(const Aig& aig);

    /// Truth table of `root` as a function of the cut leaves (leaf i of
    /// the sorted list is variable i). Cut size must be <= 16. Throws
    /// std::logic_error if the leaf set does not cover the cone.
    TruthTable evaluate(std::uint32_t root, const Cut& cut);

  private:
    const Aig& aig_;
    std::vector<std::uint32_t> slot_;   ///< node -> index into tables_
    std::vector<std::uint32_t> stamp_;  ///< slot_[n] valid iff stamp_[n] == epoch_
    std::uint32_t epoch_ = 0;
    std::vector<std::uint64_t> words_;  ///< slot s: words_[s*width, (s+1)*width)
    std::vector<std::uint32_t> cone_;   ///< AND nodes strictly inside the cut
    std::vector<std::uint32_t> stack_;
};

/// One-shot convenience wrapper around CutConeEvaluator for callers that
/// evaluate a single cut; loops should construct the evaluator themselves.
TruthTable cut_truth_table(const Aig& aig, std::uint32_t root, const Cut& cut);

}  // namespace janus
