#include "janus/logic/cut_enum.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "janus/util/thread_pool.hpp"

namespace janus {
namespace {

std::uint64_t signature_of(const std::vector<std::uint32_t>& leaves) {
    std::uint64_t s = 0;
    for (const auto l : leaves) s |= (1ull << (l % 64));
    return s;
}

/// a dominates b if a's leaves are a subset of b's (a is the better cut).
bool dominates(const Cut& a, const Cut& b) {
    if (a.leaves.size() > b.leaves.size()) return false;
    if ((a.signature & ~b.signature) != 0) return false;
    return std::includes(b.leaves.begin(), b.leaves.end(), a.leaves.begin(),
                         a.leaves.end());
}

/// Merges two sorted leaf sets; returns false if the union exceeds k.
bool merge_leaves(const std::vector<std::uint32_t>& a,
                  const std::vector<std::uint32_t>& b, int k,
                  std::vector<std::uint32_t>& out) {
    out.clear();
    std::size_t i = 0, j = 0;
    while (i < a.size() || j < b.size()) {
        std::uint32_t next;
        if (j >= b.size() || (i < a.size() && a[i] <= b[j])) {
            next = a[i];
            if (j < b.size() && b[j] == next) ++j;
            ++i;
        } else {
            next = b[j];
            ++j;
        }
        out.push_back(next);
        if (static_cast<int>(out.size()) > k) return false;
    }
    return true;
}

/// The trivial cut {n}, which heads every node's cut list.
Cut trivial_cut(std::uint32_t n) {
    Cut triv;
    triv.leaves = {n};
    triv.signature = signature_of(triv.leaves);
    return triv;
}

/// Computes AND node n's full cut list from its fanins' (already complete)
/// lists. Pure per node given those inputs, which is what makes the
/// level-parallel sweep deterministic.
void compute_node_cuts(const Aig& aig, const CutEnumOptions& opts, CutSet& cs,
                       std::uint32_t n, std::vector<std::uint32_t>& merged) {
    auto& node_cuts = cs.cuts[n];
    node_cuts.push_back(trivial_cut(n));
    const std::uint32_t f0 = aig_node(aig.fanin0(n));
    const std::uint32_t f1 = aig_node(aig.fanin1(n));
    for (const Cut& c0 : cs.cuts[f0]) {
        for (const Cut& c1 : cs.cuts[f1]) {
            if (!merge_leaves(c0.leaves, c1.leaves, opts.max_leaves, merged)) {
                continue;
            }
            Cut cand;
            cand.leaves = merged;
            cand.signature = signature_of(cand.leaves);
            // Dominance filtering against existing cuts.
            bool dominated = false;
            for (const Cut& ex : node_cuts) {
                if (!ex.trivial() && dominates(ex, cand)) {
                    dominated = true;
                    break;
                }
            }
            if (dominated) continue;
            std::erase_if(node_cuts, [&](const Cut& ex) {
                return !ex.trivial() && dominates(cand, ex);
            });
            // Exact cap, trivial cut included: the list never exceeds
            // max_cuts_per_node (the old `<=` guard let it reach max + 1).
            if (static_cast<int>(node_cuts.size()) < opts.max_cuts_per_node) {
                node_cuts.push_back(std::move(cand));
            }
        }
    }
}

}  // namespace

CutSet enumerate_cuts(const Aig& aig, const CutEnumOptions& opts) {
    CutSet cs;
    cs.cuts.resize(aig.num_nodes());
    for (std::uint32_t n = 0; n < aig.num_nodes(); ++n) {
        if (!aig.is_and(n)) cs.cuts[n].push_back(trivial_cut(n));
    }
    // Level sweep: a node's cuts depend only on its fanins, which sit on
    // strictly lower levels, so each level's nodes are independent and
    // write only their own per-node slots.
    WorkerTeam team(opts.workers);
    std::vector<std::vector<std::uint32_t>> merged(team.slots());
    for (const auto& nodes : aig.and_levels()) {
        team.for_each(nodes.size(), [&](std::size_t i, std::size_t slot) {
            compute_node_cuts(aig, opts, cs, nodes[i], merged[slot]);
        });
    }
    return cs;
}

// ------------------------------------------------------ cone evaluation

CutConeEvaluator::CutConeEvaluator(const Aig& aig)
    : aig_(aig),
      slot_(aig.num_nodes(), 0),
      stamp_(aig.num_nodes(), 0) {}

TruthTable CutConeEvaluator::evaluate(std::uint32_t root, const Cut& cut) {
    const int k = static_cast<int>(cut.leaves.size());
    if (k > 16) throw std::invalid_argument("cut_truth_table: cut too large");
    // Every table is `width` words; complementing flips the minterms a
    // k-variable table uses.
    const std::size_t width = k <= 6 ? 1 : std::size_t{1} << (k - 6);
    const std::uint64_t used = k >= 6 ? ~0ull : (1ull << (1u << k)) - 1;
    ++epoch_;
    words_.clear();
    std::uint32_t slots = 0;
    for (int i = 0; i < k; ++i) {
        const std::uint32_t leaf = cut.leaves[static_cast<std::size_t>(i)];
        slot_[leaf] = slots++;
        stamp_[leaf] = epoch_;
        const TruthTable var = TruthTable::variable(k, i);
        words_.insert(words_.end(), var.words().begin(), var.words().end());
    }

    if (stamp_[root] != epoch_) {
        // Collect the cone between leaves and root, then evaluate it in
        // index order (AIG indices are topological, so sorting ascending is
        // a valid schedule and fanins always resolve to an earlier slot).
        cone_.clear();
        stack_.clear();
        stack_.push_back(root);
        while (!stack_.empty()) {
            const std::uint32_t n = stack_.back();
            stack_.pop_back();
            if (stamp_[n] == epoch_) continue;  // leaf or already collected
            if (!aig_.is_and(n)) {
                if (n == 0) {
                    // Constant node reached below the leaves.
                    slot_[n] = slots++;
                    stamp_[n] = epoch_;
                    words_.insert(words_.end(), width, 0);
                    continue;
                }
                throw std::logic_error("cut_truth_table: leaf set does not cover cone");
            }
            stamp_[n] = epoch_;
            cone_.push_back(n);
            stack_.push_back(aig_node(aig_.fanin0(n)));
            stack_.push_back(aig_node(aig_.fanin1(n)));
        }
        std::sort(cone_.begin(), cone_.end());
        for (const std::uint32_t n : cone_) {
            const AigLit l0 = aig_.fanin0(n);
            const AigLit l1 = aig_.fanin1(n);
            const std::size_t a = slot_[aig_node(l0)] * width;
            const std::size_t b = slot_[aig_node(l1)] * width;
            const std::uint64_t inv0 = aig_is_complement(l0) ? used : 0;
            const std::uint64_t inv1 = aig_is_complement(l1) ? used : 0;
            slot_[n] = slots++;
            words_.resize(words_.size() + width);
            const std::size_t out = slot_[n] * width;
            for (std::size_t j = 0; j < width; ++j) {
                words_[out + j] = (words_[a + j] ^ inv0) & (words_[b + j] ^ inv1);
            }
        }
    }
    return TruthTable::from_words(
        k, std::span<const std::uint64_t>(words_).subspan(slot_[root] * width, width));
}

TruthTable cut_truth_table(const Aig& aig, std::uint32_t root, const Cut& cut) {
    CutConeEvaluator evaluator(aig);
    return evaluator.evaluate(root, cut);
}

}  // namespace janus
