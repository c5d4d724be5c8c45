#include "janus/logic/aig_rewrite.hpp"

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "janus/logic/aig_balance.hpp"
#include "janus/logic/cut_enum.hpp"
#include "janus/logic/sop_cache.hpp"
#include "janus/util/thread_pool.hpp"

namespace janus {
namespace {

/// Pure evaluation result of one non-trivial cut: everything the serial
/// commit phase needs to build the candidate, computed concurrently.
struct CutEval {
    Cover cover;            ///< minimized cover of the chosen phase
    bool use_off = false;   ///< build the OFF-phase cover, invert the output
    bool const0 = false;
    bool const1 = false;
    int est_nodes = 0;      ///< sharing-free upper bound on AND nodes needed
};

/// Sharing-free upper bound on the AND nodes build_sop adds for `cov`:
/// (literals - 1) per cube chained with (cubes - 1) ORs. Structural
/// hashing in the output AIG only ever lowers the real count.
int sop_node_estimate(const Cover& cov) {
    int est = static_cast<int>(cov.size()) - 1;
    for (const Cube& c : cov.cubes()) est += std::max(0, c.num_literals() - 1);
    return std::max(0, est);
}

/// Pure per-cut evaluation: both phases minimized through the memo cache,
/// then the cheaper phase chosen with the deterministic tie-break.
CutEval evaluate_cut(const TruthTable& tt, SopCache& cache, SopCache::Stats& tally) {
    CutEval e;
    if (tt.is_constant(false)) {
        e.const0 = true;
        return e;
    }
    if (tt.is_constant(true)) {
        e.const1 = true;
        return e;
    }
    // Both phases are read in place from the memo; only the chosen one is
    // copied out.
    Cover on_scratch, off_scratch;
    const Cover& on = cache.minimized(tt, on_scratch, tally);
    const Cover& off = cache.minimized(~tt, off_scratch, tally);
    e.use_off = sop_prefers_off_phase(on, off);
    e.cover = e.use_off ? off : on;
    e.est_nodes = sop_node_estimate(e.cover);
    return e;
}

/// Builds the pre-minimized SOP of an evaluated cut into `aig` over the
/// given leaf literals. Returns the output literal.
AigLit build_sop(Aig& aig, const CutEval& eval, const std::vector<AigLit>& leaves) {
    if (eval.const0) return Aig::const0();
    if (eval.const1) return Aig::const1();
    AigLit result = Aig::const0();
    bool first = true;
    for (const Cube& c : eval.cover.cubes()) {
        AigLit prod = Aig::const1();
        for (int v = 0; v < c.num_vars(); ++v) {
            const Literal l = c.get(v);
            if (l == Literal::DC) continue;
            const AigLit leaf = leaves[static_cast<std::size_t>(v)];
            prod = aig.land(prod, l == Literal::Pos ? leaf : aig_not(leaf));
        }
        result = first ? prod : aig.lor(result, prod);
        first = false;
    }
    return eval.use_off ? aig_not(result) : result;
}

}  // namespace

bool sop_prefers_off_phase(const Cover& on, const Cover& off) {
    const std::size_t cost_on =
        on.size() * 4 + static_cast<std::size_t>(on.num_literals());
    const std::size_t cost_off =
        off.size() * 4 + static_cast<std::size_t>(off.num_literals());
    // Strict '<': an equal-cost tie deterministically keeps the ON-phase.
    return cost_off < cost_on;
}

std::vector<int> mffc_sizes(const Aig& aig, MffcStats* stats) {
    std::vector<int> mffc(aig.num_nodes(), 0);
    const auto base_refs = aig.fanout_counts();
    // One scratch refcount array reused across every trial dereference: an
    // entry holds a trial value only while its stamp matches the current
    // epoch, so "resetting" between nodes is a single counter increment
    // instead of the historical full-array copy per node.
    std::vector<std::uint32_t> refs(aig.num_nodes(), 0);
    std::vector<std::uint32_t> stamp(aig.num_nodes(), 0);
    std::uint32_t epoch = 0;
    MffcStats local;
    std::vector<std::uint32_t> stack;
    for (const std::uint32_t n : aig.topological_order()) {
        if (!aig.is_and(n)) continue;
        ++epoch;
        int size = 0;
        stack.clear();
        stack.push_back(n);
        while (!stack.empty()) {
            const std::uint32_t node = stack.back();
            stack.pop_back();
            ++size;
            ++local.cone_visits;
            for (const AigLit f : {aig.fanin0(node), aig.fanin1(node)}) {
                const std::uint32_t fn = aig_node(f);
                if (!aig.is_and(fn)) continue;
                const std::uint32_t r =
                    (stamp[fn] == epoch ? refs[fn] : base_refs[fn]) - 1;
                refs[fn] = r;
                stamp[fn] = epoch;
                ++local.scratch_writes;
                if (r == 0) stack.push_back(fn);
            }
        }
        mffc[n] = size;
    }
    if (stats) *stats = local;
    return mffc;
}

Aig refactor(const Aig& aig, const RewriteOptions& opts, RewriteStats* stats,
             SopCache* cache) {
    constexpr int kCutSize = 5;  // leaves per refactoring cut
    // Exact per-node cut cap, trivial cut included (cut_enum.hpp).
    constexpr int kMaxCutsPerNode = 6;
    const int workers = std::max(1, opts.workers);
    CutEnumOptions ce;
    ce.max_leaves = kCutSize;
    ce.max_cuts_per_node = kMaxCutsPerNode;
    ce.workers = workers;
    const CutSet cuts = enumerate_cuts(aig, ce);
    MffcStats mffc_stats;
    const std::vector<int> mffc = mffc_sizes(aig, &mffc_stats);

    std::optional<SopCache> local_cache;
    if (!cache) cache = &local_cache.emplace(opts.use_sop_cache);

    Aig out;
    std::vector<AigLit> remap(aig.num_nodes(), 0);
    for (std::size_t i = 0; i < aig.num_inputs(); ++i) {
        remap[aig_node(aig.input(i))] = out.add_input(aig.input_name(i));
    }

    WorkerTeam team(workers);
    std::vector<CutConeEvaluator> evaluators;
    evaluators.reserve(team.slots());
    for (std::size_t s = 0; s < team.slots(); ++s) evaluators.emplace_back(aig);
    // The cache may be shared with other passes and jobs, so this pass
    // counts its own queries, one tally per slot.
    std::vector<SopCache::Stats> tallies(team.slots());

    std::uint64_t cuts_evaluated = 0;
    int replacements = 0;
    std::vector<std::vector<CutEval>> level_evals;
    std::vector<AigLit> leaves;

    // Evaluation (truth table + minimized covers + estimate) is pure
    // against the frozen input AIG, so one level's nodes evaluate
    // concurrently; construction into the output AIG and the best-candidate
    // commit then run serially in level order, which pins the result for
    // any worker count.
    for (const auto& nodes : aig.and_levels()) {
        // ---- eval-parallel phase (pure, reads only the input AIG) ----
        level_evals.assign(nodes.size(), {});
        team.for_each(nodes.size(), [&](std::size_t i, std::size_t slot) {
            const std::uint32_t n = nodes[i];
            const auto& node_cuts = cuts.cuts[n];
            auto& evals = level_evals[i];
            evals.reserve(node_cuts.size());
            for (const Cut& cut : node_cuts) {
                if (cut.trivial()) {
                    evals.emplace_back();  // placeholder keeps indices aligned
                    continue;
                }
                evals.push_back(evaluate_cut(evaluators[slot].evaluate(n, cut),
                                             *cache, tallies[slot]));
            }
        });

        // ---- commit-serial phase (level order, ascending id) ----
        for (std::size_t i = 0; i < nodes.size(); ++i) {
            const std::uint32_t n = nodes[i];
            // Default: direct copy.
            const AigLit direct =
                out.land(remap[aig_node(aig.fanin0(n))] ^ (aig.fanin0(n) & 1u),
                         remap[aig_node(aig.fanin1(n))] ^ (aig.fanin1(n) & 1u));
            remap[n] = direct;

            // Try SOP refactorings of non-trivial cuts; keep the best that
            // beats the MFFC cost.
            AigLit best = direct;
            // Gain of the direct copy is zero by definition; a candidate
            // must add fewer nodes than the MFFC it releases.
            int best_gain = 0;
            const auto& node_cuts = cuts.cuts[n];
            for (std::size_t ci = 0; ci < node_cuts.size(); ++ci) {
                const Cut& cut = node_cuts[ci];
                if (cut.trivial()) continue;
                ++cuts_evaluated;
                leaves.clear();
                leaves.reserve(cut.leaves.size());
                bool leaves_ok = true;
                for (const std::uint32_t l : cut.leaves) {
                    // A leaf must already be mapped (true for topo order).
                    if (l >= remap.size()) {
                        leaves_ok = false;
                        break;
                    }
                    leaves.push_back(remap[l]);
                }
                if (!leaves_ok) continue;
                const std::size_t before = out.num_nodes();
                const AigLit cand = build_sop(out, level_evals[i][ci], leaves);
                // Rebuilding the node's own structure (strash hit on the
                // direct copy) releases nothing — it must not claim the
                // MFFC gain.
                if (cand == direct) continue;
                const int added = static_cast<int>(out.num_nodes() - before);
                const int gain = mffc[n] - added;
                if (gain > best_gain) {
                    best_gain = gain;
                    best = cand;
                }
            }
            if (best != direct) {
                remap[n] = best;
                ++replacements;
            }
        }
    }

    for (const auto& [name, lit] : aig.outputs()) {
        out.add_output(name, remap[aig_node(lit)] ^ (lit & 1u));
    }
    Aig cleaned = out.cleanup();
    if (stats) {
        SopCache::Stats memo;
        for (const SopCache::Stats& t : tallies) {
            memo.hits += t.hits;
            memo.misses += t.misses;
            memo.espresso_calls += t.espresso_calls;
        }
        stats->nodes_before = aig.num_ands();
        stats->nodes_after = cleaned.num_ands();
        stats->replacements = replacements;
        stats->cuts_evaluated = cuts_evaluated;
        stats->memo_hits = memo.hits;
        stats->memo_misses = memo.misses;
        stats->espresso_calls = memo.espresso_calls;
        stats->mffc_cone_visits = mffc_stats.cone_visits;
        stats->workers = workers;
    }
    return cleaned;
}

Aig optimize(const Aig& aig, int rounds, const RewriteOptions& opts,
             RewriteStats* stats, SopCache* cache) {
    const auto better = [](const Aig& a, const Aig& b) {
        return a.num_ands() < b.num_ands() ||
               (a.num_ands() == b.num_ands() && a.depth() < b.depth());
    };
    // One memo cache across all rounds: later rounds re-minimize mostly
    // functions the first round already materialized.
    std::optional<SopCache> local_cache;
    if (!cache) cache = &local_cache.emplace(opts.use_sop_cache);
    if (stats) {
        *stats = RewriteStats{};
        stats->nodes_before = aig.num_ands();
        stats->workers = std::max(1, opts.workers);
    }
    Aig best = aig.cleanup();
    for (int r = 0; r < rounds; ++r) {
        bool improved = false;
        // Balance is size-neutral and depth-reducing: keep it whenever it
        // helps, independently of the refactoring step.
        Aig balanced = balance(best);
        if (better(balanced, best)) {
            best = std::move(balanced);
            improved = true;
        }
        RewriteStats round_stats;
        Aig candidate = balance(refactor(best, opts, &round_stats, cache));
        if (stats) {
            stats->replacements += round_stats.replacements;
            stats->cuts_evaluated += round_stats.cuts_evaluated;
            stats->memo_hits += round_stats.memo_hits;
            stats->memo_misses += round_stats.memo_misses;
            stats->espresso_calls += round_stats.espresso_calls;
            stats->mffc_cone_visits += round_stats.mffc_cone_visits;
        }
        if (better(candidate, best)) {
            best = std::move(candidate);
            improved = true;
        }
        if (!improved) break;
    }
    if (stats) stats->nodes_after = best.num_ands();
    return best;
}

}  // namespace janus
