#pragma once
/// \file aig_rewrite.hpp
/// Cut-based refactoring: each node's cut function is re-synthesized from
/// a minimized SOP (via the Espresso engine) and the replacement is kept
/// when it uses fewer AND nodes than the node's maximum fanout-free cone.
/// Combined with balancing this is the JanusEDA equivalent of the
/// synthesis-quality gains the panel credits to the last EDA decade (E1).
///
/// The pass is an eval-parallel / commit-serial engine (docs/SYNTH.md):
/// the pure per-cut work — truth table, memoized Espresso covers, node
/// estimate — runs concurrently per Aig::and_levels() level on a
/// WorkerTeam against the frozen input AIG, while candidate construction
/// and best-replacement commits stay serial in level order. Output is
/// byte-identical for any worker count and with the SOP memo cache on or
/// off, cold or warm (the same contract the place, route and timing
/// workers carry).

#include <cstdint>

#include "janus/logic/aig.hpp"
#include "janus/logic/cover.hpp"

namespace janus {

class SopCache;

struct RewriteOptions {
    /// Threads for the eval-parallel phase; byte-identical output for any
    /// value (docs/SYNTH.md). 1 = serial.
    int workers = 1;
    /// Memoize Espresso results in a canonical SOP cache. QoR-identical on
    /// or off; off recomputes every minimization (ablation/testing knob).
    bool use_sop_cache = true;
};

struct RewriteStats {
    std::size_t nodes_before = 0;
    std::size_t nodes_after = 0;
    int replacements = 0;
    std::uint64_t cuts_evaluated = 0;   ///< non-trivial cuts minimized + costed
    /// This call's own SOP cache queries (SopCache::Stats), even when the
    /// cache is shared: hits + espresso_calls is the query count, fixed
    /// for a given input whatever the cache held before.
    std::uint64_t memo_hits = 0;        ///< answered from the cache
    std::uint64_t memo_misses = 0;      ///< entries added (SopCache::Stats)
    std::uint64_t espresso_calls = 0;   ///< minimizations actually executed
    std::uint64_t mffc_cone_visits = 0; ///< total MFFC trial-deref work
    int workers = 1;
};

/// Work counters for mffc_sizes: the incremental trial-dereference touches
/// only each node's cone (cone_visits ~= sum of MFFC sizes) instead of
/// copying the whole refcount array per node, and scratch_writes bounds
/// the epoch-stamped scratch traffic. Both are asserted in tests and
/// reported as a bench column.
struct MffcStats {
    std::uint64_t cone_visits = 0;    ///< nodes dereferenced across all trials
    std::uint64_t scratch_writes = 0; ///< refcount scratch updates
};

/// One bottom-up refactoring pass; returns the rewritten (cleaned) AIG.
/// `cache` optionally shares a SOP memo cache across passes (optimize()
/// does this between rounds); when null the pass uses a private cache
/// honouring opts.use_sop_cache.
Aig refactor(const Aig& aig, const RewriteOptions& opts = {},
             RewriteStats* stats = nullptr, SopCache* cache = nullptr);

/// Full optimization script: iterated balance + refactor until the node
/// count stops improving (at most `rounds` rounds). One SOP memo cache is
/// shared across all rounds: `cache` when given (FlowEngine passes the memo
/// it keeps for all its jobs), otherwise a private one honouring
/// opts.use_sop_cache. `stats` (optional) accumulates the per-round
/// refactoring counters.
Aig optimize(const Aig& aig, int rounds = 4, const RewriteOptions& opts = {},
             RewriteStats* stats = nullptr, SopCache* cache = nullptr);

/// Size of each node's maximum fanout-free cone (number of AND nodes that
/// become dead if the node is removed), indexed by node id. Incremental:
/// one epoch-stamped scratch array is reused across all trial
/// dereferences, so the work is proportional to the cone sizes, not
/// O(nodes^2) refcount copies.
std::vector<int> mffc_sizes(const Aig& aig, MffcStats* stats = nullptr);

/// Phase selection for SOP construction, exposed for tests: true when the
/// OFF-phase cover is strictly cheaper under the cubes*4 + literals cost.
/// Ties deterministically keep the ON-phase.
bool sop_prefers_off_phase(const Cover& on, const Cover& off);

}  // namespace janus
