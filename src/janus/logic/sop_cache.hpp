#pragma once
/// \file sop_cache.hpp
/// Canonical memo cache for two-level (SOP) minimization results. The
/// refactoring pass minimizes both polarities of every cut function, and
/// small cuts repeat the same functions thousands of times across one AIG,
/// across optimization rounds and across designs, so the Espresso loop is
/// the ideal memoization target: its result is a pure function of the
/// truth table.
///
/// Canonicalization: entries are keyed by the exact truth table. A function
/// of up to six inputs (refactoring cuts have five) is its variable count
/// plus one inline word, so building a key never allocates. Output-phase
/// sharing falls out of the dual query pattern — the OFF-phase cover of f
/// is the ON-phase cover of ~f, so both polarities of a function and both
/// phases of its complement all resolve to two cache entries.
/// Input-negation/permutation (NPN) folding would shrink the key space
/// further but requires mapping covers back through the transform; the
/// cache interface deliberately hides the key so that can land later
/// without touching callers (docs/SYNTH.md).
///
/// Lifetime: a FlowEngine owns one cache for all the jobs it runs, so the
/// memo outlives any one job. It therefore keeps no counters of its own:
/// each query adds its outcome to the caller's tally. It stores at most
/// kCapacity entries; past that a miss is minimized into the caller's
/// scratch and not stored, so a long-lived engine stays bounded and a
/// reference handed out earlier stays valid.
///
/// Thread safety: `minimized()` may be called concurrently (from the
/// rewrite engine's eval-parallel phase and from concurrent jobs). The map
/// is sharded by key hash; a racing miss on the same key computes Espresso
/// twice but commits first-writer-wins, and since Espresso is deterministic
/// every caller sees the same cover — results never depend on scheduling.

#include <array>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <unordered_map>

#include "janus/logic/cover.hpp"
#include "janus/logic/truth_table.hpp"

namespace janus {

class SopCache {
  public:
    /// One caller's query outcomes. Always `hits + espresso_calls ==
    /// queries`. `misses` counts the queries that added an entry, or that
    /// found the cache disabled or full; a query that loses an insert race
    /// to a concurrent query of the same key counts as an Espresso call
    /// only. So in serial use `misses == espresso_calls`.
    struct Stats {
        std::uint64_t queries = 0;
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t espresso_calls = 0; ///< minimizations actually run
    };

    /// Most entries the cache stores: four times the ~32k distinct cut
    /// functions at which random logic saturates it, at ~265 bytes each.
    static constexpr std::size_t kCapacity = std::size_t{1} << 17;

    /// `enabled = false` turns the cache into a counting pass-through that
    /// minimizes every query from scratch — used by the QoR-identity tests
    /// and the memoization-ablation bench.
    explicit SopCache(bool enabled = true) : enabled_(enabled) {}

    SopCache(const SopCache&) = delete;
    SopCache& operator=(const SopCache&) = delete;

    /// Minimized ON-set cover of `tt`: bit-for-bit the value of
    /// `espresso(Cover::from_truth_table(tt)).cover`, memoized. The
    /// OFF-phase cover of a function is `minimized(~tt, ...)`. The result
    /// is read in place from the memo, and the reference stays valid for
    /// the cache's lifetime (entries are never erased). A disabled or full
    /// cache minimizes into `scratch` and returns it. The query's outcome
    /// is added to `tally`.
    const Cover& minimized(const TruthTable& tt, Cover& scratch, Stats& tally);

    bool enabled() const { return enabled_; }

    /// Number of memoized entries; never more than kCapacity.
    std::size_t size() const;

    /// Estimated heap footprint: map nodes, bucket arrays and cube arrays.
    std::size_t memory_bytes() const;

  private:
    struct KeyHash {
        std::size_t operator()(const TruthTable& tt) const;
    };
    struct Shard {
        mutable std::mutex mutex;
        std::unordered_map<TruthTable, Cover, KeyHash> map;
    };

    static constexpr std::size_t kShards = 16;
    /// Each shard holds its share of kCapacity, so the cap is enforced
    /// under the shard lock alone.
    static constexpr std::size_t kShardCapacity = kCapacity / kShards;

    bool enabled_;
    std::array<Shard, kShards> shards_;
};

}  // namespace janus
