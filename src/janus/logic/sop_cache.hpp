#pragma once
/// \file sop_cache.hpp
/// Canonical memo cache for two-level (SOP) minimization results. The
/// refactoring pass minimizes both polarities of every cut function, and
/// small cuts repeat the same functions thousands of times across one AIG
/// (and across optimization rounds), so the Espresso loop is the ideal
/// memoization target: its result is a pure function of the truth table.
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
/// Thread safety: `minimized()` may be called concurrently (the rewrite
/// engine queries it from its eval-parallel phase). The map is sharded by
/// key hash; a racing miss on the same key computes Espresso twice but
/// commits first-writer-wins, and since Espresso is deterministic every
/// caller sees the same cover — results never depend on scheduling.

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
    /// Counters; under concurrent use `hits + misses <= queries` (the slack
    /// is lost insert races) and `espresso_calls >= misses` for the same
    /// reason. In serial use all three relations are equalities. With the
    /// cache disabled every query is a miss and an espresso call.
    struct Stats {
        std::uint64_t queries = 0;
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;         ///< unique keys materialized
        std::uint64_t espresso_calls = 0; ///< minimizations actually run
    };

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
    /// the cache's lifetime (entries are never erased). A disabled cache
    /// minimizes into `scratch` and returns it.
    const Cover& minimized(const TruthTable& tt, Cover& scratch);

    bool enabled() const { return enabled_; }

    /// Aggregated counters across all shards.
    Stats stats() const;

    /// Number of memoized entries.
    std::size_t size() const;

  private:
    struct KeyHash {
        std::size_t operator()(const TruthTable& tt) const;
    };
    struct Shard {
        mutable std::mutex mutex;
        std::unordered_map<TruthTable, Cover, KeyHash> map;
        Stats stats;
    };

    static constexpr std::size_t kShards = 16;

    bool enabled_;
    std::array<Shard, kShards> shards_;
};

}  // namespace janus
