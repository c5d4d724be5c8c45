#include "janus/logic/sop_cache.hpp"

#include "janus/logic/espresso.hpp"

namespace janus {
namespace {

std::uint64_t mix64(std::uint64_t x) {
    // splitmix64 finalizer: cheap, well-distributed over the shard count.
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return x;
}

}  // namespace

std::size_t SopCache::KeyHash::operator()(const TruthTable& tt) const {
    std::uint64_t h =
        mix64(static_cast<std::uint64_t>(tt.num_vars()) + 0x9e3779b97f4a7c15ull);
    for (const std::uint64_t w : tt.words()) h = mix64(h ^ w);
    return static_cast<std::size_t>(h);
}

const Cover& SopCache::minimized(const TruthTable& tt, Cover& scratch) {
    Shard& shard = shards_[KeyHash{}(tt) % kShards];

    if (!enabled_) {
        {
            std::lock_guard<std::mutex> lock(shard.mutex);
            ++shard.stats.queries;
            ++shard.stats.misses;
            ++shard.stats.espresso_calls;
        }
        scratch = espresso(Cover::from_truth_table(tt)).cover;
        return scratch;
    }

    {
        std::lock_guard<std::mutex> lock(shard.mutex);
        ++shard.stats.queries;
        const auto it = shard.map.find(tt);
        if (it != shard.map.end()) {
            ++shard.stats.hits;
            return it->second;
        }
    }
    // Minimize outside the lock so concurrent misses in one shard don't
    // serialize behind Espresso. A racing thread may duplicate the work;
    // the first insert wins and both results are identical anyway.
    Cover cover = espresso(Cover::from_truth_table(tt)).cover;
    std::lock_guard<std::mutex> lock(shard.mutex);
    ++shard.stats.espresso_calls;
    const auto [it, inserted] = shard.map.emplace(tt, std::move(cover));
    if (inserted) ++shard.stats.misses;
    // Map nodes never move, so the reference outlives the lock.
    return it->second;
}

SopCache::Stats SopCache::stats() const {
    Stats total;
    for (const Shard& shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.mutex);
        total.queries += shard.stats.queries;
        total.hits += shard.stats.hits;
        total.misses += shard.stats.misses;
        total.espresso_calls += shard.stats.espresso_calls;
    }
    return total;
}

std::size_t SopCache::size() const {
    std::size_t n = 0;
    for (const Shard& shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.mutex);
        n += shard.map.size();
    }
    return n;
}

}  // namespace janus
