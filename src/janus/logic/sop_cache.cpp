#include "janus/logic/sop_cache.hpp"

#include <utility>

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

const Cover& SopCache::minimized(const TruthTable& tt, Cover& scratch,
                                 Stats& tally) {
    Shard& shard = shards_[KeyHash{}(tt) % kShards];
    ++tally.queries;
    if (enabled_) {
        std::lock_guard<std::mutex> lock(shard.mutex);
        const auto it = shard.map.find(tt);
        if (it != shard.map.end()) {
            ++tally.hits;
            return it->second;
        }
    }
    // Minimize outside the lock so concurrent misses in one shard don't
    // serialize behind Espresso. A racing thread may duplicate the work;
    // the first insert wins and both results are identical anyway.
    Cover cover = espresso(Cover::from_truth_table(tt)).cover;
    ++tally.espresso_calls;
    if (enabled_) {
        std::lock_guard<std::mutex> lock(shard.mutex);
        if (shard.map.size() < kShardCapacity) {
            const auto [it, inserted] = shard.map.emplace(tt, std::move(cover));
            if (inserted) ++tally.misses;
            // Map nodes never move, so the reference outlives the lock.
            return it->second;
        }
    }
    ++tally.misses;
    scratch = std::move(cover);
    return scratch;
}

std::size_t SopCache::size() const {
    std::size_t n = 0;
    for (const Shard& shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.mutex);
        n += shard.map.size();
    }
    return n;
}

std::size_t SopCache::memory_bytes() const {
    // A node holds the next pointer, the entry and the cached hash. The
    // heap words of keys and cubes wider than one inline word are left
    // out; refactoring cuts never have them.
    constexpr std::size_t kNodeBytes = sizeof(void*) +
                                       sizeof(std::pair<const TruthTable, Cover>) +
                                       sizeof(std::size_t);
    std::size_t bytes = 0;
    for (const Shard& shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.mutex);
        bytes += shard.map.bucket_count() * sizeof(void*);
        for (const auto& entry : shard.map) {
            bytes += kNodeBytes + entry.second.cubes().capacity() * sizeof(Cube);
        }
    }
    return bytes;
}

}  // namespace janus
