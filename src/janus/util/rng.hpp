#pragma once
/// \file rng.hpp
/// Deterministic pseudo-random number generation. Every stochastic JanusEDA
/// algorithm (SA placers, generators, the tuner) takes an explicit Rng so runs
/// are reproducible from a seed; no global random state exists.

#include <cstdint>
#include <vector>

namespace janus {

/// xoshiro256** generator: fast, high-quality, and deterministic across
/// platforms (unlike std::mt19937 distributions, whose mapping to ranges is
/// implementation-defined via std::uniform_int_distribution).
class Rng {
  public:
    /// Seeds the generator; two Rng objects with the same seed produce the
    /// same sequence on every platform.
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

    /// Next raw 64-bit value.
    std::uint64_t next_u64();

    /// Uniform integer in [0, bound); bound must be positive.
    std::uint64_t next_below(std::uint64_t bound);

    /// Uniform integer in [lo, hi] inclusive; requires lo <= hi.
    std::int64_t next_in(std::int64_t lo, std::int64_t hi);

    /// Uniform double in [0, 1).
    double next_double();

    /// Gaussian sample with the given mean and standard deviation
    /// (Box-Muller; consumes two uniform draws).
    double next_gaussian(double mean = 0.0, double stddev = 1.0);

    /// Bernoulli draw: true with probability p (clamped to [0, 1]).
    bool next_bool(double p = 0.5);

    /// Fisher-Yates shuffle of a vector in place.
    template <typename T>
    void shuffle(std::vector<T>& v) {
        for (std::size_t i = v.size(); i > 1; --i) {
            const std::size_t j = static_cast<std::size_t>(next_below(i));
            using std::swap;
            swap(v[i - 1], v[j]);
        }
    }

    /// Uniformly chosen index into a container of the given size; size must
    /// be positive.
    std::size_t pick_index(std::size_t size);

  private:
    std::uint64_t s_[4];
};

/// Derives an independent stream seed from a base seed and a stream index
/// (splitmix64 avalanche). Used for per-task seeding in batch/parallel
/// execution: the stream a task sees depends only on (base, stream), never
/// on which worker thread ran it, so parallel runs reproduce serial ones.
std::uint64_t mix_seed(std::uint64_t base, std::uint64_t stream);

}  // namespace janus
