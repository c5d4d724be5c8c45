#pragma once
/// \file truth_table.hpp
/// Dense truth tables over up to 16 variables, bit-packed into 64-bit
/// words. Used by cut enumeration, technology mapping and the two-level
/// minimizer's correctness checks.
///
/// Storage: a table of up to kInlineVars = 6 variables (64 minterms) is one
/// inline word, so the cut functions the refactoring and mapping passes
/// build by the million never touch the allocator. Only wider tables keep
/// their words on the heap.

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace janus {

/// A completely-specified Boolean function of `num_vars` inputs. Bit `m`
/// of the table is f(minterm m), with variable 0 as the least significant
/// input bit of m.
class TruthTable {
  public:
    /// Tables of at most this many variables are stored inline.
    static constexpr int kInlineVars = 6;

    /// Constant-zero function of n variables (0 <= n <= 16).
    explicit TruthTable(int num_vars = 0);

    static TruthTable constant(int num_vars, bool value);
    /// Projection x_i of n variables.
    static TruthTable variable(int num_vars, int var);
    /// Table of n variables from its packed words, laid out as words()
    /// returns them (bits at or above 2^n are ignored). Throws
    /// std::invalid_argument unless there are words().size() words.
    static TruthTable from_words(int num_vars, std::span<const std::uint64_t> words);

    int num_vars() const { return num_vars_; }
    std::uint64_t num_minterms_space() const { return 1ull << num_vars_; }

    bool bit(std::uint64_t minterm) const {
        assert(minterm < num_minterms_space());
        return (words()[minterm >> 6] >> (minterm & 63)) & 1;
    }
    void set_bit(std::uint64_t minterm, bool value) {
        assert(minterm < num_minterms_space());
        auto& w = mutable_words()[minterm >> 6];
        const std::uint64_t mask = 1ull << (minterm & 63);
        w = value ? (w | mask) : (w & ~mask);
    }

    /// Number of minterms where f = 1.
    std::uint64_t count_ones() const;
    bool is_constant(bool value) const;

    /// True if variable `var` affects the function.
    bool depends_on(int var) const;
    /// Positive/negative cofactor with respect to `var` (same num_vars;
    /// result no longer depends on `var`).
    TruthTable cofactor(int var, bool value) const;

    /// Logical operators (operands must have equal num_vars).
    TruthTable operator&(const TruthTable& o) const;
    TruthTable operator|(const TruthTable& o) const;
    TruthTable operator^(const TruthTable& o) const;
    TruthTable operator~() const;
    bool operator==(const TruthTable& o) const {
        // An inline table keeps heap_ empty and a heap table keeps word_
        // zero, so comparing both members compares the tables.
        return num_vars_ == o.num_vars_ && word_ == o.word_ && heap_ == o.heap_;
    }

    /// Reorders inputs: new input i is old input perm[i]. perm must be a
    /// permutation of 0..n-1.
    TruthTable permute(const std::vector<int>& perm) const;

    /// Hex string, most significant word first (canonical printing).
    std::string to_hex() const;
    /// 64-bit hash usable as a map key.
    std::uint64_t hash() const;

    /// The packed words: one for n <= kInlineVars, 2^(n-6) otherwise.
    std::span<const std::uint64_t> words() const {
        if (is_inline()) return {&word_, 1};
        return heap_;
    }

  private:
    int num_vars_;
    std::uint64_t word_ = 0;           ///< the table while is_inline()
    std::vector<std::uint64_t> heap_;  ///< the table otherwise

    bool is_inline() const { return num_vars_ <= kInlineVars; }
    std::span<std::uint64_t> mutable_words() {
        if (is_inline()) return {&word_, 1};
        return heap_;
    }
    template <typename Op>
    TruthTable combine(const TruthTable& o, Op op) const;
};

/// Hash functor over TruthTable::hash() for unordered containers.
struct TruthTableHash {
    std::size_t operator()(const TruthTable& t) const {
        return static_cast<std::size_t>(t.hash());
    }
};

}  // namespace janus
