#pragma once
/// \file cube.hpp
/// Cubes in positional notation for two-level (SOP) minimization — the
/// Espresso/MIS lineage the panel names as the first wave of EDA.
///
/// Each variable occupies two bits: 01 = negative literal (!x),
/// 10 = positive literal (x), 11 = don't care, 00 = empty (no value of the
/// variable satisfies the cube; the whole cube denotes the empty set).
///
/// Storage: 32 variables per 64-bit word. A cube of up to kInlineVars = 32
/// variables is one inline word, so copying it never allocates and the
/// set operations below are a handful of word operations. Wider cubes keep
/// their words on the heap.

#include <cassert>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace janus {

/// Per-variable state of a cube.
enum class Literal : std::uint8_t { Empty = 0b00, Neg = 0b01, Pos = 0b10, DC = 0b11 };

class Cube {
  public:
    /// Cubes of at most this many variables are stored inline.
    static constexpr int kInlineVars = 32;

    /// The full cube (all variables don't-care) over n variables.
    explicit Cube(int num_vars = 0);

    /// Parses "1-0" style strings: '1' positive, '0' negative, '-' DC.
    static Cube from_string(const std::string& s);

    int num_vars() const { return num_vars_; }
    Literal get(int var) const {
        assert(var >= 0 && var < num_vars_);
        return static_cast<Literal>((words()[word_of(var)] >> shift_of(var)) & 0b11);
    }
    void set(int var, Literal lit) {
        assert(var >= 0 && var < num_vars_);
        auto& w = mutable_words()[word_of(var)];
        w &= ~(0b11ull << shift_of(var));
        w |= static_cast<std::uint64_t>(lit) << shift_of(var);
    }

    /// True if some variable is Empty (cube denotes the empty set).
    bool is_empty() const;
    /// True if all variables are DC (cube covers every minterm).
    bool is_full() const;
    /// Number of non-DC literal positions.
    int num_literals() const;

    /// Set containment: every minterm of `other` is in *this.
    bool contains(const Cube& other) const;
    /// Number of variables on which the two cubes have disjoint parts
    /// (distance 0 = they intersect; 1 = consensus exists).
    int distance(const Cube& other) const;
    /// distance(other) == 0, without counting.
    bool intersects(const Cube& other) const {
        assert(num_vars_ == other.num_vars_);
        for (std::size_t i = 0; i < words().size(); ++i) {
            if (conflict_lanes(i, other)) return false;
        }
        return true;
    }
    /// Set intersection; nullopt when disjoint.
    std::optional<Cube> intersect(const Cube& other) const;
    /// Smallest cube containing both (bitwise union per variable).
    Cube supercube(const Cube& other) const;
    /// Consensus on the unique conflicting variable; nullopt unless
    /// distance is exactly 1.
    std::optional<Cube> consensus(const Cube& other) const;
    /// Cofactor with respect to a cube this one intersects: every variable
    /// that is a literal in `c` becomes DC, the rest are kept.
    Cube cofactor(const Cube& c) const;

    /// True if the minterm (bit i of `assignment` = value of variable i)
    /// lies inside the cube.
    bool covers_minterm(std::uint64_t assignment) const;

    /// "1-0" style string.
    std::string to_string() const;

    friend bool operator==(const Cube&, const Cube&) = default;

  private:
    int num_vars_;
    std::uint64_t word_ = 0;           ///< the cube while is_inline()
    std::vector<std::uint64_t> heap_;  ///< the cube otherwise

    static std::size_t word_of(int var) { return static_cast<std::size_t>(var) / 32; }
    static int shift_of(int var) { return (var % 32) * 2; }

    bool is_inline() const { return num_vars_ <= kInlineVars; }
    std::span<const std::uint64_t> words() const {
        if (is_inline()) return {&word_, 1};
        return heap_;
    }
    std::span<std::uint64_t> mutable_words() {
        if (is_inline()) return {&word_, 1};
        return heap_;
    }
    /// The low bit of every 2-bit variable lane.
    static constexpr std::uint64_t kLaneLow = 0x5555555555555555ull;
    /// Lanes (low bits) holding 00, the empty part.
    static std::uint64_t empty_lanes(std::uint64_t w) { return ~(w | (w >> 1)) & kLaneLow; }

    /// The all-DC pattern of word i (unused tail lanes stay 00).
    std::uint64_t full_word(std::size_t i) const {
        const int vars = num_vars_ - static_cast<int>(i) * 32;
        return vars >= 32 ? ~0ull : (1ull << (2 * vars)) - 1;
    }
    /// Lanes of word i (the low bit of each 2-bit field) where this cube
    /// and `other` share no value of the variable.
    std::uint64_t conflict_lanes(std::size_t i, const Cube& other) const {
        return empty_lanes(words()[i] & other.words()[i]) & full_word(i);
    }
};

}  // namespace janus
