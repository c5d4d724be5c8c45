#include "janus/logic/truth_table.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

namespace janus {
namespace {

/// Projection masks: bit m of kVarMask[v] is bit v of minterm m.
constexpr std::uint64_t kVarMask[6] = {
    0xAAAAAAAAAAAAAAAAull, 0xCCCCCCCCCCCCCCCCull, 0xF0F0F0F0F0F0F0F0ull,
    0xFF00FF00FF00FF00ull, 0xFFFF0000FFFF0000ull, 0xFFFFFFFF00000000ull};

std::size_t words_needed(int num_vars) {
    return num_vars <= 6 ? 1 : (std::size_t{1} << (num_vars - 6));
}

/// Minterms an n-variable table occupies within one word.
std::uint64_t used_bits(int num_vars) {
    return num_vars >= 6 ? ~0ull : (1ull << (1u << num_vars)) - 1;
}

/// Cofactor of one word with respect to a variable below 6: the half the
/// variable selects, copied over the other half.
std::uint64_t cofactor_word(std::uint64_t w, int var, bool value) {
    const unsigned shift = 1u << var;
    if (value) {
        const std::uint64_t hi = w & kVarMask[var];
        return hi | (hi >> shift);
    }
    const std::uint64_t lo = w & ~kVarMask[var];
    return lo | (lo << shift);
}

}  // namespace

TruthTable::TruthTable(int num_vars) : num_vars_(num_vars) {
    if (num_vars < 0 || num_vars > 16) {
        throw std::invalid_argument("TruthTable: num_vars out of range");
    }
    if (!is_inline()) heap_.assign(words_needed(num_vars), 0);
}

TruthTable TruthTable::constant(int num_vars, bool value) {
    TruthTable t(num_vars);
    if (value) {
        for (auto& w : t.mutable_words()) w = used_bits(num_vars);
    }
    return t;
}

TruthTable TruthTable::variable(int num_vars, int var) {
    assert(var >= 0 && var < num_vars);
    TruthTable t(num_vars);
    if (var < 6) {
        for (auto& w : t.mutable_words()) w = kVarMask[var] & used_bits(num_vars);
    } else {
        const std::size_t stride = std::size_t{1} << (var - 6);
        for (std::size_t w = 0; w < t.heap_.size(); ++w) {
            if ((w / stride) & 1) t.heap_[w] = ~0ull;
        }
    }
    return t;
}

TruthTable TruthTable::from_words(int num_vars, std::span<const std::uint64_t> words) {
    TruthTable t(num_vars);
    const auto dst = t.mutable_words();
    if (words.size() != dst.size()) {
        throw std::invalid_argument("TruthTable::from_words: word count mismatch");
    }
    std::copy(words.begin(), words.end(), dst.begin());
    dst[0] &= used_bits(num_vars);
    return t;
}

std::uint64_t TruthTable::count_ones() const {
    std::uint64_t n = 0;
    for (const auto w : words()) n += static_cast<std::uint64_t>(std::popcount(w));
    return n;
}

bool TruthTable::is_constant(bool value) const {
    const std::uint64_t want = value ? used_bits(num_vars_) : 0;
    for (const auto w : words()) {
        if (w != want) return false;
    }
    return true;
}

bool TruthTable::depends_on(int var) const {
    assert(var >= 0 && var < num_vars_);
    const auto ws = words();
    if (var < 6) {
        // Bit m (var clear) of w >> shift is f at m with var set.
        const unsigned shift = 1u << var;
        for (const auto w : ws) {
            if (((w >> shift) ^ w) & ~kVarMask[var]) return true;
        }
        return false;
    }
    const std::size_t stride = std::size_t{1} << (var - 6);
    for (std::size_t i = 0; i < ws.size(); ++i) {
        if (!(i & stride) && ws[i] != ws[i | stride]) return true;
    }
    return false;
}

TruthTable TruthTable::cofactor(int var, bool value) const {
    assert(var >= 0 && var < num_vars_);
    TruthTable r(num_vars_);
    const auto src = words();
    const auto dst = r.mutable_words();
    if (var < 6) {
        for (std::size_t i = 0; i < src.size(); ++i) dst[i] = cofactor_word(src[i], var, value);
    } else {
        const std::size_t stride = std::size_t{1} << (var - 6);
        for (std::size_t i = 0; i < src.size(); ++i) {
            dst[i] = src[value ? (i | stride) : (i & ~stride)];
        }
    }
    return r;
}

template <typename Op>
TruthTable TruthTable::combine(const TruthTable& o, Op op) const {
    assert(num_vars_ == o.num_vars_);
    TruthTable r(num_vars_);
    if (is_inline()) {
        r.word_ = op(word_, o.word_);
        return r;
    }
    for (std::size_t i = 0; i < heap_.size(); ++i) r.heap_[i] = op(heap_[i], o.heap_[i]);
    return r;
}

TruthTable TruthTable::operator&(const TruthTable& o) const {
    return combine(o, [](std::uint64_t a, std::uint64_t b) { return a & b; });
}

TruthTable TruthTable::operator|(const TruthTable& o) const {
    return combine(o, [](std::uint64_t a, std::uint64_t b) { return a | b; });
}

TruthTable TruthTable::operator^(const TruthTable& o) const {
    return combine(o, [](std::uint64_t a, std::uint64_t b) { return a ^ b; });
}

TruthTable TruthTable::operator~() const {
    const std::uint64_t used = used_bits(num_vars_);
    return combine(*this, [used](std::uint64_t a, std::uint64_t) { return ~a & used; });
}

TruthTable TruthTable::permute(const std::vector<int>& perm) const {
    assert(static_cast<int>(perm.size()) == num_vars_);
    TruthTable r(num_vars_);
    for (std::uint64_t m = 0; m < num_minterms_space(); ++m) {
        // Bit i of the new minterm supplies old variable perm[i].
        std::uint64_t src = 0;
        for (int i = 0; i < num_vars_; ++i) {
            if (m & (1ull << i)) src |= (1ull << perm[static_cast<std::size_t>(i)]);
        }
        r.set_bit(m, bit(src));
    }
    return r;
}

std::string TruthTable::to_hex() const {
    static const char* digits = "0123456789abcdef";
    std::string out;
    const int nibbles =
        num_vars_ <= 2 ? 1 : static_cast<int>(num_minterms_space() / 4);
    const auto ws = words();
    for (int i = nibbles - 1; i >= 0; --i) {
        const auto word = ws[static_cast<std::size_t>(i) / 16];
        out.push_back(digits[(word >> ((i % 16) * 4)) & 0xF]);
    }
    return out;
}

std::uint64_t TruthTable::hash() const {
    std::uint64_t h = 0x9E3779B97F4A7C15ULL ^ static_cast<std::uint64_t>(num_vars_);
    for (const auto w : words()) {
        h ^= w + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
    }
    return h;
}

}  // namespace janus
