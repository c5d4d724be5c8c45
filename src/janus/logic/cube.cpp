#include "janus/logic/cube.hpp"

#include <bit>
#include <stdexcept>

namespace janus {
Cube::Cube(int num_vars) : num_vars_(num_vars) {
    if (num_vars < 0) throw std::invalid_argument("Cube: negative num_vars");
    if (!is_inline()) heap_.resize((static_cast<std::size_t>(num_vars) + 31) / 32);
    // Unused tail lanes stay 00 so equality works word-wise.
    const auto ws = mutable_words();
    for (std::size_t i = 0; i < ws.size(); ++i) ws[i] = full_word(i);
}

Cube Cube::from_string(const std::string& s) {
    Cube c(static_cast<int>(s.size()));
    for (std::size_t i = 0; i < s.size(); ++i) {
        switch (s[i]) {
            case '0': c.set(static_cast<int>(i), Literal::Neg); break;
            case '1': c.set(static_cast<int>(i), Literal::Pos); break;
            case '-': c.set(static_cast<int>(i), Literal::DC); break;
            default: throw std::invalid_argument("Cube::from_string: bad char");
        }
    }
    return c;
}

bool Cube::is_empty() const {
    const auto ws = words();
    for (std::size_t i = 0; i < ws.size(); ++i) {
        if (empty_lanes(ws[i]) & full_word(i)) return true;
    }
    return false;
}

bool Cube::is_full() const {
    const auto ws = words();
    for (std::size_t i = 0; i < ws.size(); ++i) {
        if (ws[i] != full_word(i)) return false;
    }
    return true;
}

int Cube::num_literals() const {
    // A literal lane holds 01 or 10: its two bits differ.
    int n = 0;
    for (const auto w : words()) n += std::popcount((w ^ (w >> 1)) & kLaneLow);
    return n;
}

bool Cube::contains(const Cube& other) const {
    assert(num_vars_ == other.num_vars_);
    const auto a = words();
    const auto b = other.words();
    for (std::size_t i = 0; i < a.size(); ++i) {
        if ((a[i] | b[i]) != a[i]) return false;
    }
    return true;
}

int Cube::distance(const Cube& other) const {
    assert(num_vars_ == other.num_vars_);
    int d = 0;
    for (std::size_t i = 0; i < words().size(); ++i) {
        d += std::popcount(conflict_lanes(i, other));
    }
    return d;
}

std::optional<Cube> Cube::intersect(const Cube& other) const {
    assert(num_vars_ == other.num_vars_);
    Cube r = *this;
    const auto b = other.words();
    const auto ws = r.mutable_words();
    for (std::size_t i = 0; i < ws.size(); ++i) ws[i] &= b[i];
    if (r.is_empty()) return std::nullopt;
    return r;
}

Cube Cube::supercube(const Cube& other) const {
    assert(num_vars_ == other.num_vars_);
    Cube r = *this;
    const auto b = other.words();
    const auto ws = r.mutable_words();
    for (std::size_t i = 0; i < ws.size(); ++i) ws[i] |= b[i];
    return r;
}

std::optional<Cube> Cube::consensus(const Cube& other) const {
    assert(num_vars_ == other.num_vars_);
    // Distance exactly 1: one word holds conflicts, and only one lane.
    std::size_t conflict_word = 0;
    std::uint64_t conflict = 0;
    for (std::size_t i = 0; i < words().size(); ++i) {
        const std::uint64_t c = conflict_lanes(i, other);
        if (!c) continue;
        if (conflict || (c & (c - 1))) return std::nullopt;
        conflict_word = i;
        conflict = c;
    }
    if (!conflict) return std::nullopt;
    // The meet of the two cubes, with the conflicting variable raised to DC.
    Cube r = *this;
    const auto b = other.words();
    const auto ws = r.mutable_words();
    for (std::size_t i = 0; i < ws.size(); ++i) ws[i] &= b[i];
    ws[conflict_word] |= conflict | (conflict << 1);
    return r;
}

Cube Cube::cofactor(const Cube& c) const {
    assert(num_vars_ == c.num_vars_ && intersects(c));
    // A literal lane of c complements to the opposite literal, which ORs
    // this cube's (intersecting) lane up to DC; a DC lane complements to 00.
    Cube r = *this;
    const auto b = c.words();
    const auto ws = r.mutable_words();
    for (std::size_t i = 0; i < ws.size(); ++i) ws[i] |= ~b[i] & full_word(i);
    return r;
}

bool Cube::covers_minterm(std::uint64_t assignment) const {
    for (int v = 0; v < num_vars_; ++v) {
        const Literal l = get(v);
        const bool bit = (assignment >> v) & 1;
        if (l == Literal::Empty) return false;
        if (l == Literal::Pos && !bit) return false;
        if (l == Literal::Neg && bit) return false;
    }
    return true;
}

std::string Cube::to_string() const {
    std::string s;
    s.reserve(static_cast<std::size_t>(num_vars_));
    for (int v = 0; v < num_vars_; ++v) {
        switch (get(v)) {
            case Literal::Neg: s.push_back('0'); break;
            case Literal::Pos: s.push_back('1'); break;
            case Literal::DC: s.push_back('-'); break;
            case Literal::Empty: s.push_back('x'); break;
        }
    }
    return s;
}

}  // namespace janus
