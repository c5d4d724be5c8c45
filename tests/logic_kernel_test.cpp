// Storage-boundary tests for the logic kernels: TruthTable keeps up to six
// variables in one inline word and Cube up to 32, with heap words beyond.
// Every operation runs on seeded random operands on both sides of each
// boundary and is checked against a per-variable (or per-minterm)
// reference loop over plain vectors.

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "janus/logic/cube.hpp"
#include "janus/logic/truth_table.hpp"
#include "janus/util/rng.hpp"

namespace janus {
namespace {

// ------------------------------------------------------------ TruthTable

/// Reference table: one bool per minterm.
using Bits = std::vector<bool>;

Bits random_bits(int n, Rng& rng) {
    Bits b(std::size_t{1} << n);
    for (std::size_t m = 0; m < b.size(); ++m) b[m] = rng.next_bool();
    return b;
}

TruthTable table_of(int n, const Bits& b) {
    TruthTable t(n);
    for (std::size_t m = 0; m < b.size(); ++m) t.set_bit(m, b[m]);
    return t;
}

void expect_table(const TruthTable& t, int n, const Bits& want) {
    ASSERT_EQ(t.num_vars(), n);
    std::uint64_t ones = 0;
    for (std::size_t m = 0; m < want.size(); ++m) {
        ASSERT_EQ(t.bit(m), want[m]) << "minterm " << m;
        ones += want[m] ? 1 : 0;
    }
    EXPECT_EQ(t.count_ones(), ones);
    // Building the same function bit by bit gives an equal table.
    EXPECT_EQ(t, table_of(n, want));
}

template <typename Op>
Bits map_bits(const Bits& a, const Bits& b, Op op) {
    Bits r(a.size());
    for (std::size_t m = 0; m < a.size(); ++m) r[m] = op(a[m], b[m]);
    return r;
}

/// Packs the reference into 64-bit words, minterm 0 in bit 0 of word 0.
std::vector<std::uint64_t> pack(const Bits& b) {
    std::vector<std::uint64_t> w((b.size() + 63) / 64, 0);
    for (std::size_t m = 0; m < b.size(); ++m) {
        if (b[m]) w[m / 64] |= 1ull << (m % 64);
    }
    return w;
}

std::uint64_t reference_hash(int n, const Bits& b) {
    std::uint64_t h = 0x9E3779B97F4A7C15ULL ^ static_cast<std::uint64_t>(n);
    for (const std::uint64_t w : pack(b)) {
        h ^= w + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
    }
    return h;
}

std::string reference_hex(int n, const Bits& b) {
    static const char* digits = "0123456789abcdef";
    const std::size_t nibbles = n <= 2 ? 1 : b.size() / 4;
    std::string out;
    for (std::size_t i = nibbles; i-- > 0;) {
        unsigned v = 0;
        for (std::size_t j = 0; j < 4; ++j) {
            const std::size_t m = i * 4 + j;
            if (m < b.size() && b[m]) v |= 1u << j;
        }
        out.push_back(digits[v]);
    }
    return out;
}

class TruthTableStorage : public ::testing::TestWithParam<int> {};

TEST_P(TruthTableStorage, OperatorsMatchPerMintermReference) {
    const int n = GetParam();
    Rng rng(1000 + static_cast<std::uint64_t>(n));
    for (int round = 0; round < 4; ++round) {
        const Bits a = random_bits(n, rng);
        const Bits b = random_bits(n, rng);
        const TruthTable ta = table_of(n, a);
        const TruthTable tb = table_of(n, b);
        expect_table(ta & tb, n, map_bits(a, b, [](bool x, bool y) { return x && y; }));
        expect_table(ta | tb, n, map_bits(a, b, [](bool x, bool y) { return x || y; }));
        expect_table(ta ^ tb, n, map_bits(a, b, [](bool x, bool y) { return x != y; }));
        expect_table(~ta, n, map_bits(a, a, [](bool x, bool) { return !x; }));
        EXPECT_EQ(ta == tb, a == b);
        EXPECT_EQ(ta, table_of(n, a));
        EXPECT_TRUE((ta ^ ta).is_constant(false));
        EXPECT_TRUE((ta | ~ta).is_constant(true));
        EXPECT_FALSE(ta.is_constant(false) || ta.is_constant(true));
    }
}

TEST_P(TruthTableStorage, CofactorAndDependenceMatchReference) {
    const int n = GetParam();
    Rng rng(2000 + static_cast<std::uint64_t>(n));
    const Bits a = random_bits(n, rng);
    const TruthTable ta = table_of(n, a);
    for (int var = 0; var < n; ++var) {
        const std::size_t bit = std::size_t{1} << var;
        bool depends = false;
        for (const bool value : {false, true}) {
            Bits want(a.size());
            for (std::size_t m = 0; m < a.size(); ++m) {
                want[m] = a[value ? (m | bit) : (m & ~bit)];
            }
            expect_table(ta.cofactor(var, value), n, want);
        }
        for (std::size_t m = 0; m < a.size(); ++m) depends |= a[m] != a[m ^ bit];
        EXPECT_EQ(ta.depends_on(var), depends) << "var " << var;
        // Projections: a cofactor of x_var is constant.
        const TruthTable x = TruthTable::variable(n, var);
        EXPECT_TRUE(x.cofactor(var, true).is_constant(true));
        EXPECT_TRUE(x.cofactor(var, false).is_constant(false));
        for (std::size_t m = 0; m < a.size(); ++m) {
            ASSERT_EQ(x.bit(m), (m & bit) != 0) << "var " << var << " minterm " << m;
        }
    }
    // A function that ignores a variable: its cofactors agree.
    const TruthTable flat = ta.cofactor(n - 1, true);
    EXPECT_FALSE(flat.depends_on(n - 1));
}

TEST_P(TruthTableStorage, PermuteHashAndHexMatchReference) {
    const int n = GetParam();
    Rng rng(3000 + static_cast<std::uint64_t>(n));
    const Bits a = random_bits(n, rng);
    const TruthTable ta = table_of(n, a);
    std::vector<int> perm(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) perm[static_cast<std::size_t>(i)] = i;
    rng.shuffle(perm);
    Bits want(a.size());
    for (std::size_t m = 0; m < a.size(); ++m) {
        std::size_t src = 0;
        for (int i = 0; i < n; ++i) {
            if (m & (std::size_t{1} << i)) {
                src |= std::size_t{1} << perm[static_cast<std::size_t>(i)];
            }
        }
        want[m] = a[src];
    }
    expect_table(ta.permute(perm), n, want);

    EXPECT_EQ(ta.hash(), reference_hash(n, a));
    EXPECT_EQ(ta.to_hex(), reference_hex(n, a));
    const auto words = ta.words();
    const auto packed = pack(a);
    ASSERT_EQ(words.size(), packed.size());
    for (std::size_t i = 0; i < packed.size(); ++i) EXPECT_EQ(words[i], packed[i]);
    EXPECT_EQ(TruthTable::from_words(n, words), ta);
    // Bits past the last minterm are dropped; a short span is rejected.
    const std::vector<std::uint64_t> ones(words.size(), ~0ull);
    EXPECT_EQ(TruthTable::from_words(n, ones), TruthTable::constant(n, true));
    EXPECT_THROW(TruthTable::from_words(n, words.first(words.size() - 1)),
                 std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(InlineAndHeap, TruthTableStorage,
                         ::testing::Values(5, 6, 7, 16));

// ------------------------------------------------------------------ Cube

/// Reference cube: one Literal per variable.
using Lanes = std::vector<Literal>;

Literal random_literal(Rng& rng, bool allow_empty) {
    const std::uint64_t r = rng.next_below(allow_empty ? 4 : 3);
    return r == 0 ? Literal::Neg : r == 1 ? Literal::Pos : r == 2 ? Literal::DC : Literal::Empty;
}

Cube cube_of(const Lanes& l) {
    Cube c(static_cast<int>(l.size()));
    for (std::size_t v = 0; v < l.size(); ++v) c.set(static_cast<int>(v), l[v]);
    return c;
}

void expect_cube(const Cube& c, const Lanes& want) {
    ASSERT_EQ(c.num_vars(), static_cast<int>(want.size()));
    for (std::size_t v = 0; v < want.size(); ++v) {
        ASSERT_EQ(c.get(static_cast<int>(v)), want[v]) << "var " << v;
    }
    EXPECT_EQ(c, cube_of(want));
}

unsigned bits_of(Literal l) { return static_cast<unsigned>(l); }

class CubeStorage : public ::testing::TestWithParam<int> {};

TEST_P(CubeStorage, SetOperationsMatchPerVariableReference) {
    const int n = GetParam();
    Rng rng(4000 + static_cast<std::uint64_t>(n));
    for (int round = 0; round < 400; ++round) {
        // b is a copy of a with a few lanes redrawn, so distances of 0, 1
        // and 2 (and so both consensus outcomes) all occur.
        const bool allow_empty = round % 8 == 0;
        Lanes a(static_cast<std::size_t>(n));
        for (auto& l : a) l = random_literal(rng, allow_empty);
        Lanes b = a;
        const int edits = static_cast<int>(rng.next_below(4));
        for (int e = 0; e < edits; ++e) {
            b[static_cast<std::size_t>(rng.next_below(static_cast<std::uint64_t>(n)))] =
                random_literal(rng, allow_empty);
        }
        if (round % 5 == 0) {
            for (auto& l : b) l = Literal::DC;  // the full cube
        }
        const Cube ca = cube_of(a);
        const Cube cb = cube_of(b);

        int distance = 0;
        bool contains = true, a_empty = false, b_full = true;
        int literals = 0;
        Lanes meet(a.size()), join(a.size()), cons(a.size()), cof(a.size());
        for (std::size_t v = 0; v < a.size(); ++v) {
            const unsigned x = bits_of(a[v]);
            const unsigned y = bits_of(b[v]);
            if ((x & y) == 0) ++distance;
            if ((x | y) != x) contains = false;
            a_empty |= x == 0;
            b_full &= y == 0b11;
            literals += (x == 0b01 || x == 0b10) ? 1 : 0;
            meet[v] = static_cast<Literal>(x & y);
            join[v] = static_cast<Literal>(x | y);
            cons[v] = (x & y) == 0 ? Literal::DC : static_cast<Literal>(x & y);
            cof[v] = (y == 0b01 || y == 0b10) ? Literal::DC : a[v];
        }
        SCOPED_TRACE("round " + std::to_string(round) + " a=" + ca.to_string() +
                     " b=" + cb.to_string());
        EXPECT_EQ(ca.distance(cb), distance);
        EXPECT_EQ(ca.intersects(cb), distance == 0);
        EXPECT_EQ(ca.contains(cb), contains);
        EXPECT_EQ(ca.is_empty(), a_empty);
        EXPECT_EQ(cb.is_full(), b_full);
        EXPECT_EQ(ca.num_literals(), literals);
        EXPECT_EQ(ca == cb, a == b);

        const auto inter = ca.intersect(cb);
        EXPECT_EQ(inter.has_value(), distance == 0);
        if (inter) expect_cube(*inter, meet);
        expect_cube(ca.supercube(cb), join);
        const auto consensus = ca.consensus(cb);
        EXPECT_EQ(consensus.has_value(), distance == 1);
        if (consensus) expect_cube(*consensus, cons);
        if (distance == 0) expect_cube(ca.cofactor(cb), cof);
    }
}

TEST_P(CubeStorage, FullCubeAndStringRoundTrip) {
    const int n = GetParam();
    const Cube full(n);
    EXPECT_TRUE(full.is_full());
    EXPECT_FALSE(full.is_empty());
    EXPECT_EQ(full.num_literals(), 0);
    EXPECT_EQ(full.to_string(), std::string(static_cast<std::size_t>(n), '-'));
    Rng rng(5000 + static_cast<std::uint64_t>(n));
    std::string s;
    for (int v = 0; v < n; ++v) s.push_back("01-"[rng.next_below(3)]);
    const Cube c = Cube::from_string(s);
    EXPECT_EQ(c.to_string(), s);
    Cube last = full;
    last.set(n - 1, Literal::Empty);
    EXPECT_TRUE(last.is_empty());
    EXPECT_FALSE(last.is_full());
    EXPECT_FALSE(last.intersects(full));
    EXPECT_EQ(last.distance(full), 1);
}

INSTANTIATE_TEST_SUITE_P(InlineAndHeap, CubeStorage,
                         ::testing::Values(31, 32, 33, 64, 65));

}  // namespace
}  // namespace janus
