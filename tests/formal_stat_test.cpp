#include <gtest/gtest.h>

#include <memory>

#include "janus/logic/aig.hpp"
#include "janus/logic/aig_rewrite.hpp"
#include "janus/logic/equivalence.hpp"
#include "janus/logic/espresso.hpp"
#include "janus/logic/exact_cover.hpp"
#include "janus/logic/sat.hpp"
#include "janus/logic/tech_map.hpp"
#include "janus/netlist/generator.hpp"
#include "janus/util/rng.hpp"

namespace janus {
namespace {

std::shared_ptr<const CellLibrary> lib28() {
    static const auto lib = std::make_shared<const CellLibrary>(
        make_default_library(*find_node("28nm")));
    return lib;
}

// --------------------------------------------------------------------- sat

TEST(Sat, SolvesTinyFormulas) {
    SatSolver s;
    const auto a = s.new_var();
    const auto b = s.new_var();
    s.add_clause({sat_lit(a, false), sat_lit(b, false)});
    s.add_clause({sat_lit(a, true), sat_lit(b, false)});
    EXPECT_EQ(s.solve(), SatSolver::Result::Sat);
    EXPECT_TRUE(s.model_value(b));
}

TEST(Sat, DetectsUnsat) {
    SatSolver s;
    const auto a = s.new_var();
    s.add_clause({sat_lit(a, false)});
    s.add_clause({sat_lit(a, true)});
    EXPECT_EQ(s.solve(), SatSolver::Result::Unsat);
}

TEST(Sat, TautologicalClauseIgnored) {
    SatSolver s;
    const auto a = s.new_var();
    s.add_clause({sat_lit(a, false), sat_lit(a, true)});  // tautology
    EXPECT_EQ(s.num_clauses(), 0u);
    EXPECT_EQ(s.solve(), SatSolver::Result::Sat);
}

TEST(Sat, ProvesSynthesisEquivalenceOnWideDesign) {
    // 24 inputs: beyond the truth-table limit; SAT proves it.
    GeneratorConfig cfg;
    cfg.num_inputs = 24;
    cfg.num_gates = 150;
    cfg.seed = 3;
    const Netlist nl = generate_random(lib28(), cfg);
    const Aig raw = Aig::from_netlist(nl).cleanup();
    const Aig opt = optimize(raw);
    const auto eq = sat_equivalent(raw, opt);
    ASSERT_TRUE(eq.has_value());
    EXPECT_TRUE(*eq);
}

TEST(Sat, FindsRealDifference) {
    Aig a, b;
    const AigLit xa = a.add_input("x");
    const AigLit ya = a.add_input("y");
    a.add_output("o", a.land(xa, ya));
    const AigLit xb = b.add_input("x");
    const AigLit yb = b.add_input("y");
    b.add_output("o", b.lor(xb, yb));
    const auto eq = sat_equivalent(a, b);
    ASSERT_TRUE(eq.has_value());
    EXPECT_FALSE(*eq);
}

// ------------------------------------------------------------- exact cover

TEST(ExactCover, MatchesKnownMinima) {
    // f = x0 over 3 vars: one prime, one cube.
    const auto x0 = TruthTable::variable(3, 0);
    const auto res = exact_minimize(x0);
    EXPECT_TRUE(res.optimal);
    EXPECT_EQ(res.cover.size(), 1u);
    EXPECT_EQ(res.cover.to_truth_table(), x0);

    // 3-input XOR: exactly 4 cubes, no sharing possible.
    const auto x = TruthTable::variable(3, 0) ^ TruthTable::variable(3, 1) ^
                   TruthTable::variable(3, 2);
    const auto rx = exact_minimize(x);
    EXPECT_EQ(rx.cover.size(), 4u);
    EXPECT_EQ(rx.cover.to_truth_table(), x);
}

TEST(ExactCover, EspressoNeverBeatsExact) {
    Rng rng(7);
    for (int trial = 0; trial < 15; ++trial) {
        TruthTable tt(5);
        for (std::uint64_t m = 0; m < 32; ++m) tt.set_bit(m, rng.next_bool(0.4));
        const auto exact = exact_minimize(tt);
        const auto heur = espresso(Cover::from_truth_table(tt));
        ASSERT_TRUE(exact.optimal);
        EXPECT_EQ(heur.cover.to_truth_table(), tt);
        EXPECT_GE(heur.cover.size(), exact.cover.size()) << "trial " << trial;
        // Espresso should be close to optimal (within 1.5x on small funcs).
        EXPECT_LE(heur.cover.size(),
                  (exact.cover.size() * 3 + 1) / 2 + 1)
            << "trial " << trial;
    }
}

TEST(ExactCover, DontCaresReduceCubes) {
    // ON = {000}; DC = everything with x2 = 0 except 000's complement set.
    TruthTable on(3);
    on.set_bit(0, true);
    TruthTable dc(3);
    dc.set_bit(0b001, true);
    dc.set_bit(0b010, true);
    dc.set_bit(0b011, true);
    const auto res = exact_minimize(on, dc);
    ASSERT_EQ(res.cover.size(), 1u);
    EXPECT_LE(res.cover.num_literals(), 1);
}

}  // namespace
}  // namespace janus
