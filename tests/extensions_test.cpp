#include <gtest/gtest.h>

#include <memory>

#include "janus/logic/aig_rewrite.hpp"
#include "janus/logic/equivalence.hpp"
#include "janus/logic/tech_map.hpp"
#include "janus/netlist/generator.hpp"
#include "janus/timing/sizing.hpp"

namespace janus {
namespace {

std::shared_ptr<const CellLibrary> lib28() {
    static const auto lib = std::make_shared<const CellLibrary>(
        make_default_library(*find_node("28nm")));
    return lib;
}

// ------------------------------------------------------------- equivalence

TEST(Equivalence, ProvesOptimizedDesignEqual) {
    const Netlist golden = generate_adder(lib28(), 6);
    const Aig aig = optimize(Aig::from_netlist(golden));
    const Netlist mapped = tech_map(aig, lib28());
    const auto res = check_equivalence(golden, mapped);
    EXPECT_TRUE(res.equivalent);
    EXPECT_EQ(res.method, "proved");
    EXPECT_EQ(res.vectors_checked, std::size_t{1} << 13);
}

TEST(Equivalence, FindsCounterexampleExactly) {
    // Two designs differing on exactly one minterm.
    Netlist a(lib28(), "a");
    const NetId x = a.add_primary_input("x");
    const NetId y = a.add_primary_input("y");
    const InstId ga = a.add_instance("g", *a.library().find("AND2_X1"), {x, y});
    a.add_primary_output("o", a.instance(ga).output);

    Netlist b(lib28(), "b");
    const NetId x2 = b.add_primary_input("x");
    const NetId y2 = b.add_primary_input("y");
    const InstId gb = b.add_instance("g", *b.library().find("OR2_X1"), {x2, y2});
    b.add_primary_output("o", b.instance(gb).output);

    const auto res = check_equivalence(a, b);
    EXPECT_FALSE(res.equivalent);
    ASSERT_TRUE(res.counterexample.has_value());
    // AND and OR differ on {01, 10}: the counterexample must be one of them.
    EXPECT_TRUE(*res.counterexample == 1 || *res.counterexample == 2);
}

TEST(Equivalence, LargeDesignFallsBackToSampling) {
    GeneratorConfig cfg;
    cfg.num_inputs = 24;  // > exact limit
    cfg.num_gates = 200;
    const Netlist a = generate_random(lib28(), cfg);
    const Netlist b = generate_random(lib28(), cfg);  // identical seed
    const auto res = check_equivalence(a, b);
    EXPECT_TRUE(res.equivalent);
    EXPECT_EQ(res.method, "sampled");
    EXPECT_GT(res.vectors_checked, 1000u);
}

TEST(Equivalence, InterfaceMismatchThrows) {
    const Netlist a = generate_parity(lib28(), 4);
    const Netlist b = generate_parity(lib28(), 5);
    EXPECT_THROW(check_equivalence(a, b), std::invalid_argument);
}

// ------------------------------------------------------------------ sizing

TEST(Sizing, ImprovesCriticalDelayOnLoadedPath) {
    // A chain driving heavy fanout at each stage: X1 everywhere is slow.
    Netlist nl(lib28(), "loaded");
    const auto inv = nl.library().find("INV_X1");
    NetId cur = nl.add_primary_input("a");
    for (int s = 0; s < 10; ++s) {
        const InstId g = nl.add_instance("s" + std::to_string(s), *inv, {cur});
        cur = nl.instance(g).output;
        // Side loads.
        for (int l = 0; l < 6; ++l) {
            const InstId ld = nl.add_instance(
                "l" + std::to_string(s) + "_" + std::to_string(l), *inv, {cur});
            nl.add_primary_output("lo" + std::to_string(s) + "_" + std::to_string(l),
                                  nl.instance(ld).output);
        }
    }
    nl.add_primary_output("y", cur);

    SizingOptions opts;
    opts.sta.clock_period_ps = 100.0;  // unmeetable: size as far as possible
    const SizingResult res = size_for_timing(nl, opts);
    EXPECT_LT(res.delay_after_ps, res.delay_before_ps);
    EXPECT_GT(res.cells_resized, 0);
    EXPECT_GT(res.area_after_um2, res.area_before_um2);  // speed costs area
    EXPECT_TRUE(nl.validate().empty());
}

TEST(Sizing, StopsWhenTimingMet) {
    const Netlist base = generate_adder(lib28(), 4);
    Netlist nl = base;
    SizingOptions opts;
    opts.sta.clock_period_ps = 1e6;  // trivially met
    const SizingResult res = size_for_timing(nl, opts);
    EXPECT_EQ(res.cells_resized, 0);
    EXPECT_EQ(res.passes, 0);
}

TEST(Sizing, PreservesFunction) {
    const Netlist golden = generate_comparator(lib28(), 5);
    Netlist nl = golden;
    SizingOptions opts;
    opts.sta.clock_period_ps = 10.0;
    size_for_timing(nl, opts);
    const auto res = check_equivalence(golden, nl);
    EXPECT_TRUE(res.equivalent);
}

}  // namespace
}  // namespace janus
