#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "janus/dft/compression.hpp"
#include "janus/flow/flow.hpp"
#include "janus/litho/mask.hpp"
#include "janus/logic/bbdd.hpp"
#include "janus/logic/bdd.hpp"
#include "janus/logic/truth_table.hpp"
#include "janus/netlist/generator.hpp"
#include "janus/place/analytic_place.hpp"
#include "janus/place/legalize.hpp"
#include "janus/power/power_grid.hpp"
#include "janus/route/clock_tree.hpp"
#include "janus/route/grid_graph.hpp"

namespace janus {
namespace {

std::shared_ptr<const CellLibrary> lib28() {
    static const auto lib = std::make_shared<const CellLibrary>(
        make_default_library(*find_node("28nm")));
    return lib;
}

// ---------------------------------------------------------------- CTS

TEST(ClockTree, EmptyForCombinationalDesign) {
    const Netlist nl = generate_adder(lib28(), 4);
    const ClockTree ct = build_clock_tree(nl);
    EXPECT_TRUE(ct.nodes.empty());
    EXPECT_EQ(ct.total_wirelength_um, 0.0);
}

TEST(ClockTree, CoversEveryFlopExactlyOnce) {
    GeneratorConfig cfg;
    cfg.num_gates = 600;
    cfg.num_flops = 70;
    Netlist nl = generate_random(lib28(), cfg);
    const PlacementArea area = make_placement_area(nl, *find_node("28nm"));
    analytic_place(nl, area);
    legalize(nl, area);
    const ClockTree ct = build_clock_tree(nl);
    std::size_t leaves = 0;
    for (const ClockNode& n : ct.nodes) leaves += n.leaves.size();
    EXPECT_EQ(leaves, 70u);
    EXPECT_GT(ct.total_wirelength_um, 0.0);
    EXPECT_GT(ct.levels, 1);
    EXPECT_GE(ct.skew_ps(), 0.0);
}

TEST(ClockTree, SmallClusterFitsOneNode) {
    const Netlist nl = generate_counter(lib28(), 4);  // 4 flops, unplaced
    const ClockTree ct = build_clock_tree(nl);
    ASSERT_EQ(ct.nodes.size(), 1u);
    EXPECT_EQ(ct.nodes[0].leaves.size(), 4u);
    EXPECT_EQ(ct.levels, 1);
}

TEST(ClockTree, SkewBoundedByTreeDepthSpread) {
    GeneratorConfig cfg;
    cfg.num_gates = 1200;
    cfg.num_flops = 128;
    Netlist nl = generate_random(lib28(), cfg);
    const PlacementArea area = make_placement_area(nl, *find_node("28nm"));
    analytic_place(nl, area);
    legalize(nl, area);
    const ClockTree ct = build_clock_tree(nl);
    // All leaves sit at the same buffer depth in a bisection tree (within
    // one level), so skew comes from wire-length differences only and
    // must stay well below the total insertion delay.
    EXPECT_LT(ct.skew_ps(), ct.max_insertion_delay_ps);
    EXPECT_GT(clock_tree_power_mw(ct, *find_node("28nm"), 500.0), 0.0);
}

TEST(Flow, ReportsClockAndSizingMetrics) {
    GeneratorConfig cfg;
    cfg.num_gates = 400;
    cfg.num_flops = 30;
    const Netlist nl = generate_random(lib28(), cfg);
    FlowParams params;
    params.stages = FlowStageMask::ClockTree;  // no sizing; CTS on
    const FlowResult r = run_flow(nl, *find_node("28nm"), params);
    EXPECT_GT(r.clock_skew_ps, 0.0);
    EXPECT_GT(r.clock_wirelength_um, 0.0);
}

// --------------------------------------------------------- error handling

TEST(Robustness, InvalidArgumentsThrow) {
    EXPECT_THROW(TruthTable(17), std::invalid_argument);
    EXPECT_THROW(TruthTable(-1), std::invalid_argument);
    EXPECT_THROW(Bdd(-1), std::invalid_argument);
    EXPECT_THROW(Bbdd(0), std::invalid_argument);
    EXPECT_THROW(GridGraph(1, 8, 4.0), std::invalid_argument);
    EXPECT_THROW(Misr(2), std::invalid_argument);
    EXPECT_THROW(LinearDecompressor(0, 4, 4), std::invalid_argument);
    EXPECT_THROW(generate_adder(lib28(), 0), std::invalid_argument);
    EXPECT_THROW(generate_parity(lib28(), -3), std::invalid_argument);
    EXPECT_THROW(generate_mesh(lib28(), 0), std::invalid_argument);
    EXPECT_THROW(Netlist(nullptr), std::invalid_argument);
}

TEST(Robustness, MaskRequiresFeatures) {
    EXPECT_THROW(MaskRaster({}, 2.0, 10.0), std::invalid_argument);
    std::vector<MaskFeature> f{{Rect{0, 0, 10, 10}, 0, 0, 0, 0}};
    EXPECT_THROW(MaskRaster(f, 0.0, 10.0), std::invalid_argument);
}

TEST(Robustness, PowerGridRejectsTinyGrids) {
    PowerGridOptions opts;
    opts.cols = 1;
    EXPECT_THROW(PowerGrid(Rect{0, 0, 100, 100}, 1.0, opts), std::invalid_argument);
}

TEST(Robustness, CombinationalLoopDetected) {
    Netlist nl(lib28(), "loop");
    const NetId a = nl.add_primary_input("a");
    const auto and2 = *nl.library().find("AND2_X1");
    const InstId g0 = nl.add_instance("g0", and2, {a, a});
    const InstId g1 = nl.add_instance("g1", and2, {nl.instance(g0).output, a});
    // Close the loop: g0's second input becomes g1's output.
    nl.connect_input(g0, 1, nl.instance(g1).output);
    EXPECT_THROW(nl.topological_order(), std::runtime_error);
}

TEST(Robustness, DecompressorCatchesBadCubes) {
    LinearDecompressor dec(100, 2, 4);
    TestCube cube;
    cube.care_cells = {200};  // out of range
    cube.care_values = {true};
    EXPECT_THROW(dec.encode(cube), std::out_of_range);
    TestCube lop;
    lop.care_cells = {1, 2};
    lop.care_values = {true};  // size mismatch
    EXPECT_THROW(dec.encode(lop), std::invalid_argument);
}

// ---------------------------------------------------------- property sweep

class MeshScalingTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MeshScalingTest, PlaceAndLegalizeStayConsistent) {
    const std::size_t gates = GetParam();
    Netlist nl = generate_mesh(lib28(), gates, 3, 2);
    EXPECT_TRUE(nl.validate().empty());
    EXPECT_NO_THROW(nl.topological_order());
    const PlacementArea area = make_placement_area(nl, *find_node("28nm"));
    analytic_place(nl, area);
    const LegalizeResult lr = legalize(nl, area);
    EXPECT_TRUE(lr.success);
    EXPECT_TRUE(is_legal(nl, area));
}

INSTANTIATE_TEST_SUITE_P(Sizes, MeshScalingTest,
                         ::testing::Values(50, 500, 2000, 8000));

}  // namespace
}  // namespace janus
