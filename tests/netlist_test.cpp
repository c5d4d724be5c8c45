#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <sstream>
#include <vector>

#include "janus/dft/fault_sim.hpp"
#include "janus/logic/aig.hpp"
#include "janus/netlist/cell_library.hpp"
#include "janus/netlist/generator.hpp"
#include "janus/netlist/io.hpp"
#include "janus/netlist/netlist.hpp"
#include "janus/netlist/technology.hpp"

namespace janus {
namespace {

std::shared_ptr<const CellLibrary> lib28() {
    static const auto lib = std::make_shared<const CellLibrary>(
        make_default_library(*find_node("28nm")));
    return lib;
}

// -------------------------------------------------------------- technology

TEST(Technology, StandardNodesPresent) {
    EXPECT_GE(standard_nodes().size(), 11u);
    EXPECT_TRUE(find_node("180nm").has_value());
    EXPECT_TRUE(find_node("5nm").has_value());
    EXPECT_FALSE(find_node("3nm").has_value());
}

TEST(Technology, PatterningFactorMatchesPanelClaims) {
    // The panel: multi-patterning starts at 20 nm; 80 nm is the single-
    // pattern pitch limit.
    EXPECT_EQ(find_node("28nm")->patterning_factor(), 1);
    EXPECT_EQ(find_node("20nm")->patterning_factor(), 2);
    EXPECT_EQ(find_node("10nm")->patterning_factor(), 2);
    EXPECT_GE(find_node("7nm")->patterning_factor(), 3);
}

TEST(Technology, MonotoneTrends) {
    const auto& nodes = standard_nodes();
    for (std::size_t i = 1; i < nodes.size(); ++i) {
        EXPECT_LT(nodes[i].feature_nm, nodes[i - 1].feature_nm);
        EXPECT_LE(nodes[i].vdd, nodes[i - 1].vdd);
        EXPECT_LT(nodes[i].gate_delay_ps, nodes[i - 1].gate_delay_ps);
        EXPECT_GT(nodes[i].mask_set_cost_musd, nodes[i - 1].mask_set_cost_musd);
        EXPECT_GT(nodes[i].transistors_per_mm2_m, nodes[i - 1].transistors_per_mm2_m);
    }
}

// ------------------------------------------------------------ cell library

TEST(CellLibrary, FunctionEvaluation) {
    EXPECT_TRUE(evaluate_function(CellFunction::Nand2, 0b01));
    EXPECT_FALSE(evaluate_function(CellFunction::Nand2, 0b11));
    EXPECT_TRUE(evaluate_function(CellFunction::Xor2, 0b10));
    EXPECT_FALSE(evaluate_function(CellFunction::Xor2, 0b11));
    EXPECT_TRUE(evaluate_function(CellFunction::Maj3, 0b011));
    EXPECT_FALSE(evaluate_function(CellFunction::Maj3, 0b100));
    // MUX2: bit0=sel, bit1=a, bit2=b; output = sel ? b : a.
    EXPECT_TRUE(evaluate_function(CellFunction::Mux2, 0b101));   // sel=1 -> b=1
    EXPECT_TRUE(evaluate_function(CellFunction::Mux2, 0b010));   // sel=0 -> a=1
    EXPECT_FALSE(evaluate_function(CellFunction::Mux2, 0b100));  // sel=0 -> a=0
    EXPECT_FALSE(evaluate_function(CellFunction::Mux2, 0b011));  // sel=1 -> b=0
}

TEST(CellLibrary, Aoi21Oai21) {
    // AOI21 = !((a & b) | c), inputs a=bit0 b=bit1 c=bit2.
    EXPECT_TRUE(evaluate_function(CellFunction::Aoi21, 0b000));
    EXPECT_FALSE(evaluate_function(CellFunction::Aoi21, 0b011));
    EXPECT_FALSE(evaluate_function(CellFunction::Aoi21, 0b100));
    // OAI21 = !((a | b) & c).
    EXPECT_TRUE(evaluate_function(CellFunction::Oai21, 0b011));
    EXPECT_FALSE(evaluate_function(CellFunction::Oai21, 0b101));
}

TEST(CellLibrary, SequentialThrowsOnEvaluate) {
    EXPECT_THROW(evaluate_function(CellFunction::Dff, 0), std::logic_error);
}

TEST(CellLibrary, FourViewsOfEveryFunctionAgree) {
    // Scalar evaluation, netlist simulation, 64-way batch simulation and the
    // AIG built from a one-gate netlist must give the same value for every
    // combinational function of the default library on every assignment.
    const auto lib = lib28();
    std::vector<CellFunction> functions;
    for (const CellType& c : lib->cells()) {
        if (!is_sequential(c.function) &&
            std::find(functions.begin(), functions.end(), c.function) == functions.end()) {
            functions.push_back(c.function);
        }
    }
    ASSERT_EQ(functions.size(), 23u);
    for (const CellFunction fn : functions) {
        SCOPED_TRACE(function_name(fn));
        const int arity = function_arity(fn);
        Netlist nl(lib, "one_gate");
        std::vector<NetId> pins;
        for (int p = 0; p < arity; ++p) {
            pins.push_back(nl.add_primary_input(std::string(1, static_cast<char>('a' + p))));
        }
        const InstId g = nl.add_instance("g", *lib->find_function(fn), pins);
        const NetId y = nl.instance(g).output;
        nl.add_primary_output("y", y);

        // All 2^arity assignments in one batch: bit m of slot p is bit p of m.
        const unsigned assignments = 1u << arity;
        PatternBatch batch;
        batch.count = static_cast<int>(assignments);
        for (int p = 0; p < arity; ++p) {
            std::uint64_t w = 0;
            for (unsigned m = 0; m < assignments; ++m) {
                if ((m >> p) & 1u) w |= 1ull << m;
            }
            batch.words.push_back(w);
        }
        const std::uint64_t sim = simulate_batch(nl, batch)[y];
        const TruthTable aig = Aig::from_netlist(nl).output_truth_tables().at(0);
        for (unsigned m = 0; m < assignments; ++m) {
            SCOPED_TRACE("assignment " + std::to_string(m));
            const bool want = evaluate_function(fn, m);
            std::vector<bool> pi;
            for (int p = 0; p < arity; ++p) pi.push_back((m >> p) & 1u);
            EXPECT_EQ(nl.evaluate(pi, {})[y], want);
            EXPECT_EQ(((sim >> m) & 1u) != 0, want);
            EXPECT_EQ(aig.bit(m), want);
        }
    }
    EXPECT_THROW(evaluate_function(CellFunction::Dff, 0), std::logic_error);
    EXPECT_THROW(evaluate_function(CellFunction::ScanDff, 0), std::logic_error);
}

TEST(CellLibrary, DefaultLibraryComplete) {
    const auto lib = lib28();
    // Every combinational function and the flops must be present.
    for (CellFunction fn : {CellFunction::Inv, CellFunction::Nand2,
                            CellFunction::Xor2, CellFunction::Mux2,
                            CellFunction::Maj3, CellFunction::Dff,
                            CellFunction::ScanDff}) {
        EXPECT_TRUE(lib->find_function(fn).has_value()) << function_name(fn);
    }
    EXPECT_TRUE(lib->find("NAND2_X1").has_value());
    EXPECT_TRUE(lib->find("NAND2_X4").has_value());
    EXPECT_FALSE(lib->find("NAND2_X8").has_value());
}

TEST(CellLibrary, VariantsSortedByDrive) {
    const auto lib = lib28();
    const auto v = lib->variants(CellFunction::Inv);
    ASSERT_EQ(v.size(), 3u);
    EXPECT_EQ(lib->cell(v[0]).drive, 1);
    EXPECT_EQ(lib->cell(v[1]).drive, 2);
    EXPECT_EQ(lib->cell(v[2]).drive, 4);
    EXPECT_LT(lib->cell(v[0]).area_um2, lib->cell(v[2]).area_um2);
    EXPECT_GT(lib->cell(v[0]).drive_res_kohm, lib->cell(v[2]).drive_res_kohm);
}

TEST(CellLibrary, AreaScalesWithNode) {
    const auto lib180 = make_default_library(*find_node("180nm"));
    const auto lib28v = make_default_library(*find_node("28nm"));
    const auto i180 = lib180.find("INV_X1");
    const auto i28 = lib28v.find("INV_X1");
    ASSERT_TRUE(i180 && i28);
    EXPECT_GT(lib180.cell(*i180).area_um2, 10 * lib28v.cell(*i28).area_um2);
}

// ----------------------------------------------------------------- netlist

TEST(Netlist, BuildSmallCircuit) {
    Netlist nl(lib28(), "small");
    const NetId a = nl.add_primary_input("a");
    const NetId b = nl.add_primary_input("b");
    const auto nand2 = nl.library().find("NAND2_X1");
    ASSERT_TRUE(nand2);
    const InstId g = nl.add_instance("g0", *nand2, {a, b});
    nl.add_primary_output("y", nl.instance(g).output);

    EXPECT_EQ(nl.num_instances(), 1u);
    EXPECT_EQ(nl.primary_inputs().size(), 2u);
    EXPECT_TRUE(nl.validate().empty());
    EXPECT_EQ(nl.logic_depth(), 1);
}

TEST(Netlist, ArityMismatchThrows) {
    Netlist nl(lib28(), "t");
    const NetId a = nl.add_primary_input("a");
    const auto nand2 = nl.library().find("NAND2_X1");
    EXPECT_THROW(nl.add_instance("g", *nand2, {a}), std::invalid_argument);
}

TEST(Netlist, EvaluateCombinational) {
    // y = (a NAND b) XOR c
    Netlist nl(lib28(), "t");
    const NetId a = nl.add_primary_input("a");
    const NetId b = nl.add_primary_input("b");
    const NetId c = nl.add_primary_input("c");
    const InstId g0 = nl.add_instance("g0", *nl.library().find("NAND2_X1"), {a, b});
    const InstId g1 = nl.add_instance(
        "g1", *nl.library().find("XOR2_X1"), {nl.instance(g0).output, c});
    nl.add_primary_output("y", nl.instance(g1).output);

    for (unsigned v = 0; v < 8; ++v) {
        const bool av = v & 1, bv = v & 2, cv = v & 4;
        const auto vals = nl.evaluate({av, bv, cv}, {});
        EXPECT_EQ(vals[nl.instance(g1).output], (!(av && bv)) != cv);
    }
}

TEST(Netlist, SequentialNextState) {
    // Single flop toggling: D = !Q.
    Netlist nl(lib28(), "toggle");
    const auto dff = nl.library().find("DFF_X1");
    const auto inv = nl.library().find("INV_X1");
    const NetId dummy = nl.add_primary_input("dummy");
    (void)dummy;
    // Build flop with temporary D, then rewire to the inverter of its Q.
    const InstId f = nl.add_instance("f", *dff, {dummy});
    const InstId g = nl.add_instance("inv", *inv, {nl.instance(f).output});
    nl.connect_input(f, 0, nl.instance(g).output);
    nl.add_primary_output("q", nl.instance(f).output);

    std::vector<bool> state{false};
    state = nl.next_state({false}, state);
    EXPECT_TRUE(state[0]);
    state = nl.next_state({false}, state);
    EXPECT_FALSE(state[0]);
}

TEST(Netlist, TopologicalOrderRespectsDeps) {
    const Netlist nl = generate_random(lib28(), {});
    const auto order = nl.topological_order();
    std::vector<int> pos(nl.num_instances(), -1);
    for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = static_cast<int>(i);
    for (const InstId i : order) {
        const auto& inst = nl.instance(i);
        const int arity = function_arity(nl.type_of(i).function);
        for (int p = 0; p < arity; ++p) {
            const Net& n = nl.net(inst.fanin[static_cast<std::size_t>(p)]);
            if (n.driver_kind == DriverKind::Instance &&
                !is_sequential(nl.type_of(n.driver_inst).function)) {
                EXPECT_LT(pos[n.driver_inst], pos[i]);
            }
        }
    }
}

TEST(Netlist, FanoutCountsPrimaryOutputs) {
    Netlist nl(lib28(), "t");
    const NetId a = nl.add_primary_input("a");
    const InstId g0 = nl.add_instance("g0", *nl.library().find("INV_X1"), {a});
    const InstId g1 = nl.add_instance("g1", *nl.library().find("INV_X1"), {a});
    (void)g0;
    (void)g1;
    nl.add_primary_output("y", a);
    EXPECT_EQ(nl.fanout_count(a), 3u);
    EXPECT_EQ(nl.sinks(a).size(), 2u);
}

// --------------------------------------------------------------- generator

TEST(Generator, RandomIsValidAndDeterministic) {
    GeneratorConfig cfg;
    cfg.num_gates = 500;
    cfg.num_flops = 20;
    cfg.seed = 123;
    const Netlist a = generate_random(lib28(), cfg);
    const Netlist b = generate_random(lib28(), cfg);
    EXPECT_TRUE(a.validate().empty());
    EXPECT_EQ(a.num_instances(), b.num_instances());
    EXPECT_EQ(netlist_to_string(a), netlist_to_string(b));
    EXPECT_EQ(a.sequential_instances().size(), 20u);
    EXPECT_NO_THROW(a.topological_order());
}

TEST(Generator, AdderComputesCorrectSums) {
    const int bits = 6;
    const Netlist nl = generate_adder(lib28(), bits);
    EXPECT_TRUE(nl.validate().empty());
    Rng rng(5);
    for (int trial = 0; trial < 50; ++trial) {
        const unsigned av = static_cast<unsigned>(rng.next_below(1u << bits));
        const unsigned bv = static_cast<unsigned>(rng.next_below(1u << bits));
        const bool cin = rng.next_bool();
        std::vector<bool> pis;
        for (int i = 0; i < bits; ++i) pis.push_back(av & (1u << i));
        for (int i = 0; i < bits; ++i) pis.push_back(bv & (1u << i));
        pis.push_back(cin);
        const auto vals = nl.evaluate(pis, {});
        const unsigned expect = av + bv + (cin ? 1 : 0);
        unsigned got = 0;
        for (std::size_t o = 0; o < nl.primary_outputs().size(); ++o) {
            if (vals[nl.primary_outputs()[o].second]) got |= (1u << o);
        }
        EXPECT_EQ(got, expect) << "a=" << av << " b=" << bv << " cin=" << cin;
    }
}

TEST(Generator, ParityIsCorrect) {
    const int n = 9;
    const Netlist nl = generate_parity(lib28(), n);
    Rng rng(6);
    for (int trial = 0; trial < 40; ++trial) {
        std::vector<bool> pis;
        bool expect = false;
        for (int i = 0; i < n; ++i) {
            const bool v = rng.next_bool();
            pis.push_back(v);
            expect = expect != v;
        }
        const auto vals = nl.evaluate(pis, {});
        EXPECT_EQ(vals[nl.primary_outputs()[0].second], expect);
    }
}

TEST(Generator, ComparatorIsCorrect) {
    const int bits = 5;
    const Netlist nl = generate_comparator(lib28(), bits);
    Rng rng(7);
    for (int trial = 0; trial < 60; ++trial) {
        const unsigned av = static_cast<unsigned>(rng.next_below(1u << bits));
        const unsigned bv = rng.next_bool(0.3)
                                ? av
                                : static_cast<unsigned>(rng.next_below(1u << bits));
        std::vector<bool> pis;
        for (int i = 0; i < bits; ++i) pis.push_back(av & (1u << i));
        for (int i = 0; i < bits; ++i) pis.push_back(bv & (1u << i));
        const auto vals = nl.evaluate(pis, {});
        EXPECT_EQ(vals[nl.primary_outputs()[0].second], av == bv);
    }
}

TEST(Generator, CounterCounts) {
    const int bits = 4;
    const Netlist nl = generate_counter(lib28(), bits);
    EXPECT_TRUE(nl.validate().empty());
    std::vector<bool> state(static_cast<std::size_t>(bits), false);
    unsigned value = 0;
    for (int cycle = 0; cycle < 20; ++cycle) {
        state = nl.next_state({true}, state);
        value = (value + 1) & ((1u << bits) - 1);
        unsigned got = 0;
        for (int i = 0; i < bits; ++i) {
            if (state[static_cast<std::size_t>(i)]) got |= (1u << i);
        }
        EXPECT_EQ(got, value) << "cycle " << cycle;
    }
    // With enable low the counter holds.
    const auto held = nl.next_state({false}, state);
    EXPECT_EQ(held, state);
}

TEST(Generator, MultiplierMultiplies) {
    const int bits = 4;
    const Netlist nl = generate_multiplier(lib28(), bits);
    EXPECT_TRUE(nl.validate().empty());
    for (unsigned av = 0; av < (1u << bits); ++av) {
        for (unsigned bv = 0; bv < (1u << bits); bv += 3) {
            std::vector<bool> pis;
            for (int i = 0; i < bits; ++i) pis.push_back(av & (1u << i));
            for (int i = 0; i < bits; ++i) pis.push_back(bv & (1u << i));
            const auto vals = nl.evaluate(pis, {});
            unsigned got = 0;
            for (std::size_t o = 0; o < nl.primary_outputs().size(); ++o) {
                if (vals[nl.primary_outputs()[o].second]) got |= (1u << o);
            }
            EXPECT_EQ(got, av * bv) << av << "*" << bv;
        }
    }
}

// ---------------------------------------------------------------------- io

TEST(NetlistIo, RoundTripPreservesBehaviour) {
    const Netlist orig = generate_adder(lib28(), 4);
    const std::string text = netlist_to_string(orig);
    const Netlist back = netlist_from_string(text, lib28());
    EXPECT_TRUE(back.validate().empty());
    EXPECT_EQ(back.num_instances(), orig.num_instances());
    EXPECT_EQ(back.primary_inputs().size(), orig.primary_inputs().size());
    EXPECT_EQ(back.primary_outputs().size(), orig.primary_outputs().size());
    // Behavioural equivalence on random vectors.
    Rng rng(8);
    for (int t = 0; t < 30; ++t) {
        std::vector<bool> pis;
        for (std::size_t i = 0; i < orig.primary_inputs().size(); ++i) {
            pis.push_back(rng.next_bool());
        }
        const auto va = orig.evaluate(pis, {});
        const auto vb = back.evaluate(pis, {});
        for (std::size_t o = 0; o < orig.primary_outputs().size(); ++o) {
            EXPECT_EQ(va[orig.primary_outputs()[o].second],
                      vb[back.primary_outputs()[o].second]);
        }
    }
}

TEST(NetlistIo, RejectsUnknownCell) {
    const std::string text = "design t\ninput a na\ninst g BOGUS_X9 ny na\n";
    EXPECT_THROW(netlist_from_string(text, lib28()), std::runtime_error);
}

TEST(NetlistIo, RejectsUndefinedNet) {
    const std::string text =
        "design t\ninput a na\ninst g INV_X1 ny nz\noutput y ny\n";
    EXPECT_THROW(netlist_from_string(text, lib28()), std::runtime_error);
}

TEST(NetlistIo, RejectsArityMismatch) {
    const std::string text = "design t\ninput a na\ninst g NAND2_X1 ny na\n";
    EXPECT_THROW(netlist_from_string(text, lib28()), std::runtime_error);
}

TEST(NetlistIo, CommentsAndBlanksIgnored)  {
    const std::string text =
        "# header\ndesign t\n\ninput a na  # the input\ninst g INV_X1 ny na\noutput y ny\n";
    const Netlist nl = netlist_from_string(text, lib28());
    EXPECT_EQ(nl.num_instances(), 1u);
    EXPECT_TRUE(nl.validate().empty());
}

}  // namespace
}  // namespace janus
