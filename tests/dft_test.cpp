#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "janus/dft/compression.hpp"
#include "janus/dft/fault_sim.hpp"
#include "janus/dft/scan.hpp"
#include "janus/dft/test_cost.hpp"
#include "janus/netlist/generator.hpp"
#include "janus/place/analytic_place.hpp"
#include "janus/place/legalize.hpp"
#include "janus/util/rng.hpp"

namespace janus {
namespace {

std::shared_ptr<const CellLibrary> lib28() {
    static const auto lib = std::make_shared<const CellLibrary>(
        make_default_library(*find_node("28nm")));
    return lib;
}

Netlist sequential_design(std::size_t gates, std::size_t flops, std::uint64_t seed) {
    GeneratorConfig cfg;
    cfg.num_gates = gates;
    cfg.num_flops = flops;
    cfg.seed = seed;
    return generate_random(lib28(), cfg);
}

// -------------------------------------------------------------------- scan

TEST(Scan, InsertConvertsAllFlopsAndChains) {
    Netlist nl = sequential_design(200, 30, 1);
    const ScanInsertion si = insert_scan(nl, 3);
    EXPECT_EQ(si.chains.size(), 3u);
    std::size_t chained = 0;
    for (const auto& c : si.chains) chained += c.flops.size();
    EXPECT_EQ(chained, 30u);
    for (const InstId f : nl.sequential_instances()) {
        EXPECT_EQ(nl.type_of(f).function, CellFunction::ScanDff);
    }
    EXPECT_TRUE(nl.validate().empty());
}

TEST(Scan, ShiftMovesDataThroughChain) {
    Netlist nl = sequential_design(50, 8, 2);
    const ScanInsertion si = insert_scan(nl, 1);
    ASSERT_EQ(si.chains.size(), 1u);
    const auto& chain = si.chains[0];

    // With scan_enable high, shifting a 1 through: after k clocks the k-th
    // flop holds the value.
    std::vector<bool> state(nl.sequential_instances().size(), false);
    // Input order: original PIs..., then scan_enable, then scan_in0.
    const std::size_t npis = nl.primary_inputs().size();
    std::vector<bool> pis(npis, false);
    pis[npis - 2] = true;  // scan_enable
    pis[npis - 1] = true;  // scan_in = 1
    state = nl.next_state(pis, state);
    // Map: which state index is the first chain flop?
    const auto seq = nl.sequential_instances();
    const auto state_index = [&](InstId f) {
        for (std::size_t i = 0; i < seq.size(); ++i) {
            if (seq[i] == f) return i;
        }
        return seq.size();
    };
    EXPECT_TRUE(state[state_index(chain.flops[0])]);
    // Shift a 0 next; the 1 moves to flop 1.
    pis[npis - 1] = false;
    state = nl.next_state(pis, state);
    EXPECT_FALSE(state[state_index(chain.flops[0])]);
    EXPECT_TRUE(state[state_index(chain.flops[1])]);
}

TEST(Scan, ReorderShortensWirelength) {
    Netlist nl = sequential_design(600, 60, 3);
    ScanInsertion si = insert_scan(nl, 2);
    const PlacementArea area = make_placement_area(nl, *find_node("28nm"));
    analytic_place(nl, area);
    legalize(nl, area);
    const ReorderResult rr = reorder_scan(nl, si);
    EXPECT_LT(rr.after_um, rr.before_um);
    EXPECT_GT(rr.improvement(), 0.3);  // placement-blind order is terrible
    EXPECT_TRUE(nl.validate().empty());
}

// --------------------------------------------------------------- fault sim

TEST(FaultSim, DetectsInjectedFaultOnInverter) {
    Netlist nl(lib28(), "inv");
    const NetId a = nl.add_primary_input("a");
    const InstId g = nl.add_instance("g", *nl.library().find("INV_X1"), {a});
    nl.add_primary_output("y", nl.instance(g).output);

    PatternBatch batch;
    batch.words = {0b01};  // pattern0: a=1, pattern1: a=0
    batch.count = 2;
    const auto faults = enumerate_faults(nl);
    const auto res = fault_simulate(nl, {batch}, faults);
    // Both SA0/SA1 on both nets are detectable with the two patterns.
    EXPECT_EQ(res.detected, faults.size());
}

TEST(FaultSim, RedundantFaultStaysUndetected) {
    // y = a | !a is constant 1: faults on a are undetectable.
    Netlist nl(lib28(), "taut");
    const NetId a = nl.add_primary_input("a");
    const InstId inv = nl.add_instance("i", *nl.library().find("INV_X1"), {a});
    const InstId orr = nl.add_instance("o", *nl.library().find("OR2_X1"),
                                       {a, nl.instance(inv).output});
    nl.add_primary_output("y", nl.instance(orr).output);
    PatternBatch batch;
    batch.words = {0b01};
    batch.count = 2;
    const auto res = fault_simulate(nl, {batch}, enumerate_faults(nl));
    bool a_sa0_undetected = false;
    for (const Fault& f : res.undetected) {
        if (f.net == a && !f.stuck_value) a_sa0_undetected = true;
    }
    EXPECT_TRUE(a_sa0_undetected);
}

TEST(FaultSim, BatchSimulationMatchesScalar) {
    const Netlist nl = generate_adder(lib28(), 4);
    Rng rng(11);
    PatternBatch batch;
    batch.words.assign(num_input_slots(nl), 0);
    std::vector<std::vector<bool>> patterns;
    for (int p = 0; p < 64; ++p) {
        std::vector<bool> pat;
        for (std::size_t s = 0; s < batch.words.size(); ++s) {
            const bool v = rng.next_bool();
            pat.push_back(v);
            if (v) batch.words[s] |= (1ull << p);
        }
        patterns.push_back(std::move(pat));
    }
    const auto words = simulate_batch(nl, batch);
    for (int p = 0; p < 64; p += 7) {
        const auto scalar = nl.evaluate(patterns[static_cast<std::size_t>(p)], {});
        for (NetId n = 0; n < nl.num_nets(); ++n) {
            EXPECT_EQ(static_cast<bool>((words[n] >> p) & 1), scalar[n])
                << "net " << n << " pattern " << p;
        }
    }
}

// ------------------------------------------------------------- compression

TEST(Compression, ExpandIsLinear) {
    LinearDecompressor dec(200, 4, 8, 5);
    Rng rng(13);
    std::vector<bool> x1(dec.channel_bits()), x2(dec.channel_bits());
    for (std::size_t i = 0; i < x1.size(); ++i) {
        x1[i] = rng.next_bool();
        x2[i] = rng.next_bool();
    }
    const auto e1 = dec.expand(x1);
    const auto e2 = dec.expand(x2);
    std::vector<bool> xsum(x1.size());
    for (std::size_t i = 0; i < x1.size(); ++i) xsum[i] = x1[i] != x2[i];
    const auto esum = dec.expand(xsum);
    for (std::size_t c = 0; c < 200; ++c) {
        EXPECT_EQ(esum[c], e1[c] != e2[c]) << c;  // f(x1^x2) = f(x1)^f(x2)
    }
}

TEST(Compression, EncodesSparseCubes) {
    LinearDecompressor dec(1000, 4, 10, 7);
    EXPECT_GT(dec.compression_ratio(), 2.0);
    Rng rng(17);
    int success = 0;
    for (int trial = 0; trial < 20; ++trial) {
        TestCube cube;
        // 5% care-bit density — typical of deterministic cubes.
        std::set<std::uint32_t> cells;
        while (cells.size() < 50) {
            cells.insert(static_cast<std::uint32_t>(rng.next_below(1000)));
        }
        for (const auto c : cells) {
            cube.care_cells.push_back(c);
            cube.care_values.push_back(rng.next_bool());
        }
        const auto enc = dec.encode(cube);
        if (!enc) continue;
        ++success;
        const auto cellsv = dec.expand(*enc);
        for (std::size_t i = 0; i < cube.care_cells.size(); ++i) {
            EXPECT_EQ(cellsv[cube.care_cells[i]], cube.care_values[i]);
        }
    }
    EXPECT_GE(success, 18);  // dense-enough system solves w.h.p.
}

TEST(Compression, OverconstrainedCubeFails) {
    // More care bits than channel bits cannot encode.
    LinearDecompressor dec(64, 1, 32, 3);  // 2 cycles * 1 channel = 2 bits
    TestCube cube;
    for (std::uint32_t c = 0; c < 64; ++c) {
        cube.care_cells.push_back(c);
        cube.care_values.push_back((c * 7 + 1) % 3 == 0);
    }
    EXPECT_FALSE(dec.encode(cube).has_value());
}

TEST(Compression, MisrDistinguishesResponses) {
    Misr m1(16), m2(16);
    for (int i = 0; i < 100; ++i) {
        m1.absorb(static_cast<std::uint64_t>(i) * 2654435761u);
        m2.absorb(static_cast<std::uint64_t>(i) * 2654435761u + (i == 50 ? 1 : 0));
    }
    EXPECT_NE(m1.signature(), m2.signature());
    EXPECT_LT(m1.aliasing_probability(), 1e-4);
}

TEST(Compression, MisrDeterministic) {
    Misr a(24), b(24);
    for (int i = 0; i < 32; ++i) {
        a.absorb(static_cast<std::uint64_t>(i));
        b.absorb(static_cast<std::uint64_t>(i));
    }
    EXPECT_EQ(a.signature(), b.signature());
}

// --------------------------------------------------------------- test cost

TEST(TestCost, CompressionCutsPinsAndCost) {
    TestArchitecture flat;
    flat.scan_chains = 32;
    flat.scan_cells_total = 50000;
    flat.compression = false;
    TestArchitecture edt = flat;
    edt.compression = true;
    edt.channels = 2;
    edt.compression_ratio = 16.0;
    const auto c_flat = evaluate_test_cost(flat);
    const auto c_edt = evaluate_test_cost(edt);
    EXPECT_LT(c_edt.tester_pins, c_flat.tester_pins);
    EXPECT_LT(c_edt.package_cost_usd, c_flat.package_cost_usd);
    EXPECT_LT(c_edt.total_cost_usd, c_flat.total_cost_usd);
}

TEST(TestCost, MorePatternsMoreTime) {
    TestArchitecture arch;
    TestCostOptions few;
    few.patterns = 500;
    TestCostOptions many;
    many.patterns = 5000;
    EXPECT_LT(evaluate_test_cost(arch, few).test_time_ms,
              evaluate_test_cost(arch, many).test_time_ms);
}

}  // namespace
}  // namespace janus
