/// Unit coverage for the megascale storage overhaul (docs/MEGASCALE.md):
/// memory_bytes() accounting, CSR sinks() equivalence against a from-scratch
/// fanin scan across randomized mutations, and open-addressed strash
/// unique-table equivalence (same hit count, same literals) against a
/// reference std::unordered_map. Also the hierarchical flow: top-level
/// legality and wall-clock runtime, pinned floorplan geometry, block
/// placements that hold their cells, do not overlap and keep every cell on
/// one row/site grid, a merged
/// design whose netlist is the input's and whose placement is pinned by
/// hash at every worker count, failed blocks reported through the top
/// record, and inputs rejected or accepted regardless of their net names.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "janus/flow/hier.hpp"
#include "janus/logic/aig.hpp"
#include "janus/netlist/cell_library.hpp"
#include "janus/netlist/generator.hpp"
#include "janus/netlist/io.hpp"
#include "janus/netlist/netlist.hpp"
#include "janus/netlist/technology.hpp"
#include "janus/place/legalize.hpp"
#include "janus/util/name_table.hpp"
#include "janus/util/rng.hpp"

namespace janus {
namespace {

std::shared_ptr<const CellLibrary> lib28() {
    static const auto lib = std::make_shared<const CellLibrary>(
        make_default_library(*find_node("28nm")));
    return lib;
}

/// Random combinational netlist: `pis` primary inputs, `gates` instances of
/// mixed arity, every fanin drawn from the nets created so far.
Netlist make_random_netlist(Rng& rng, std::size_t pis, std::size_t gates) {
    Netlist nl(lib28(), "rand");
    const auto& lib = nl.library();
    std::vector<std::size_t> types;
    for (const char* name :
         {"INV_X1", "NAND2_X1", "NOR2_X2", "XOR2_X1", "AOI21_X1", "MUX2_X1"}) {
        if (const auto id = lib.find(name)) types.push_back(*id);
    }
    EXPECT_GE(types.size(), 3u) << "default library missing expected cells";
    for (std::size_t i = 0; i < pis; ++i) {
        nl.add_primary_input("pi" + std::to_string(i));
    }
    for (std::size_t g = 0; g < gates; ++g) {
        const std::size_t type = types[rng.pick_index(types.size())];
        const int arity = function_arity(lib.cell(type).function);
        std::vector<NetId> fanins;
        for (int p = 0; p < arity; ++p) {
            fanins.push_back(
                static_cast<NetId>(rng.pick_index(nl.num_nets())));
        }
        nl.add_instance("g" + std::to_string(g), type, fanins);
    }
    nl.add_primary_output("po", static_cast<NetId>(nl.num_nets() - 1));
    return nl;
}

/// From-scratch sink scan in the contract order (instance-id-major,
/// pin-minor), computed without touching the CSR cache.
std::vector<std::vector<std::pair<InstId, int>>> scan_sinks(const Netlist& nl) {
    std::vector<std::vector<std::pair<InstId, int>>> by_net(nl.num_nets());
    for (InstId i = 0; i < nl.num_instances(); ++i) {
        const int arity = function_arity(nl.type_of(i).function);
        for (int p = 0; p < arity; ++p) {
            const NetId n = nl.instance(i).fanin[static_cast<std::size_t>(p)];
            if (n != kNoNet) by_net[n].emplace_back(i, p);
        }
    }
    return by_net;
}

void expect_csr_matches_scan(const Netlist& nl) {
    const auto ref = scan_sinks(nl);
    for (NetId n = 0; n < nl.num_nets(); ++n) {
        const auto got = nl.sinks(n);
        ASSERT_EQ(got.size(), ref[n].size()) << "net " << n;
        for (std::size_t s = 0; s < got.size(); ++s) {
            EXPECT_EQ(got[s].inst(), ref[n][s].first) << "net " << n;
            EXPECT_EQ(got[s].pin(), ref[n][s].second) << "net " << n;
        }
    }
}

// ------------------------------------------------------- memory accounting

TEST(MegascaleStorage, MemoryBytesCoversComponents) {
    Rng rng(7);
    Netlist nl = make_random_netlist(rng, 32, 500);
    // The accounting is capacity-based, so it can never report less than
    // the live id arrays plus the interned name pool.
    const std::size_t floor = nl.num_instances() * sizeof(Instance) +
                              nl.num_nets() * sizeof(Net) +
                              nl.names().memory_bytes();
    EXPECT_GE(nl.memory_bytes(), floor);
}

TEST(MegascaleStorage, MemoryBytesGrowsWithDesign) {
    Netlist nl(lib28(), "grow");
    const std::size_t empty = nl.memory_bytes();
    const NetId a = nl.add_primary_input("a");
    const auto nand2 = nl.library().find("NAND2_X1");
    ASSERT_TRUE(nand2.has_value());
    for (int i = 0; i < 200; ++i) {
        nl.add_instance("g" + std::to_string(i), *nand2, {a, a});
    }
    EXPECT_GT(nl.memory_bytes(),
              empty + 200 * (sizeof(Instance) + sizeof(Net)));
}

TEST(MegascaleStorage, MemoryBytesIncludesWarmCaches) {
    Rng rng(9);
    Netlist nl = make_random_netlist(rng, 16, 300);
    nl.shrink_to_fit();
    const std::size_t cold = nl.memory_bytes();
    // Warming the CSR sink cache and the topo cache must show up in the
    // accounting: the pool holds one packed SinkRef per connected pin plus
    // the offsets array.
    (void)nl.sinks(0);
    (void)nl.topological_order();
    std::size_t pins = 0;
    for (const auto& per_net : scan_sinks(nl)) pins += per_net.size();
    const std::size_t warm = nl.memory_bytes();
    EXPECT_GE(warm, cold + pins * sizeof(SinkRef) +
                        (nl.num_nets() + 1) * sizeof(std::uint32_t));
}

TEST(MegascaleStorage, ShrinkToFitNeverGrows) {
    Rng rng(11);
    Netlist nl = make_random_netlist(rng, 16, 777);
    (void)nl.sinks(0);
    (void)nl.topological_order();
    const std::size_t before = nl.memory_bytes();
    nl.shrink_to_fit();
    EXPECT_LE(nl.memory_bytes(), before);
    // Shrinking must not drop the warmed caches' contents.
    expect_csr_matches_scan(nl);
}

TEST(MegascaleStorage, DerivedNetNamesRoundTrip) {
    Netlist nl(lib28(), "names");
    const NetId a = nl.add_primary_input("a");
    const auto inv = nl.library().find("INV_X1");
    ASSERT_TRUE(inv.has_value());
    const InstId g = nl.add_instance("u_core.g0", *inv, {a});
    const NetId out = nl.instance(g).output;
    // Derived output-net names are materialized on demand, never interned:
    // a second instance must not grow the name table by more than its own
    // instance name.
    EXPECT_EQ(nl.net_name(out), "u_core.g0.out");
    EXPECT_EQ(nl.net_name_id("u_core.g0.out"), nl.net(out).name);
    EXPECT_EQ(nl.net_name_id("a"), nl.net(a).name);
    EXPECT_EQ(nl.net_name_id("no.such.net"), kNoName);
}

// ------------------------------------------------------- CSR sink cache

TEST(MegascaleCsr, SinksMatchScanAfterRandomizedMutations) {
    for (const std::uint64_t seed : {21u, 22u}) {
        Rng rng(seed);
        Netlist nl = make_random_netlist(rng, 40, 400);
        expect_csr_matches_scan(nl);
        // Interleave rewires with fresh instances; re-check the CSR from a
        // cold rebuild every batch.
        for (int batch = 0; batch < 4; ++batch) {
            for (int m = 0; m < 60; ++m) {
                const InstId i =
                    static_cast<InstId>(rng.pick_index(nl.num_instances()));
                const int arity = function_arity(nl.type_of(i).function);
                const int pin = static_cast<int>(rng.pick_index(
                    static_cast<std::size_t>(arity)));
                nl.connect_input(
                    i, pin, static_cast<NetId>(rng.pick_index(nl.num_nets())));
            }
            const auto inv = nl.library().find("INV_X1");
            nl.add_instance("m" + std::to_string(batch), *inv,
                            {static_cast<NetId>(rng.pick_index(nl.num_nets()))});
            expect_csr_matches_scan(nl);
        }
    }
}

TEST(MegascaleCsr, SinkRefPacksLosslessly) {
    // 2-bit pin field, 30-bit instance field.
    for (const InstId inst : {0u, 1u, 12345u, (1u << 30) - 1}) {
        for (int pin = 0; pin < kMaxFanin; ++pin) {
            const SinkRef ref{inst, pin};
            EXPECT_EQ(ref.inst(), inst);
            EXPECT_EQ(ref.pin(), pin);
        }
    }
    static_assert(sizeof(SinkRef) == 4, "SinkRef must stay packed");
}

// ------------------------------------------------------- AIG unique table

TEST(MegascaleStrash, OpenAddressedTableMatchesReferenceMap) {
    // Drive land() with random literal pairs and mirror the unique table
    // with the old-style map keyed on the canonical (min, max) pair. The
    // open-addressed table must produce the same literal for every call and
    // the same hit count — i.e. it is observationally the same structure.
    for (const std::uint64_t seed : {101u, 202u}) {
        Rng rng(seed);
        Aig aig;
        std::vector<AigLit> lits;
        for (int i = 0; i < 16; ++i) lits.push_back(aig.add_input());
        lits.push_back(Aig::const0());
        lits.push_back(Aig::const1());

        std::unordered_map<std::uint64_t, AigLit> ref;
        std::uint64_t expected_hits = 0;
        for (int i = 0; i < 4000; ++i) {
            AigLit a = lits[rng.pick_index(lits.size())];
            AigLit b = lits[rng.pick_index(lits.size())];
            if (rng.next_bool()) a = aig_not(a);
            if (rng.next_bool()) b = aig_not(b);
            // Mirror land()'s pre-table simplifications; only pairs that
            // reach the table participate in hit accounting.
            AigLit x = a, y = b;
            if (x > y) std::swap(x, y);
            const bool simplified = x == Aig::const0() ||
                                    x == Aig::const1() || x == y ||
                                    x == aig_not(y);
            const std::uint64_t key =
                (static_cast<std::uint64_t>(x) << 32) | y;
            const auto it = simplified ? ref.end() : ref.find(key);
            const AigLit got = aig.land(a, b);
            if (it != ref.end()) {
                ++expected_hits;
                EXPECT_EQ(got, it->second)
                    << "seed " << seed << " iteration " << i;
            } else if (!simplified) {
                ref.emplace(key, got);
            }
            lits.push_back(got);
        }
        EXPECT_EQ(aig.strash_hits(), expected_hits) << "seed " << seed;
        EXPECT_EQ(aig.num_ands(), ref.size()) << "seed " << seed;
        EXPECT_GT(expected_hits, 0u) << "seed " << seed
                                     << ": test never exercised a hit";
    }
}

TEST(MegascaleStrash, MemoryBytesTracksTableGrowth) {
    Aig aig;
    const std::size_t small = aig.memory_bytes();
    std::vector<AigLit> lits;
    for (int i = 0; i < 12; ++i) lits.push_back(aig.add_input());
    Rng rng(5);
    for (int i = 0; i < 2000; ++i) {
        const AigLit a = lits[rng.pick_index(lits.size())];
        const AigLit b = lits[rng.pick_index(lits.size())];
        lits.push_back(aig.land(a, aig_not(b)));
    }
    // Nodes plus the power-of-two table: at minimum 12 bytes of key/value
    // slot per stored AND at max load factor, plus the fanin arrays.
    EXPECT_GE(aig.memory_bytes(),
              small + aig.num_ands() * (2 * sizeof(AigLit) + 12));
}

// ------------------------------------------------------ hierarchical flow

Netlist small_mesh() { return generate_mesh(lib28(), 1500, 5, 2); }

/// Hier run of small_mesh() at `utilization`, split into `blocks` blocks on
/// `workers` block workers. Every merged design it returns must print as
/// the input netlist.
HierFlowResult run_small_hier(double utilization, int blocks = 3, int workers = 2) {
    const Netlist nl = small_mesh();
    HierParams hp;
    hp.num_blocks = blocks;
    hp.workers = workers;
    hp.block_flow.seed = 3;
    hp.block_flow.utilization = utilization;
    HierFlowResult r = run_hier_flow(nl, *find_node("28nm"), hp);
    if (r.merged) {
        EXPECT_EQ(netlist_to_string(*r.merged), netlist_to_string(nl));
    }
    return r;
}

TEST(MegascaleHier, TopLegalIsTheAndOfBlocksAndRuntimeIsWallTime) {
    // Full utilization over-fills the legalizer's last row in every block.
    const auto t0 = std::chrono::steady_clock::now();
    const HierFlowResult r = run_small_hier(1.0);
    const double wall_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
    ASSERT_FALSE(r.top.failed()) << r.top.error;
    ASSERT_EQ(r.blocks.size(), 3u);
    const bool any_illegal =
        std::any_of(r.blocks.begin(), r.blocks.end(),
                    [](const HierBlockResult& b) { return !b.flow.legal; });
    ASSERT_TRUE(any_illegal) << "utilization 1.0 no longer breaks legality";
    EXPECT_FALSE(r.top.legal);

    double max_block_ms = 0;
    for (const HierBlockResult& b : r.blocks) {
        max_block_ms = std::max(max_block_ms, b.flow.runtime_ms);
    }
    EXPECT_GE(r.top.runtime_ms, max_block_ms);
    EXPECT_LE(r.top.runtime_ms, wall_ms);
}

TEST(MegascaleHier, TopHpwlAndBlockPlacementsArePinned) {
    const HierFlowResult r = run_small_hier(0.65);
    ASSERT_FALSE(r.top.failed()) << r.top.error;
    EXPECT_TRUE(r.top.legal);
    EXPECT_EQ(r.top.hpwl_um, 7159.8);
    const Rect expected[] = {{0, 0, 16400, 17600},
                             {17600, 0, 34200, 17600},
                             {0, 20000, 16500, 38400}};
    ASSERT_EQ(r.blocks.size(), std::size(expected));
    for (std::size_t b = 0; b < r.blocks.size(); ++b) {
        EXPECT_TRUE(r.blocks[b].flow.legal) << "block " << b;
        EXPECT_EQ(r.blocks[b].placement, expected[b]) << "block " << b;
    }
}

TEST(MegascaleHier, MergedDesignIsPinnedAcrossWorkerCounts) {
    // The merged netlist is the input (run_small_hier checks its text), and
    // FNV-1a-64 of its placement text is pinned: a change that moves an
    // instance changes the hash at every worker count, which a
    // worker-vs-worker comparison cannot see.
    const std::pair<int, std::uint64_t> pinned[] = {
        {3, 0x28cabc925b4fc86aull},
        {8, 0x7f99a78cd1010821ull},
    };
    for (const auto& [blocks, hash] : pinned) {
        for (const int workers : {1, 2, 4}) {
            SCOPED_TRACE(std::to_string(blocks) + " blocks, " +
                         std::to_string(workers) + " workers");
            const HierFlowResult r = run_small_hier(0.65, blocks, workers);
            ASSERT_FALSE(r.top.failed()) << r.top.error;
            ASSERT_NE(r.merged, nullptr);
            std::ostringstream placement;
            write_placement(placement, *r.merged);
            EXPECT_EQ(hash_name(placement.str()), hash);
            ASSERT_EQ(r.blocks.size(), static_cast<std::size_t>(blocks));
            for (const HierBlockResult& b : r.blocks) {
                EXPECT_EQ(b.flow.mapped, nullptr);
            }
        }
    }
}

TEST(MegascaleHier, BlockPlacementsHoldTheirCellsAndDoNotOverlap) {
    // Each cell's footprint (legalizer width, one row high) must lie inside
    // its block's placement, the placements must be disjoint, so cells of
    // different blocks never overlap, and every cell must sit on the one
    // row/site grid of the merged design. Small blocks are the hard case:
    // their 5% margin can be narrower than one cell or one row.
    struct Case {
        Netlist nl;
        int blocks;
    };
    Case cases[] = {
        {generate_adder(lib28(), 8), 4},
        {generate_mesh(lib28(), 300, 5, 1), 4},
        {small_mesh(), 3},
        {small_mesh(), 8},
    };
    const TechnologyNode node = *find_node("28nm");
    for (const Case& c : cases) {
        // run_hier_flow partitions the same way, and every block places on
        // the same rows and sites.
        const HierPartition part = partition_min_cut(c.nl, c.blocks);
        const PlacementArea rows = make_placement_area(c.nl, node);
        for (const int workers : {1, 4}) {
            SCOPED_TRACE(c.nl.name() + ", " + std::to_string(c.blocks) + " blocks, " +
                         std::to_string(workers) + " workers");
            HierParams hp;
            hp.num_blocks = c.blocks;
            hp.workers = workers;
            hp.block_flow.seed = 3;
            hp.block_flow.utilization = 0.65;
            const HierFlowResult r = run_hier_flow(c.nl, node, hp);
            ASSERT_FALSE(r.top.failed()) << r.top.error;
            ASSERT_NE(r.merged, nullptr);
            ASSERT_EQ(r.blocks.size(), static_cast<std::size_t>(c.blocks));

            std::size_t outside = 0, off_grid = 0;
            for (InstId i = 0; i < r.merged->num_instances(); ++i) {
                const Instance& inst = r.merged->instance(i);
                ASSERT_TRUE(inst.placed);
                const Point far{inst.position.x + cell_width_nm(*r.merged, i, rows),
                                inst.position.y + rows.row_height};
                const Rect& slot =
                    r.blocks[static_cast<std::size_t>(part.block_of[i])].placement;
                if (!slot.contains(inst.position) || !slot.contains(far)) ++outside;
                if (inst.position.x % rows.site_width != 0 ||
                    inst.position.y % rows.row_height != 0) {
                    ++off_grid;
                }
            }
            EXPECT_EQ(outside, 0u);
            EXPECT_EQ(off_grid, 0u);
            for (std::size_t a = 0; a < r.blocks.size(); ++a) {
                for (std::size_t b = a + 1; b < r.blocks.size(); ++b) {
                    EXPECT_FALSE(r.blocks[a].placement.intersects(r.blocks[b].placement))
                        << "blocks " << a << " and " << b;
                }
            }
        }
    }
}

TEST(MegascaleHier, FailedBlocksReportThroughTopError) {
    // Every block job rejects its params; the flow reports the first
    // failure instead of throwing, and returns no merged design.
    for (const int workers : {1, 4}) {
        SCOPED_TRACE(std::to_string(workers) + " workers");
        HierFlowResult r;
        ASSERT_NO_THROW(r = run_small_hier(1.5, 3, workers));
        EXPECT_EQ(r.top.error,
                  "hier: block flow failed: FlowParams: utilization must be "
                  "in (0, 1], got 1.5");
        ASSERT_EQ(r.blocks.size(), 3u);
        for (const HierBlockResult& b : r.blocks) {
            EXPECT_TRUE(b.flow.failed());
        }
        EXPECT_EQ(r.merged, nullptr);
    }
}

TEST(MegascaleHier, ScanInsideBlocksIsRejectedUpFront) {
    // Scan insertion would give every sequential block scan ports with no
    // net in the flat design; the flow refuses before any block runs
    // instead of failing in the stitch.
    for (const int blocks : {1, 3}) {
        SCOPED_TRACE(std::to_string(blocks) + " blocks");
        HierParams hp;
        hp.num_blocks = blocks;
        hp.workers = 2;
        hp.block_flow.stages = FlowStageMask::Scan | FlowStageMask::ClockTree;
        std::string error;
        try {
            run_hier_flow(generate_mesh(lib28(), 1500, 5, 2), *find_node("28nm"), hp);
        } catch (const std::invalid_argument& e) {
            error = e.what();
        }
        EXPECT_EQ(error,
                  "HierParams: block_flow.stages must not include Scan; scan "
                  "chains cannot be stitched across blocks");
    }
}

TEST(MegascaleHier, SizingInBlocksChangesOnlyCellsOfTheSameFunction) {
    // Twice small_mesh()'s gates behind one pipeline stage instead of two:
    // the longer register-to-register paths miss the default clock, so
    // sizing has work to do.
    const Netlist input = generate_mesh(lib28(), 3000, 5, 1);
    HierParams hp;
    hp.num_blocks = 3;
    hp.workers = 2;
    hp.block_flow.stages = FlowStageMask::Sizing;
    const HierFlowResult r = run_hier_flow(input, *find_node("28nm"), hp);
    ASSERT_FALSE(r.top.failed()) << r.top.error;
    int resized = 0;
    for (const HierBlockResult& b : r.blocks) resized += b.flow.cells_resized;
    ASSERT_GT(resized, 0) << "sizing no longer resizes this design";

    // Line by line, the merged text may differ from the input's only in the
    // cell name of an `inst` line, and only to a cell of the same function.
    std::istringstream want(netlist_to_string(input));
    std::istringstream got(netlist_to_string(*r.merged));
    const CellLibrary& lib = input.library();
    std::string a, b;
    int changed = 0;
    while (std::getline(want, a)) {
        ASSERT_TRUE(std::getline(got, b)) << "merged text ends early";
        if (a == b) continue;
        std::istringstream ta(a), tb(b);
        std::string kw_a, name_a, cell_a, rest_a, kw_b, name_b, cell_b, rest_b;
        ta >> kw_a >> name_a >> cell_a;
        tb >> kw_b >> name_b >> cell_b;
        std::getline(ta, rest_a);
        std::getline(tb, rest_b);
        ASSERT_EQ(kw_a, "inst") << a;
        EXPECT_EQ(kw_b, "inst") << b;
        EXPECT_EQ(name_b, name_a);
        EXPECT_EQ(rest_b, rest_a) << name_a;
        const auto old_cell = lib.find(cell_a), new_cell = lib.find(cell_b);
        ASSERT_TRUE(old_cell && new_cell) << a << " / " << b;
        EXPECT_EQ(lib.cell(*new_cell).function, lib.cell(*old_cell).function) << name_a;
        ++changed;
    }
    EXPECT_FALSE(std::getline(got, b)) << "merged text runs on";
    EXPECT_GT(changed, 0) << "no resized cell reached the merged design";
}

TEST(MegascaleHier, InputWithAnUnconnectedPinIsRejectedBeforeAnyBlockRuns) {
    Netlist nl(lib28(), "open_pin");
    const NetId a = nl.add_primary_input("a");
    const auto nand2 = nl.library().find("NAND2_X1");
    ASSERT_TRUE(nand2.has_value());
    const InstId g0 = nl.add_instance("g0", *nand2, {a, a});
    const InstId g1 = nl.add_instance("g1", *nand2, {nl.instance(g0).output, kNoNet});
    nl.add_primary_output("y", nl.instance(g1).output);
    HierParams hp;
    hp.num_blocks = 2;
    // Every block job would fail on this utilization and report through
    // top.error; the throw shows the input is checked first.
    hp.block_flow.utilization = 1.5;
    std::string error;
    try {
        run_hier_flow(nl, *find_node("28nm"), hp);
    } catch (const std::invalid_argument& e) {
        error = e.what();
    }
    EXPECT_EQ(error, "hier: input netlist invalid: instance g1 pin 1 unconnected");
}

/// Netlist text of the merged design run_hier_flow returns for `nl` split
/// into `blocks`.
std::string merged_text(const Netlist& nl, int blocks) {
    HierParams hp;
    hp.num_blocks = blocks;
    hp.block_flow.stages = FlowStageMask::None;
    const HierFlowResult r = run_hier_flow(nl, *find_node("28nm"), hp);
    EXPECT_FALSE(r.top.failed()) << r.top.error;
    return r.merged ? netlist_to_string(*r.merged) : "";
}

/// `nl` rebuilt through the API with primary input `pi` renamed. Valid for
/// designs whose instances only read earlier nets (the generated adder).
Netlist with_input_renamed(const Netlist& nl, std::size_t pi, const std::string& name) {
    Netlist out(nl.library_ptr(), nl.name());
    for (std::size_t k = 0; k < nl.primary_inputs().size(); ++k) {
        out.add_primary_input(k == pi ? name : nl.net_name(nl.primary_inputs()[k]));
    }
    for (InstId i = 0; i < nl.num_instances(); ++i) {
        const Instance& inst = nl.instance(i);
        const auto arity = static_cast<std::size_t>(function_arity(nl.type_of(i).function));
        out.add_instance(nl.instance_name(i), inst.type,
                         std::vector<NetId>(inst.fanin.begin(), inst.fanin.begin() + arity));
    }
    for (const auto& [po, net] : nl.primary_outputs()) out.add_primary_output(po, net);
    return out;
}

TEST(MegascaleHier, RepeatedInputNameMergesToTheInput) {
    // Second input b0 renamed a0: two nets now print the same name. The
    // write-back maps blocks onto the input by id, so names need not be
    // unique.
    const Netlist adder = generate_adder(lib28(), 8);
    const Netlist dup = with_input_renamed(adder, 8, "a0");
    ASSERT_TRUE(dup.validate().empty());
    ASSERT_EQ(dup.num_instances(), adder.num_instances());
    const std::string text = netlist_to_string(dup);
    for (const int blocks : {1, 2, 4}) {
        EXPECT_EQ(merged_text(dup, blocks), text) << blocks << " blocks";
    }
    // The .jnl reader still refuses the repeated name.
    std::string read_error;
    try {
        netlist_from_string(text, lib28());
    } catch (const std::runtime_error& e) {
        read_error = e.what();
    }
    EXPECT_EQ(read_error, "read_netlist: line 10: primary input redefined: a0");
    // A failed block still reports through top.error.
    HierParams hp;
    hp.num_blocks = 2;
    hp.block_flow.utilization = 1.5;
    HierFlowResult r;
    ASSERT_NO_THROW(r = run_hier_flow(dup, *find_node("28nm"), hp));
    EXPECT_EQ(r.top.error,
              "hier: block flow failed: FlowParams: utilization must be in "
              "(0, 1], got 1.5");
    EXPECT_EQ(r.merged, nullptr);
}

TEST(MegascaleHier, InputNamedLikeADerivedNetMergesToTheInput) {
    // sum0's output net prints as "sum0.out", and an input may legally carry
    // that name too.
    std::string text = netlist_to_string(generate_adder(lib28(), 8));
    const std::string from = "input a0 ";
    text.replace(text.find(from), from.size(), "input sum0.out ");
    const Netlist nl = netlist_from_string(text, lib28());
    ASSERT_TRUE(nl.validate().empty());
    for (const int blocks : {1, 2, 4}) {
        EXPECT_EQ(merged_text(nl, blocks), netlist_to_string(nl)) << blocks << " blocks";
    }
}

}  // namespace
}  // namespace janus
