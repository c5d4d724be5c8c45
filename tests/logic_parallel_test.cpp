// LogicParallel suite: the eval-parallel / commit-serial synthesis front
// end (docs/SYNTH.md) must produce byte-identical AIGs and mapped netlists
// for any worker count and with the SOP memo cache on or off. Builds
// as its own binary (like flow_engine_test / timing_graph_test) so `ctest
// -R LogicParallel` under -DJANUS_TSAN=ON race-checks the concurrent cut
// enumeration, cut evaluation, memo cache, and matching sweeps, and batch
// jobs sharing one engine's memo.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "janus/flow/flow.hpp"
#include "janus/flow/flow_engine.hpp"
#include "janus/logic/aig.hpp"
#include "janus/logic/aig_rewrite.hpp"
#include "janus/logic/cut_enum.hpp"
#include "janus/logic/espresso.hpp"
#include "janus/logic/sop_cache.hpp"
#include "janus/logic/tech_map.hpp"
#include "janus/netlist/generator.hpp"
#include "janus/netlist/io.hpp"
#include "janus/util/rng.hpp"

namespace janus {
namespace {

std::shared_ptr<const CellLibrary> lib28() {
    static const auto lib = std::make_shared<const CellLibrary>(
        make_default_library(*find_node("28nm")));
    return lib;
}

Aig random_aig(std::uint64_t seed, int num_gates) {
    GeneratorConfig cfg;
    cfg.num_gates = num_gates;
    cfg.seed = seed;
    cfg.xor_fraction = 0.2;
    return Aig::from_netlist(generate_random(lib28(), cfg)).cleanup();
}

/// Full structural serialization: two AIGs serialize equal iff they are
/// byte-identical (same node ids, fanins, complement bits, IO order).
std::string serialize(const Aig& aig) {
    std::ostringstream os;
    os << aig.num_nodes() << ';';
    for (std::size_t i = 0; i < aig.num_inputs(); ++i) {
        os << 'i' << aig.input(i) << '=' << aig.input_name(i) << ';';
    }
    for (std::uint32_t n = 0; n < aig.num_nodes(); ++n) {
        if (!aig.is_and(n)) continue;
        os << n << ':' << aig.fanin0(n) << ',' << aig.fanin1(n) << ';';
    }
    for (const auto& [name, lit] : aig.outputs()) {
        os << 'o' << name << '=' << lit << ';';
    }
    return os.str();
}

std::string serialize(const Netlist& nl) {
    std::ostringstream os;
    os << nl.num_instances() << '/' << nl.num_nets() << ';';
    for (InstId i = 0; i < nl.num_instances(); ++i) {
        const Instance& inst = nl.instance(i);
        os << nl.instance_name(i) << ':' << inst.type << ':' << inst.output << ':';
        for (const NetId f : inst.fanin) os << f << ',';
        os << ';';
    }
    for (const NetId pi : nl.primary_inputs()) os << 'i' << pi << ';';
    for (const auto& [name, net] : nl.primary_outputs()) {
        os << 'o' << name << '=' << net << ';';
    }
    return os.str();
}

/// Reference implementation of the historical map-based cut evaluation,
/// kept verbatim as the oracle for CutConeEvaluator.
TruthTable reference_cut_tt(const Aig& aig, std::uint32_t root, const Cut& cut) {
    const int k = static_cast<int>(cut.leaves.size());
    std::unordered_map<std::uint32_t, TruthTable> tt;
    for (int i = 0; i < k; ++i) {
        tt.emplace(cut.leaves[static_cast<std::size_t>(i)], TruthTable::variable(k, i));
    }
    tt.emplace(0u, TruthTable::constant(k, false));  // const node, if reached
    std::vector<std::uint32_t> stack{root};
    while (!stack.empty()) {
        const std::uint32_t n = stack.back();
        if (tt.count(n)) {
            stack.pop_back();
            continue;
        }
        const std::uint32_t f0 = aig_node(aig.fanin0(n));
        const std::uint32_t f1 = aig_node(aig.fanin1(n));
        const bool have0 = tt.count(f0) > 0;
        const bool have1 = tt.count(f1) > 0;
        if (have0 && have1) {
            const TruthTable a =
                aig_is_complement(aig.fanin0(n)) ? ~tt.at(f0) : tt.at(f0);
            const TruthTable b =
                aig_is_complement(aig.fanin1(n)) ? ~tt.at(f1) : tt.at(f1);
            tt.emplace(n, a & b);
            stack.pop_back();
        } else {
            if (!have0) stack.push_back(f0);
            if (!have1) stack.push_back(f1);
        }
    }
    return tt.at(root);
}

/// Reference mffc_sizes: the historical O(n^2) full-refcount-copy trial
/// dereference, kept as the oracle for the incremental version.
std::vector<int> reference_mffc(const Aig& aig) {
    std::vector<int> mffc(aig.num_nodes(), 0);
    const auto base_refs = aig.fanout_counts();
    for (const std::uint32_t n : aig.topological_order()) {
        if (!aig.is_and(n)) continue;
        auto refs = base_refs;
        std::function<int(std::uint32_t)> deref = [&](std::uint32_t node) -> int {
            int size = 1;
            for (const AigLit f : {aig.fanin0(node), aig.fanin1(node)}) {
                const std::uint32_t fn = aig_node(f);
                if (!aig.is_and(fn)) continue;
                if (--refs[fn] == 0) size += deref(fn);
            }
            return size;
        };
        mffc[n] = deref(n);
    }
    return mffc;
}

std::uint64_t bloom_signature(const std::vector<std::uint32_t>& leaves) {
    std::uint64_t s = 0;
    for (const auto l : leaves) s |= (1ull << (l % 64));
    return s;
}

// ----------------------------------------------------- cut enumeration

TEST(CutEnum, CapIsExactIncludingTrivial) {
    // Regression for the historical `<=` guard that let a node's list
    // reach max_cuts_per_node + 1 entries.
    for (const int cap : {2, 3, 4, 6}) {
        const Aig aig = random_aig(17, 400);
        CutEnumOptions opts;
        opts.max_leaves = 5;
        opts.max_cuts_per_node = cap;
        const CutSet cs = enumerate_cuts(aig, opts);
        std::size_t widest = 0;
        for (std::uint32_t n = 0; n < aig.num_nodes(); ++n) {
            ASSERT_FALSE(cs.cuts[n].empty());
            EXPECT_TRUE(cs.cuts[n].front().trivial());
            EXPECT_LE(cs.cuts[n].size(), static_cast<std::size_t>(cap))
                << "node " << n << " cap " << cap;
            widest = std::max(widest, cs.cuts[n].size());
        }
        // The cap must actually bind somewhere, or this test checks nothing.
        EXPECT_EQ(widest, static_cast<std::size_t>(cap));
    }
}

TEST(CutEnum, InvariantsFuzz) {
    // Leaves sorted/unique, signature is a superset-bloom of the leaves,
    // no dominance inside a final cut set, trivial cut first — fuzzed over
    // random AIGs (2 seeds x 3 sizes, timing_graph_test style).
    for (const std::uint64_t seed : {5ull, 6ull}) {
        for (const int gates : {150, 400, 900}) {
            const Aig aig = random_aig(seed, gates);
            CutEnumOptions opts;
            opts.max_leaves = 4;
            opts.max_cuts_per_node = 8;
            const CutSet cs = enumerate_cuts(aig, opts);
            ASSERT_EQ(cs.cuts.size(), aig.num_nodes());
            for (std::uint32_t n = 0; n < aig.num_nodes(); ++n) {
                const auto& cuts = cs.cuts[n];
                ASSERT_FALSE(cuts.empty());
                EXPECT_TRUE(cuts.front().trivial());
                EXPECT_EQ(cuts.front().leaves.front(), n);
                for (const Cut& cut : cuts) {
                    EXPECT_TRUE(std::is_sorted(cut.leaves.begin(), cut.leaves.end()));
                    EXPECT_TRUE(std::adjacent_find(cut.leaves.begin(),
                                                   cut.leaves.end()) ==
                                cut.leaves.end());
                    EXPECT_EQ(cut.signature, bloom_signature(cut.leaves));
                    EXPECT_LE(cut.leaves.size(), 4u);
                }
                for (std::size_t a = 1; a < cuts.size(); ++a) {
                    for (std::size_t b = 1; b < cuts.size(); ++b) {
                        if (a == b) continue;
                        EXPECT_FALSE(std::includes(
                            cuts[b].leaves.begin(), cuts[b].leaves.end(),
                            cuts[a].leaves.begin(), cuts[a].leaves.end()))
                            << "cut " << a << " dominates cut " << b
                            << " at node " << n;
                    }
                }
            }
        }
    }
}

TEST(CutEnum, WorkerCountIsInvisible) {
    for (const std::uint64_t seed : {11ull, 12ull}) {
        const Aig aig = random_aig(seed, 600);
        CutEnumOptions opts;
        opts.max_leaves = 5;
        opts.max_cuts_per_node = 6;
        const CutSet serial = enumerate_cuts(aig, opts);
        for (const int workers : {2, 4, 8}) {
            opts.workers = workers;
            const CutSet par = enumerate_cuts(aig, opts);
            ASSERT_EQ(par.cuts.size(), serial.cuts.size());
            for (std::uint32_t n = 0; n < aig.num_nodes(); ++n) {
                ASSERT_EQ(par.cuts[n].size(), serial.cuts[n].size()) << "node " << n;
                for (std::size_t c = 0; c < par.cuts[n].size(); ++c) {
                    EXPECT_EQ(par.cuts[n][c].leaves, serial.cuts[n][c].leaves);
                    EXPECT_EQ(par.cuts[n][c].signature, serial.cuts[n][c].signature);
                }
            }
        }
    }
}

TEST(CutEnum, ConeEvaluatorMatchesReference) {
    const Aig aig = random_aig(23, 900);
    const CutSet cs = enumerate_cuts(aig, {.max_leaves = 5, .max_cuts_per_node = 6});
    CutConeEvaluator evaluator(aig);
    int checked = 0;
    for (std::uint32_t n = 0; n < aig.num_nodes(); ++n) {
        if (!aig.is_and(n)) continue;
        for (const Cut& cut : cs.cuts[n]) {
            EXPECT_EQ(evaluator.evaluate(n, cut), reference_cut_tt(aig, n, cut));
            // The one-shot wrapper goes through the same evaluator.
            EXPECT_EQ(cut_truth_table(aig, n, cut), reference_cut_tt(aig, n, cut));
            ++checked;
        }
    }
    EXPECT_GT(checked, 500);
}

// ------------------------------------------------------------ SOP cache

TEST(SopCache, MemoizesExactEspressoResult) {
    SopCache cache;
    Rng rng(91);
    TruthTable tt(4);
    for (std::uint64_t m = 0; m < tt.num_minterms_space(); ++m) {
        tt.set_bit(m, rng.next_bool());
    }
    const Cover direct = espresso(Cover::from_truth_table(tt)).cover;
    Cover scratch;
    SopCache::Stats stats;
    const Cover& first = cache.minimized(tt, scratch, stats);
    const Cover& again = cache.minimized(tt, scratch, stats);
    EXPECT_EQ(first.to_truth_table(), direct.to_truth_table());
    EXPECT_EQ(first.size(), direct.size());
    EXPECT_EQ(first.num_literals(), direct.num_literals());
    // Both queries read the one memoized entry in place.
    EXPECT_EQ(&again, &first);
    EXPECT_NE(&first, &scratch);
    EXPECT_EQ(stats.queries, 2u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.espresso_calls, 1u);
    EXPECT_EQ(cache.size(), 1u);
    // The OFF phase is just the ON cover of the complement: a second entry.
    (void)cache.minimized(~tt, scratch, stats);
    EXPECT_EQ(cache.size(), 2u);
}

TEST(SopCache, DisabledCacheCountsButStoresNothing) {
    SopCache cache(false);
    const TruthTable tt = TruthTable::variable(3, 1);
    Cover scratch;
    SopCache::Stats stats;
    EXPECT_EQ(&cache.minimized(tt, scratch, stats), &scratch);
    EXPECT_EQ(scratch.to_truth_table(), tt);
    EXPECT_EQ(&cache.minimized(tt, scratch, stats), &scratch);
    EXPECT_EQ(stats.queries, 2u);
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_EQ(stats.espresso_calls, 2u);
    EXPECT_EQ(cache.size(), 0u);
}

TEST(SopCache, FullCacheStoresNothingMoreAndStaysExact) {
    // Sparse 6-variable functions (AND of four random words: ~4 ON
    // minterms) are cheap to minimize and far more numerous than the cap.
    Rng rng(17);
    const auto sparse = [&rng] {
        std::uint64_t w = ~0ull;
        for (int i = 0; i < 4; ++i) w &= rng.next_u64();
        return TruthTable::from_words(6, {&w, 1});
    };
    SopCache cache;
    SopCache::Stats stats;
    Cover scratch;
    const TruthTable early_tt = sparse();
    const Cover& early = cache.minimized(early_tt, scratch, stats);
    const TruthTable early_cover = early.to_truth_table();
    while (cache.size() < SopCache::kCapacity) {
        for (int i = 0; i < 1024; ++i) (void)cache.minimized(sparse(), scratch, stats);
    }
    EXPECT_EQ(cache.size(), SopCache::kCapacity);

    // Past the cap a miss is minimized into scratch, exactly, and not stored.
    int unstored = 0;
    for (int i = 0; i < 256; ++i) {
        const TruthTable tt = sparse();
        const std::uint64_t hits = stats.hits;
        const Cover& got = cache.minimized(tt, scratch, stats);
        if (stats.hits != hits) continue;  // stored before the cap was hit
        ++unstored;
        EXPECT_EQ(&got, &scratch);
        const Cover direct = espresso(Cover::from_truth_table(tt)).cover;
        EXPECT_EQ(got.cubes(), direct.cubes());
    }
    EXPECT_GT(unstored, 128);
    EXPECT_EQ(cache.size(), SopCache::kCapacity);
    // An entry handed out before the cap is still there, in place.
    EXPECT_EQ(&cache.minimized(early_tt, scratch, stats), &early);
    EXPECT_EQ(early.to_truth_table(), early_cover);
    EXPECT_EQ(stats.hits + stats.espresso_calls, stats.queries);
}

TEST(SopCache, PhaseTieBreakPrefersOnPhase) {
    // XOR2: both phases minimize to 2 cubes / 4 literals — an exact cost
    // tie, which must deterministically keep the ON-phase.
    const TruthTable x = TruthTable::variable(2, 0) ^ TruthTable::variable(2, 1);
    SopCache cache;
    SopCache::Stats stats;
    Cover on_scratch, off_scratch;
    const Cover& on = cache.minimized(x, on_scratch, stats);
    const Cover& off = cache.minimized(~x, off_scratch, stats);
    ASSERT_EQ(on.size() * 4 + static_cast<std::size_t>(on.num_literals()),
              off.size() * 4 + static_cast<std::size_t>(off.num_literals()));
    EXPECT_FALSE(sop_prefers_off_phase(on, off));
    // A strictly cheaper OFF cover must win.
    Cover cheap(2);
    cheap.add(Cube::from_string("1-"));
    EXPECT_TRUE(sop_prefers_off_phase(on, cheap));
    EXPECT_FALSE(sop_prefers_off_phase(cheap, on));
}

// ------------------------------------------------------------- MFFC

TEST(Mffc, IncrementalMatchesReferenceWithoutArrayCopies) {
    for (const std::uint64_t seed : {31ull, 32ull}) {
        const Aig aig = random_aig(seed, 700);
        MffcStats stats;
        const auto fast = mffc_sizes(aig, &stats);
        EXPECT_EQ(fast, reference_mffc(aig));
        // Work is the sum of cone sizes (each trial touches its MFFC only),
        // not the historical num_ands * num_nodes refcount copies.
        std::uint64_t cone_sum = 0;
        for (const int m : fast) cone_sum += static_cast<std::uint64_t>(m);
        EXPECT_EQ(stats.cone_visits, cone_sum);
        const std::uint64_t old_copy_work =
            static_cast<std::uint64_t>(aig.num_ands()) * aig.num_nodes();
        EXPECT_LT(stats.cone_visits + stats.scratch_writes, old_copy_work / 10);
    }
}

TEST(Mffc, ChainValuesUnchanged) {
    Aig aig;
    const AigLit a = aig.add_input("a");
    const AigLit b = aig.add_input("b");
    const AigLit c = aig.add_input("c");
    const AigLit x = aig.land(a, b);
    const AigLit y = aig.land(x, c);
    aig.add_output("y", y);
    MffcStats stats;
    const auto mffc = mffc_sizes(aig, &stats);
    EXPECT_EQ(mffc[aig_node(x)], 1);
    EXPECT_EQ(mffc[aig_node(y)], 2);
    EXPECT_EQ(stats.cone_visits, 3u);  // {x} + {y, x}
}

// --------------------------------------------- parallel contract (QoR)

TEST(RewriteParallel, RefactorByteIdenticalAcrossWorkers) {
    for (const std::uint64_t seed : {41ull, 42ull}) {
        const Aig aig = random_aig(seed, 800);
        RewriteOptions opts;
        const std::string base = serialize(refactor(aig, opts));
        for (const int workers : {2, 4, 8}) {
            opts.workers = workers;
            EXPECT_EQ(serialize(refactor(aig, opts)), base)
                << "seed " << seed << " workers " << workers;
        }
    }
}

TEST(RewriteParallel, OptimizeByteIdenticalAcrossWorkers) {
    for (const std::uint64_t seed : {51ull, 52ull}) {
        const Aig aig = random_aig(seed, 600);
        RewriteOptions opts;
        RewriteStats base_stats;
        const Aig base = optimize(aig, 3, opts, &base_stats);
        const std::string base_ser = serialize(base);
        EXPECT_LE(base.num_ands(), aig.num_ands());
        for (const int workers : {2, 4, 8}) {
            opts.workers = workers;
            RewriteStats stats;
            const Aig par = optimize(aig, 3, opts, &stats);
            EXPECT_EQ(serialize(par), base_ser)
                << "seed " << seed << " workers " << workers;
            // The serial commit counts cuts; identical for any worker count.
            EXPECT_EQ(stats.cuts_evaluated, base_stats.cuts_evaluated);
            EXPECT_EQ(stats.replacements, base_stats.replacements);
        }
    }
}

TEST(RewriteParallel, MemoCacheOnOffQoRIdentity) {
    for (const std::uint64_t seed : {61ull, 62ull}) {
        const Aig aig = random_aig(seed, 500);
        RewriteOptions with_cache;
        RewriteOptions no_cache;
        no_cache.use_sop_cache = false;
        RewriteStats cached_stats, uncached_stats;
        const Aig cached = optimize(aig, 3, with_cache, &cached_stats);
        const Aig uncached = optimize(aig, 3, no_cache, &uncached_stats);
        EXPECT_EQ(serialize(cached), serialize(uncached)) << "seed " << seed;
        // Memoization must actually fire and cut the espresso call count.
        EXPECT_GT(cached_stats.memo_hits, 0u);
        EXPECT_LT(cached_stats.espresso_calls, uncached_stats.espresso_calls);
        EXPECT_EQ(uncached_stats.memo_hits, 0u);
    }
}

TEST(RewriteParallel, TechMapByteIdenticalAcrossWorkers) {
    for (const std::uint64_t seed : {71ull, 72ull}) {
        const Aig aig = optimize(random_aig(seed, 500));
        TechMapOptions opts;
        TechMapStats base_stats;
        const std::string base = serialize(tech_map(aig, lib28(), opts, &base_stats));
        EXPECT_GT(base_stats.cuts_evaluated, 0u);
        EXPECT_GT(base_stats.matched_cuts, 0u);
        for (const int workers : {2, 4, 8}) {
            opts.workers = workers;
            TechMapStats stats;
            EXPECT_EQ(serialize(tech_map(aig, lib28(), opts, &stats)), base)
                << "seed " << seed << " workers " << workers;
            EXPECT_EQ(stats.cuts_evaluated, base_stats.cuts_evaluated);
            EXPECT_EQ(stats.matched_cuts, base_stats.matched_cuts);
        }
    }
}

// ----------------------------------------------------- flow integration

TEST(FlowSynth, OptWorkersValidatedAndInvisibleInQoR) {
    GeneratorConfig cfg;
    cfg.num_gates = 400;
    cfg.seed = 9;
    const Netlist nl = generate_random(lib28(), cfg);
    const auto node = *find_node("28nm");
    FlowParams serial;
    serial.optimize_rounds = 2;
    FlowParams parallel = serial;
    parallel.workers = 4;
    const FlowResult a = run_flow(nl, node, serial);
    const FlowResult b = run_flow(nl, node, parallel);
    EXPECT_EQ(a.instances, b.instances);
    EXPECT_EQ(a.area_um2, b.area_um2);
    EXPECT_EQ(a.hpwl_um, b.hpwl_um);
    EXPECT_EQ(a.route_wirelength, b.route_wirelength);
    EXPECT_EQ(a.critical_delay_ps, b.critical_delay_ps);
    EXPECT_EQ(serialize(*a.mapped), serialize(*b.mapped));
}

TEST(FlowSynth, OptimizeAndMapStagesEmitDetail) {
    GeneratorConfig cfg;
    cfg.num_gates = 300;
    cfg.seed = 13;
    const Netlist nl = generate_random(lib28(), cfg);
    FlowParams params;
    params.optimize_rounds = 2;
    params.workers = 2;
    FlowEngine engine;
    FlowContext ctx(nl, *find_node("28nm"), params);
    engine.run_to(ctx, "map");
    ASSERT_GE(ctx.trace.entries.size(), 2u);
    const auto& opt_entry = ctx.trace.entries[0];
    const auto& map_entry = ctx.trace.entries[1];
    EXPECT_EQ(opt_entry.stage, "optimize");
    EXPECT_NE(opt_entry.find_note("cuts"), nullptr);
    EXPECT_NE(opt_entry.find_note("memo_hits"), nullptr);
    EXPECT_NE(opt_entry.find_note("espresso"), nullptr);
    EXPECT_EQ(opt_entry.note_int("memo_entries"),
              static_cast<std::int64_t>(engine.sop_memo().size()));
    EXPECT_EQ(opt_entry.note_int("workers"), 2);
    EXPECT_EQ(map_entry.stage, "map");
    EXPECT_NE(map_entry.find_note("cuts"), nullptr);
    EXPECT_NE(map_entry.find_note("matched"), nullptr);
    EXPECT_EQ(map_entry.note_int("workers"), 2);
}

// The engine keeps one SOP memo for all its jobs. Concurrent batch jobs
// share it, and each still reports its own queries: hits + Espresso calls
// (the query count) and the mapped netlist match a fresh engine's, and
// every function is added once across the batch. A repeated design on the
// warm engine then runs no Espresso at all.
TEST(FlowSynth, EngineMemoIsSharedAcrossJobs) {
    GeneratorConfig cfg;
    cfg.num_inputs = 32;
    cfg.num_outputs = 16;
    cfg.num_gates = 2000;
    cfg.xor_fraction = 0.3;
    cfg.seed = 1;
    const Netlist nl = generate_random(lib28(), cfg);
    const auto node = *find_node("28nm");
    const FlowParams params;

    FlowEngine fresh;
    FlowContext ref(nl, node, params);
    fresh.run_to(ref, "map");
    const StageTraceEntry& ref_opt = ref.trace.entries.at(0);
    ASSERT_EQ(ref_opt.stage, "optimize");
    const std::string ref_mapped = netlist_to_string(ref.netlist);
    const std::int64_t ref_queries =
        ref_opt.note_int("memo_hits") + ref_opt.note_int("espresso");
    EXPECT_EQ(ref_opt.note_int("memo_entries"), ref_opt.note_int("memo_misses"));

    FlowEngine engine;
    FlowJob job{nl, node, params};
    for (std::size_t s = engine.stage_index("map") + 1; s < engine.stages().size(); ++s) {
        job.skip_stages.push_back(engine.stages()[s].name);
    }
    std::vector<StageTrace> traces;
    const std::vector<FlowResult> results =
        engine.run_batch(std::vector<FlowJob>(4, job), 4, &traces);
    std::int64_t added = 0;
    for (std::size_t j = 0; j < results.size(); ++j) {
        SCOPED_TRACE("job " + std::to_string(j));
        ASSERT_FALSE(results[j].failed()) << results[j].error;
        EXPECT_EQ(netlist_to_string(*results[j].mapped), ref_mapped);
        const StageTraceEntry& opt = traces[j].entries.at(0);
        ASSERT_EQ(opt.stage, "optimize");
        EXPECT_EQ(opt.note_int("memo_hits") + opt.note_int("espresso"), ref_queries);
        EXPECT_EQ(opt.note_int("cuts"), ref_opt.note_int("cuts"));
        added += opt.note_int("memo_misses");
    }
    EXPECT_EQ(added, ref_opt.note_int("memo_misses"));
    EXPECT_EQ(engine.sop_memo().size(), fresh.sop_memo().size());

    FlowContext again(nl, node, params);
    engine.run_to(again, "map");
    const StageTraceEntry& opt = again.trace.entries.at(0);
    EXPECT_EQ(opt.note_int("espresso"), 0);
    EXPECT_EQ(opt.note_int("memo_misses"), 0);
    EXPECT_EQ(opt.note_int("memo_hits"), ref_queries);
    EXPECT_EQ(opt.note_int("memo_entries"), ref_opt.note_int("memo_entries"));
    EXPECT_EQ(netlist_to_string(again.netlist), ref_mapped);
}

// Output pinned to recorded values: the identity tests above compare
// worker counts within one build, so a kernel change that alters the
// mapped netlist identically at every worker count would pass them. A
// change that alters synthesis output on purpose re-records these figures
// and says why. At 4 workers two threads may race to minimize one
// function, which moves memo hits into Espresso calls but leaves their sum
// (the number of queries) fixed.
TEST(FlowSynth, MappedOutputAndCountersMatchRecordedValues) {
    struct Pinned {
        std::uint64_t seed;
        std::uint64_t netlist_fnv1a;
        std::size_t instances;
        std::int64_t opt_cuts, memo_hits, memo_misses, espresso, replacements;
        std::int64_t map_cuts, matched;
    };
    const Pinned pinned[] = {
        {1, 0x36d36f0e9a04990cull, 1912, 28672, 51494, 5662, 5662, 2036, 19906, 9845},
        {2, 0xcf600192bc4332e6ull, 1744, 26406, 47266, 5430, 5430, 2060, 18349, 9103},
    };
    const auto fnv1a = [](const std::string& text) {
        std::uint64_t h = 0xcbf29ce484222325ull;
        for (const unsigned char c : text) {
            h ^= c;
            h *= 0x100000001b3ull;
        }
        return h;
    };
    for (const Pinned& p : pinned) {
        GeneratorConfig cfg;
        cfg.num_inputs = 32;
        cfg.num_outputs = 16;
        cfg.num_gates = 2000;
        cfg.xor_fraction = 0.3;
        cfg.seed = p.seed;
        const Netlist nl = generate_random(lib28(), cfg);
        for (const int workers : {1, 4}) {
            FlowParams params;
            params.workers = workers;
            FlowEngine engine;
            FlowContext ctx(nl, *find_node("28nm"), params);
            engine.run_to(ctx, "map");
            SCOPED_TRACE("seed " + std::to_string(p.seed) + " workers " +
                         std::to_string(workers));
            EXPECT_EQ(fnv1a(netlist_to_string(ctx.netlist)), p.netlist_fnv1a);
            EXPECT_EQ(ctx.netlist.num_instances(), p.instances);
            ASSERT_GE(ctx.trace.entries.size(), 2u);
            const auto& opt = ctx.trace.entries[0];
            const auto& map = ctx.trace.entries[1];
            ASSERT_EQ(opt.stage, "optimize");
            ASSERT_EQ(map.stage, "map");
            EXPECT_EQ(opt.note_int("cuts"), p.opt_cuts);
            EXPECT_EQ(opt.note_int("memo_misses"), p.memo_misses);
            EXPECT_EQ(opt.note_int("replacements"), p.replacements);
            EXPECT_EQ(opt.note_int("memo_hits") + opt.note_int("espresso"),
                      p.memo_hits + p.espresso);
            if (workers == 1) {
                EXPECT_EQ(opt.note_int("memo_hits"), p.memo_hits);
                EXPECT_EQ(opt.note_int("espresso"), p.espresso);
            }
            EXPECT_EQ(map.note_int("cuts"), p.map_cuts);
            EXPECT_EQ(map.note_int("matched"), p.matched);
        }
    }
}

}  // namespace
}  // namespace janus
