/// Ablation: which synthesis stage buys what (E1 decomposition).
///
/// Two axes: the AIG transform (strash / balance / refactor / full
/// script) and the covering step (naive 1:1 AND-INV mapping vs
/// phase/permutation-matched covering). On well-structured arithmetic the
/// matched covering is the dominant lever; Espresso refactoring earns its
/// keep on redundant logic, which this bench demonstrates separately.
/// Exits 1 when a SHAPE CHECK fails.

#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "janus/logic/aig.hpp"
#include "janus/logic/aig_balance.hpp"
#include "janus/logic/aig_rewrite.hpp"
#include "janus/logic/tech_map.hpp"
#include "janus/util/rng.hpp"
#include "janus/util/stats.hpp"

using namespace janus;

namespace {

/// Random logic salted with redundant consensus terms:
/// f = (a&b) | (a&b&c) | (a&b&!c) blocks that collapse to a&b.
Netlist redundant_design(const std::shared_ptr<const CellLibrary>& lib,
                         std::uint64_t seed) {
    Netlist nl(lib, "redundant");
    Rng rng(seed);
    std::vector<NetId> pool;
    for (int i = 0; i < 16; ++i) pool.push_back(nl.add_primary_input("i" + std::to_string(i)));
    const auto and2 = *lib->find_function(CellFunction::And2);
    const auto or2 = *lib->find_function(CellFunction::Or2);
    const auto and3 = *lib->find_function(CellFunction::And3);
    const auto inv = *lib->find_function(CellFunction::Inv);
    for (int blk = 0; blk < 40; ++blk) {
        const NetId a = pool[rng.pick_index(pool.size())];
        const NetId b = pool[rng.pick_index(pool.size())];
        const NetId c = pool[rng.pick_index(pool.size())];
        const InstId ab = nl.add_instance("ab" + std::to_string(blk), and2, {a, b});
        const InstId abc = nl.add_instance("abc" + std::to_string(blk), and3, {a, b, c});
        const InstId nc = nl.add_instance("nc" + std::to_string(blk), inv, {c});
        const InstId abnc = nl.add_instance("abnc" + std::to_string(blk), and3,
                                            {a, b, nl.instance(nc).output});
        const InstId o1 = nl.add_instance("o1_" + std::to_string(blk), or2,
                                          {nl.instance(ab).output, nl.instance(abc).output});
        const InstId o2 = nl.add_instance("o2_" + std::to_string(blk), or2,
                                          {nl.instance(o1).output, nl.instance(abnc).output});
        pool.push_back(nl.instance(o2).output);
    }
    for (int o = 0; o < 8; ++o) {
        nl.add_primary_output("po" + std::to_string(o), pool[pool.size() - 1 - o]);
    }
    return nl;
}

}  // namespace

int main() {
    bench::banner("ablation bench_ablation_synthesis", "JanusEDA",
                  "stage-by-stage contribution of the synthesis pipeline");
    const auto lib = bench::make_lib();

    std::vector<Netlist> designs;
    designs.push_back(generate_adder(lib, 16));
    designs.push_back(generate_multiplier(lib, 6));
    for (const std::uint64_t seed : {101ull, 202ull}) {
        GeneratorConfig cfg;
        cfg.num_gates = 800;
        cfg.num_inputs = 24;
        cfg.seed = seed;
        cfg.xor_fraction = 0.15;
        designs.push_back(generate_random(lib, cfg));
    }

    struct Variant {
        const char* name;
        Aig (*transform)(const Aig&);
    };
    static const Variant kVariants[] = {
        {"strash", [](const Aig& a) { return a.cleanup(); }},
        {"balance", [](const Aig& a) { return balance(a); }},
        {"full-script", [](const Aig& a) { return optimize(a); }},
    };

    std::printf("%-12s %14s %14s %12s %10s\n", "aig_stage", "naive_map_um2",
                "matched_um2", "map_gain", "geo_depth");
    double strash_naive = 0, strash_matched = 0, full_matched = 0;
    double strash_depth = 0, balance_depth = 0;
    for (const Variant& v : kVariants) {
        std::vector<double> naive_a, matched_a, depth;
        for (const Netlist& d : designs) {
            const Aig aig = v.transform(Aig::from_netlist(d));
            naive_a.push_back(naive_map(aig, lib).total_area());
            matched_a.push_back(tech_map(aig, lib).total_area());
            depth.push_back(static_cast<double>(aig.depth()));
        }
        const double gn = geometric_mean(naive_a);
        const double gm = geometric_mean(matched_a);
        const double gd = geometric_mean(depth);
        std::printf("%-12s %14.2f %14.2f %11.1f%% %10.1f\n", v.name, gn, gm,
                    100.0 * (1.0 - gm / gn), gd);
        if (std::string(v.name) == "strash") {
            strash_naive = gn;
            strash_matched = gm;
            strash_depth = gd;
        }
        if (std::string(v.name) == "balance") balance_depth = gd;
        if (std::string(v.name) == "full-script") full_matched = gm;
    }

    // Refactoring's home turf: redundant logic.
    const Netlist red = redundant_design(lib, 5);
    const Aig raw = Aig::from_netlist(red).cleanup();
    const Aig opt = optimize(raw);
    std::printf("\nredundant logic: %zu AND nodes -> %zu after the full script "
                "(%.1f%% smaller)\n",
                raw.num_ands(), opt.num_ands(),
                100.0 * (1.0 - static_cast<double>(opt.num_ands()) /
                                   static_cast<double>(raw.num_ands())));

    bool ok = bench::shape_check("matched covering is the dominant area lever (>30%)",
                                 strash_matched < 0.7 * strash_naive);
    ok &= bench::shape_check("balancing reduces logic depth", balance_depth < strash_depth);
    ok &= bench::shape_check("full script never loses to plain strash+map",
                             full_matched <= strash_matched * 1.001);
    ok &= bench::shape_check("refactoring collapses redundant logic by >25%",
                             opt.num_ands() < raw.num_ands() * 3 / 4);
    return ok ? 0 : 1;
}
