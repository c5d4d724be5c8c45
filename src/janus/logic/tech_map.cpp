#include "janus/logic/tech_map.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <memory>
#include <stdexcept>

#include "janus/logic/cut_enum.hpp"
#include "janus/util/thread_pool.hpp"

namespace janus {
namespace {

/// A library pattern: cell + input permutation/phases + output phase.
struct Pattern {
    std::size_t cell = 0;
    std::vector<int> perm;      ///< cut leaf index feeding each cell pin
    unsigned input_inv = 0;     ///< bit i: invert the signal into cell pin i
    bool output_inv = false;
    double cost = 0;            ///< cell area + inverter areas
};

/// Match tables per cut size k. A cut has at most kMaxFanin = 4 leaves, so
/// its truth table is one word below 2^16 and indexes a flat table
/// directly: by_function[k][word] is the slot of the cheapest pattern in
/// `patterns`, or -1 when no cell realizes the function.
struct MatchTables {
    std::vector<Pattern> patterns;
    std::vector<std::int32_t> by_function[kMaxFanin + 1];
    double inv_area = 0;
    std::size_t inv_cell = 0;

    const Pattern* find(int k, std::uint64_t word) const {
        const std::int32_t slot = by_function[k][word];
        return slot < 0 ? nullptr : &patterns[static_cast<std::size_t>(slot)];
    }
};

MatchTables build_match_tables(const CellLibrary& lib) {
    MatchTables mt;
    const auto inv = lib.find_function(CellFunction::Inv);
    if (!inv) throw std::runtime_error("tech_map: library lacks INV");
    mt.inv_cell = *inv;
    mt.inv_area = lib.cell(*inv).area_um2;
    for (int k = 0; k <= kMaxFanin; ++k) {
        mt.by_function[k].assign(std::size_t{1} << (1u << k), -1);
    }

    for (std::size_t ci = 0; ci < lib.size(); ++ci) {
        const CellType& cell = lib.cell(ci);
        if (is_sequential(cell.function) || cell.drive != 1) continue;
        const int k = function_arity(cell.function);
        if (k < 1 || k > kMaxFanin) continue;

        std::vector<int> perm(static_cast<std::size_t>(k));
        for (int i = 0; i < k; ++i) perm[static_cast<std::size_t>(i)] = i;
        std::sort(perm.begin(), perm.end());
        do {
            for (unsigned phase = 0; phase < (1u << k); ++phase) {
                for (const bool oinv : {false, true}) {
                    // Function seen at the cut: variable j of the cut feeds
                    // cell pin i where perm[i] = j, with optional inversion.
                    std::uint64_t word = 0;
                    for (unsigned m = 0; m < (1u << k); ++m) {
                        unsigned pins = 0;
                        for (int pin = 0; pin < k; ++pin) {
                            const int leaf = perm[static_cast<std::size_t>(pin)];
                            bool v = (m >> leaf) & 1;
                            if (phase & (1u << pin)) v = !v;
                            if (v) pins |= (1u << pin);
                        }
                        bool y = evaluate_function(cell.function, pins);
                        if (oinv) y = !y;
                        if (y) word |= 1ull << m;
                    }
                    Pattern p;
                    p.cell = ci;
                    p.perm = perm;
                    p.input_inv = phase;
                    p.output_inv = oinv;
                    p.cost = cell.area_um2 +
                             mt.inv_area * (std::popcount(phase) + (oinv ? 1 : 0));
                    std::int32_t& slot = mt.by_function[k][word];
                    if (slot < 0) {
                        slot = static_cast<std::int32_t>(mt.patterns.size());
                        mt.patterns.push_back(std::move(p));
                    } else if (p.cost < mt.patterns[static_cast<std::size_t>(slot)].cost) {
                        mt.patterns[static_cast<std::size_t>(slot)] = std::move(p);
                    }
                }
            }
        } while (std::next_permutation(perm.begin(), perm.end()));
    }
    return mt;
}

/// Chosen implementation of one AIG node: pointers into the node's cut
/// list and the match tables, both alive for the whole mapping.
struct Choice {
    const Cut* cut = nullptr;
    const Pattern* pattern = nullptr;
    double area_flow = 0;
};

}  // namespace

Netlist tech_map(const Aig& aig, std::shared_ptr<const CellLibrary> lib,
                 const TechMapOptions& opts, TechMapStats* stats) {
    // Exact per-node cut cap, trivial cut included (cut_enum.hpp).
    constexpr int kMaxCutsPerNode = 8;
    const MatchTables mt = build_match_tables(*lib);
    const int workers = std::max(1, opts.workers);
    CutEnumOptions ce;
    ce.max_leaves = kMaxFanin;  // a wider cut matches no cell
    ce.max_cuts_per_node = kMaxCutsPerNode;
    ce.workers = workers;
    const CutSet cuts = enumerate_cuts(aig, ce);
    const auto fanout = aig.fanout_counts();

    // Area-flow DP, eval-parallel per topological level: a node's match is
    // a pure function of the frozen match tables and the area-flow of its
    // leaves (strictly lower levels), so one level's nodes are independent
    // tasks writing disjoint choice/af slots — byte-identical for any
    // worker count.
    std::vector<Choice> choice(aig.num_nodes());
    std::vector<double> af(aig.num_nodes(), 0.0);
    struct MatchCounters {
        std::uint64_t cuts_evaluated = 0;
        std::uint64_t matched_cuts = 0;
    };
    const auto match_node = [&](std::uint32_t n, CutConeEvaluator& evaluator,
                                MatchCounters& counters) {
        double best = -1;
        for (const Cut& cut : cuts.cuts[n]) {
            if (cut.trivial()) continue;
            ++counters.cuts_evaluated;
            const TruthTable tt = evaluator.evaluate(n, cut);
            const Pattern* pattern =
                mt.find(static_cast<int>(cut.leaves.size()), tt.words()[0]);
            if (!pattern) continue;
            ++counters.matched_cuts;
            double flow = pattern->cost;
            for (const std::uint32_t l : cut.leaves) flow += af[l];
            if (best < 0 || flow < best) {
                best = flow;
                choice[n] = Choice{&cut, pattern, flow};
            }
        }
        if (best < 0) {
            throw std::logic_error("tech_map: unmatched node (library too small)");
        }
        af[n] = best / std::max<std::uint32_t>(1, fanout[n]);
    };

    WorkerTeam team(workers);
    std::vector<CutConeEvaluator> evaluators;
    evaluators.reserve(team.slots());
    for (std::size_t s = 0; s < team.slots(); ++s) evaluators.emplace_back(aig);
    std::vector<MatchCounters> counters(team.slots());
    for (const auto& nodes : aig.and_levels()) {
        team.for_each(nodes.size(), [&](std::size_t i, std::size_t slot) {
            match_node(nodes[i], evaluators[slot], counters[slot]);
        });
    }
    // Each node is counted exactly once whatever slot ran it, so the summed
    // totals are worker-invariant.
    MatchCounters total;
    for (const MatchCounters& c : counters) {
        total.cuts_evaluated += c.cuts_evaluated;
        total.matched_cuts += c.matched_cuts;
    }
    if (stats) {
        stats->cuts_evaluated = total.cuts_evaluated;
        stats->matched_cuts = total.matched_cuts;
        stats->workers = workers;
    }

    // Cover from outputs.
    std::vector<bool> required(aig.num_nodes(), false);
    std::vector<std::uint32_t> stack;
    for (const auto& [name, lit] : aig.outputs()) {
        (void)name;
        const std::uint32_t n = aig_node(lit);
        if (aig.is_and(n)) stack.push_back(n);
    }
    while (!stack.empty()) {
        const std::uint32_t n = stack.back();
        stack.pop_back();
        if (required[n]) continue;
        required[n] = true;
        for (const std::uint32_t l : choice[n].cut->leaves) {
            if (aig.is_and(l)) stack.push_back(l);
        }
    }

    // Emit the netlist.
    Netlist nl(lib, "mapped");
    std::vector<NetId> signal(aig.num_nodes(), kNoNet);  // positive polarity
    std::vector<NetId> inverted(aig.num_nodes(), kNoNet);
    for (std::size_t i = 0; i < aig.num_inputs(); ++i) {
        signal[aig_node(aig.input(i))] = nl.add_primary_input(aig.input_name(i));
    }
    const std::size_t inv_cell = mt.inv_cell;
    int aux = 0;
    const auto inverted_net = [&](std::uint32_t node) {
        if (inverted[node] == kNoNet) {
            assert(signal[node] != kNoNet);
            const InstId g = nl.add_instance("minv" + std::to_string(aux++), inv_cell,
                                             {signal[node]});
            inverted[node] = nl.instance(g).output;
        }
        return inverted[node];
    };

    for (const std::uint32_t n : aig.topological_order()) {
        if (!aig.is_and(n) || !required[n]) continue;
        const Cut& cut = *choice[n].cut;
        const Pattern& pattern = *choice[n].pattern;
        const CellType& cell = lib->cell(pattern.cell);
        const int k = function_arity(cell.function);
        std::vector<NetId> pins(static_cast<std::size_t>(k));
        for (int pin = 0; pin < k; ++pin) {
            const std::uint32_t leaf =
                cut.leaves[static_cast<std::size_t>(pattern.perm[static_cast<std::size_t>(pin)])];
            pins[static_cast<std::size_t>(pin)] =
                (pattern.input_inv & (1u << pin)) ? inverted_net(leaf) : signal[leaf];
        }
        const InstId g = nl.add_instance("m" + std::to_string(n), pattern.cell, pins);
        if (pattern.output_inv) {
            const InstId gi = nl.add_instance("mo" + std::to_string(n), inv_cell,
                                              {nl.instance(g).output});
            signal[n] = nl.instance(gi).output;
            inverted[n] = nl.instance(g).output;
        } else {
            signal[n] = nl.instance(g).output;
        }
    }

    // Outputs (constants and direct PI feedthroughs included).
    const auto tie = [&](bool v) {
        const auto cell = lib->find_function(v ? CellFunction::Const1 : CellFunction::Const0);
        if (!cell) throw std::runtime_error("tech_map: library lacks tie cells");
        const InstId g = nl.add_instance("tie" + std::to_string(aux++), *cell, {});
        return nl.instance(g).output;
    };
    for (const auto& [name, lit] : aig.outputs()) {
        const std::uint32_t n = aig_node(lit);
        NetId net;
        if (n == 0) {
            net = tie(aig_is_complement(lit));
        } else {
            net = aig_is_complement(lit) ? inverted_net(n) : signal[n];
        }
        nl.add_primary_output(name, net);
    }
    return nl;
}

Netlist naive_map(const Aig& aig, std::shared_ptr<const CellLibrary> lib) {
    const auto and2 = lib->find_function(CellFunction::And2);
    const auto inv = lib->find_function(CellFunction::Inv);
    if (!and2 || !inv) throw std::runtime_error("naive_map: library lacks AND2/INV");

    Netlist nl(lib, "naive");
    std::vector<NetId> signal(aig.num_nodes(), kNoNet);
    std::vector<NetId> inverted(aig.num_nodes(), kNoNet);
    for (std::size_t i = 0; i < aig.num_inputs(); ++i) {
        signal[aig_node(aig.input(i))] = nl.add_primary_input(aig.input_name(i));
    }
    int aux = 0;
    const auto net_of = [&](AigLit lit) {
        const std::uint32_t n = aig_node(lit);
        if (!aig_is_complement(lit)) return signal[n];
        if (inverted[n] == kNoNet) {
            const InstId g =
                nl.add_instance("ninv" + std::to_string(aux++), *inv, {signal[n]});
            inverted[n] = nl.instance(g).output;
        }
        return inverted[n];
    };

    for (const std::uint32_t n : aig.topological_order()) {
        if (!aig.is_and(n)) continue;
        const NetId a = net_of(aig.fanin0(n));
        const NetId b = net_of(aig.fanin1(n));
        const InstId g = nl.add_instance("n" + std::to_string(n), *and2, {a, b});
        signal[n] = nl.instance(g).output;
    }

    const auto tie = [&](bool v) {
        const auto cell = lib->find_function(v ? CellFunction::Const1 : CellFunction::Const0);
        if (!cell) throw std::runtime_error("naive_map: library lacks tie cells");
        const InstId g = nl.add_instance("tie" + std::to_string(aux++), *cell, {});
        return nl.instance(g).output;
    };
    for (const auto& [name, lit] : aig.outputs()) {
        const std::uint32_t n = aig_node(lit);
        const NetId net = (n == 0) ? tie(aig_is_complement(lit)) : net_of(lit);
        nl.add_primary_output(name, net);
    }
    return nl;
}

}  // namespace janus
