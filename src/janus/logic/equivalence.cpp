#include "janus/logic/equivalence.hpp"

#include <stdexcept>

#include "janus/logic/aig.hpp"
#include "janus/logic/sat.hpp"
#include "janus/util/rng.hpp"

namespace janus {

EquivalenceResult check_equivalence(const Netlist& a, const Netlist& b,
                                    const EquivalenceOptions& opts) {
    // Designs with at most this many primary inputs are proved exactly via
    // truth tables; wider ones go to the SAT miter.
    constexpr std::size_t kExactInputLimit = 16;

    if (a.primary_inputs().size() != b.primary_inputs().size() ||
        a.primary_outputs().size() != b.primary_outputs().size()) {
        throw std::invalid_argument("check_equivalence: interface mismatch");
    }
    if (!a.sequential_instances().empty() || !b.sequential_instances().empty()) {
        throw std::invalid_argument("check_equivalence: sequential design");
    }
    EquivalenceResult res;
    const std::size_t n = a.primary_inputs().size();

    if (n <= kExactInputLimit) {
        // Exact: compare output truth tables via the AIG (shared strashing
        // makes identical cones literally the same node).
        const Aig aa = Aig::from_netlist(a);
        const Aig ab = Aig::from_netlist(b);
        const auto ta = aa.output_truth_tables();
        const auto tb = ab.output_truth_tables();
        res.method = "proved";
        res.equivalent = true;
        for (std::size_t o = 0; o < ta.size(); ++o) {
            if (ta[o] == tb[o]) continue;
            res.equivalent = false;
            // Find a distinguishing minterm.
            for (std::uint64_t m = 0; m < ta[o].num_minterms_space(); ++m) {
                if (ta[o].bit(m) != tb[o].bit(m)) {
                    res.counterexample = m;
                    break;
                }
            }
            break;
        }
        res.vectors_checked = std::size_t{1} << n;
        return res;
    }

    // Wide designs: SAT miter proof within the decision budget.
    {
        const Aig aa = Aig::from_netlist(a);
        const Aig ab = Aig::from_netlist(b);
        if (const auto sat = sat_equivalent(aa, ab, opts.sat_decisions)) {
            res.method = "proved-sat";
            res.equivalent = *sat;
            return res;
        }
    }

    // Falsification by random simulation (SAT budget exhausted).
    Rng rng(opts.seed);
    res.method = "sampled";
    res.equivalent = true;
    for (std::size_t v = 0; v < opts.random_vectors; ++v) {
        std::vector<bool> pis(n);
        std::uint64_t packed = 0;
        for (std::size_t i = 0; i < n; ++i) {
            pis[i] = rng.next_bool();
            if (pis[i] && i < 64) packed |= (1ull << i);
        }
        const auto va = a.evaluate(pis, {});
        const auto vb = b.evaluate(pis, {});
        ++res.vectors_checked;
        for (std::size_t o = 0; o < a.primary_outputs().size(); ++o) {
            if (va[a.primary_outputs()[o].second] !=
                vb[b.primary_outputs()[o].second]) {
                res.equivalent = false;
                res.counterexample = packed;
                return res;
            }
        }
    }
    return res;
}

}  // namespace janus
