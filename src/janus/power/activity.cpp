#include "janus/power/activity.hpp"

#include <algorithm>
#include <cmath>

namespace janus {

ActivityReport estimate_activity(const Netlist& nl, const ActivityOptions& opts) {
    constexpr double kPiProbability = 0.5;   // P(1) at primary inputs
    constexpr double kFlopToggleRate = 0.2;  // toggles/cycle at flop outputs

    ActivityReport r;
    r.probability.assign(nl.num_nets(), 0.0);
    r.toggle_rate.assign(nl.num_nets(), 0.0);

    for (const NetId pi : nl.primary_inputs()) {
        r.probability[pi] = kPiProbability;
        r.toggle_rate[pi] = opts.pi_toggle_rate;
    }
    for (const InstId f : nl.sequential_instances()) {
        const NetId q = nl.instance(f).output;
        r.probability[q] = 0.5;
        r.toggle_rate[q] = kFlopToggleRate;
    }

    // Epoch-cached order: free after any prior STA/sim on this netlist.
    for (const InstId i : nl.topological_order()) {
        const Instance& inst = nl.instance(i);
        const CellFunction fn = nl.type_of(i).function;
        const int arity = function_arity(fn);

        // Exhaustive weighted enumeration of the input space.
        double p_one = 0.0;
        for (unsigned m = 0; m < (1u << arity); ++m) {
            double w = 1.0;
            for (int p = 0; p < arity; ++p) {
                const double pp =
                    r.probability[inst.fanin[static_cast<std::size_t>(p)]];
                w *= (m & (1u << p)) ? pp : (1.0 - pp);
            }
            if (w > 0 && evaluate_function(fn, m)) p_one += w;
        }
        r.probability[inst.output] = p_one;

        // Toggle rate: sum over inputs of P(boolean difference) * alpha_in.
        double toggle = 0.0;
        for (int p = 0; p < arity; ++p) {
            double p_diff = 0.0;  // probability that f flips when input p flips
            for (unsigned m = 0; m < (1u << arity); ++m) {
                if (m & (1u << p)) continue;  // count each co-pair once
                const bool f0 = evaluate_function(fn, m);
                const bool f1 = evaluate_function(fn, m | (1u << p));
                if (f0 == f1) continue;
                // Weight of the other inputs' assignment.
                double w = 1.0;
                for (int q = 0; q < arity; ++q) {
                    if (q == p) continue;
                    const double pp =
                        r.probability[inst.fanin[static_cast<std::size_t>(q)]];
                    w *= (m & (1u << q)) ? pp : (1.0 - pp);
                }
                p_diff += w;
            }
            toggle += p_diff * r.toggle_rate[inst.fanin[static_cast<std::size_t>(p)]];
        }
        // Toggle rate saturates at 1 toggle/cycle in a synchronous design.
        r.toggle_rate[inst.output] = std::min(1.0, toggle);
    }
    return r;
}

}  // namespace janus
