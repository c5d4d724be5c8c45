#include "janus/dft/fault_sim.hpp"

#include <stdexcept>

namespace janus {
namespace {

/// Core simulation with an optional injected fault.
std::vector<std::uint64_t> simulate_core(const Netlist& nl,
                                         const PatternBatch& batch,
                                         const Fault* fault) {
    std::vector<std::uint64_t> value(nl.num_nets(), 0);
    std::size_t slot = 0;
    for (const NetId pi : nl.primary_inputs()) value[pi] = batch.words.at(slot++);
    for (const InstId f : nl.sequential_instances()) {
        value[nl.instance(f).output] = batch.words.at(slot++);
    }
    const auto inject = [&](NetId n) {
        if (fault && fault->net == n) {
            value[n] = fault->stuck_value ? ~0ull : 0;
        }
    };
    for (const NetId pi : nl.primary_inputs()) inject(pi);
    for (const InstId f : nl.sequential_instances()) inject(nl.instance(f).output);

    // One call per fault per batch; the epoch-cached order makes this a
    // vector walk, not a Kahn pass each time.
    for (const InstId i : nl.topological_order()) {
        const Instance& inst = nl.instance(i);
        std::uint64_t in[kMaxFanin];
        for (std::size_t p = 0; p < inst.fanin.size(); ++p) {
            in[p] = inst.fanin[p] == kNoNet ? 0 : value[inst.fanin[p]];
        }
        value[inst.output] = apply_function(nl.type_of(i).function, WordAlgebra{}, in);
        inject(inst.output);
    }
    return value;
}

}  // namespace

std::vector<Fault> enumerate_faults(const Netlist& nl) {
    std::vector<Fault> faults;
    for (NetId n = 0; n < nl.num_nets(); ++n) {
        if (nl.net(n).driver_kind == DriverKind::None) continue;
        faults.push_back(Fault{n, false});
        faults.push_back(Fault{n, true});
    }
    return faults;
}

std::size_t num_input_slots(const Netlist& nl) {
    return nl.primary_inputs().size() + nl.sequential_instances().size();
}

std::size_t num_output_slots(const Netlist& nl) {
    return nl.primary_outputs().size() + nl.sequential_instances().size();
}

std::vector<std::uint64_t> simulate_batch(const Netlist& nl,
                                          const PatternBatch& batch) {
    if (batch.words.size() != num_input_slots(nl)) {
        throw std::invalid_argument("simulate_batch: slot count mismatch");
    }
    return simulate_core(nl, batch, nullptr);
}

std::vector<std::uint64_t> observe(const Netlist& nl,
                                   const std::vector<std::uint64_t>& net_values) {
    std::vector<std::uint64_t> out;
    out.reserve(num_output_slots(nl));
    for (const auto& [name, net] : nl.primary_outputs()) {
        (void)name;
        out.push_back(net_values[net]);
    }
    for (const InstId f : nl.sequential_instances()) {
        const NetId d = nl.instance(f).fanin[0];
        out.push_back(d == kNoNet ? 0 : net_values[d]);
    }
    return out;
}

FaultSimResult fault_simulate(const Netlist& nl,
                              const std::vector<PatternBatch>& batches,
                              const std::vector<Fault>& faults) {
    FaultSimResult res;
    res.total_faults = faults.size();
    std::vector<bool> detected(faults.size(), false);

    for (const PatternBatch& batch : batches) {
        const std::uint64_t live_mask =
            batch.count >= 64 ? ~0ull : ((1ull << batch.count) - 1);
        const auto good = observe(nl, simulate_core(nl, batch, nullptr));
        for (std::size_t fi = 0; fi < faults.size(); ++fi) {
            if (detected[fi]) continue;  // fault dropping
            const auto bad = observe(nl, simulate_core(nl, batch, &faults[fi]));
            for (std::size_t o = 0; o < good.size(); ++o) {
                if ((good[o] ^ bad[o]) & live_mask) {
                    detected[fi] = true;
                    ++res.detected;
                    break;
                }
            }
        }
    }
    for (std::size_t fi = 0; fi < faults.size(); ++fi) {
        if (!detected[fi]) res.undetected.push_back(faults[fi]);
    }
    return res;
}

}  // namespace janus
