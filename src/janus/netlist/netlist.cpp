#include "janus/netlist/netlist.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace janus {

Netlist::Netlist(std::shared_ptr<const CellLibrary> lib, std::string name)
    : lib_(std::move(lib)), name_(std::move(name)) {
    if (!lib_) throw std::invalid_argument("Netlist: null cell library");
}

void Netlist::invalidate_caches() {
    sink_cache_valid_ = false;
    topo_cache_valid_ = false;
    ++epoch_;
}

NetId Netlist::add_net(std::string_view name) {
    nets_.push_back(Net{names_.intern(name), kNoInst, DriverKind::None});
    invalidate_caches();
    return static_cast<NetId>(nets_.size() - 1);
}

NetId Netlist::add_primary_input(std::string_view name) {
    const NetId id = add_net(name);
    nets_[id].driver_kind = DriverKind::PrimaryInput;
    primary_inputs_.push_back(id);
    return id;
}

void Netlist::add_primary_output(std::string_view name, NetId net) {
    assert(net < nets_.size());
    primary_outputs_.emplace_back(std::string(name), net);
}

void Netlist::set_primary_output(const std::string& name, NetId net) {
    assert(net < nets_.size());
    for (auto& [po_name, po_net] : primary_outputs_) {
        if (po_name == name) {
            po_net = net;
            return;
        }
    }
    throw std::invalid_argument("set_primary_output: unknown output " + name);
}

InstId Netlist::add_instance(std::string_view name, std::size_t type,
                             const std::vector<NetId>& fanins) {
    const CellType& ct = lib_->cell(type);
    const int arity = function_arity(ct.function);
    if (static_cast<int>(fanins.size()) != arity) {
        throw std::invalid_argument("add_instance(" + std::string(name) +
                                    "): expected " + std::to_string(arity) +
                                    " fanins, got " + std::to_string(fanins.size()));
    }
    Instance inst;
    inst.name = names_.intern(name);
    inst.type = static_cast<std::uint32_t>(type);
    for (std::size_t i = 0; i < fanins.size(); ++i) {
        assert(fanins[i] == kNoNet || fanins[i] < nets_.size());
        inst.fanin[i] = fanins[i];
    }
    const InstId id = static_cast<InstId>(instances_.size());
    // The output net's name is derived ("<name>.out") rather than interned:
    // storing the instance's NameId with the kDerivedName flag avoids a
    // second near-duplicate string per instance in the name pool.
    assert(!(inst.name & kDerivedName) && "name pool exceeded 2 GiB");
    nets_.push_back(Net{inst.name | kDerivedName, id, DriverKind::Instance});
    inst.output = static_cast<NetId>(nets_.size() - 1);
    instances_.push_back(inst);
    invalidate_caches();
    return id;
}

std::string Netlist::net_name(NetId id) const {
    const NameId nm = nets_.at(id).name;
    if (nm == kNoName) return std::string();
    if (nm & kDerivedName) {
        return std::string(names_.view(nm & ~kDerivedName)) + ".out";
    }
    return std::string(names_.view(nm));
}

NameId Netlist::net_name_id(std::string_view name) const {
    // An explicitly interned name wins (it was created verbatim by
    // add_net); otherwise try the derived "<inst>.out" encoding that
    // add_instance gives auto-created output nets.
    const NameId direct = names_.find(name);
    if (direct != kNoName) return direct;
    constexpr std::string_view kSuffix = ".out";
    if (name.size() > kSuffix.size() && name.ends_with(kSuffix)) {
        const NameId base =
            names_.find(name.substr(0, name.size() - kSuffix.size()));
        if (base != kNoName) return base | kDerivedName;
    }
    return kNoName;
}

void Netlist::connect_input(InstId inst, int pin, NetId net) {
    assert(inst < instances_.size());
    assert(pin >= 0 && pin < function_arity(type_of(inst).function));
    assert(net < nets_.size());
    instances_[inst].fanin[static_cast<std::size_t>(pin)] = net;
    invalidate_caches();
}

void Netlist::build_sink_csr() const {
    // Two-pass counting-sort fill. The pool order must match the historical
    // per-net push order — instance-id-major, pin-minor — so downstream
    // consumers (router net ordering, timing graph edges) see sinks in the
    // exact sequence the old vector<vector> cache produced.
    sink_offsets_.assign(nets_.size() + 1, 0);
    for (InstId i = 0; i < instances_.size(); ++i) {
        const int arity = function_arity(type_of(i).function);
        for (int p = 0; p < arity; ++p) {
            const NetId n = instances_[i].fanin[static_cast<std::size_t>(p)];
            if (n != kNoNet) ++sink_offsets_[n + 1];
        }
    }
    for (std::size_t n = 1; n < sink_offsets_.size(); ++n) {
        sink_offsets_[n] += sink_offsets_[n - 1];
    }
    sink_pool_.resize(sink_offsets_.back());
    std::vector<std::uint32_t> cursor(sink_offsets_.begin(), sink_offsets_.end() - 1);
    for (InstId i = 0; i < instances_.size(); ++i) {
        const int arity = function_arity(type_of(i).function);
        for (int p = 0; p < arity; ++p) {
            const NetId n = instances_[i].fanin[static_cast<std::size_t>(p)];
            if (n != kNoNet) sink_pool_[cursor[n]++] = SinkRef{i, p};
        }
    }
    sink_cache_valid_ = true;
}

std::span<const SinkRef> Netlist::sinks(NetId net) const {
    if (!sink_cache_valid_) build_sink_csr();
    if (net >= nets_.size()) throw std::out_of_range("sinks: bad net id");
    return std::span<const SinkRef>(sink_pool_.data() + sink_offsets_[net],
                                    sink_offsets_[net + 1] - sink_offsets_[net]);
}

std::size_t Netlist::fanout_count(NetId net) const {
    std::size_t n = sinks(net).size();
    for (const auto& [name, po_net] : primary_outputs_) {
        (void)name;
        if (po_net == net) ++n;
    }
    return n;
}

std::vector<InstId> Netlist::sequential_instances() const {
    std::vector<InstId> out;
    for (InstId i = 0; i < instances_.size(); ++i) {
        if (is_sequential(type_of(i).function)) out.push_back(i);
    }
    return out;
}

const std::vector<InstId>& Netlist::topological_order() const {
    if (topo_cache_valid_) return topo_cache_;
    // Kahn's algorithm over combinational instances. A combinational
    // instance is ready when all fanin nets are driven by PIs, flops, or
    // already-ordered combinational instances.
    std::vector<int> pending(instances_.size(), 0);
    std::vector<InstId> ready;
    for (InstId i = 0; i < instances_.size(); ++i) {
        if (is_sequential(type_of(i).function)) continue;
        int deps = 0;
        const int arity = function_arity(type_of(i).function);
        for (int p = 0; p < arity; ++p) {
            const NetId n = instances_[i].fanin[static_cast<std::size_t>(p)];
            if (n == kNoNet) continue;
            if (nets_[n].driver_kind == DriverKind::Instance &&
                !is_sequential(type_of(nets_[n].driver_inst).function)) {
                ++deps;
            }
        }
        pending[i] = deps;
        if (deps == 0) ready.push_back(i);
    }

    std::vector<InstId> order;
    order.reserve(instances_.size());
    std::size_t head = 0;
    std::size_t num_comb = 0;
    for (InstId i = 0; i < instances_.size(); ++i) {
        if (!is_sequential(type_of(i).function)) ++num_comb;
    }
    while (head < ready.size()) {
        const InstId i = ready[head++];
        order.push_back(i);
        for (const SinkRef& s : sinks(instances_[i].output)) {
            if (is_sequential(type_of(s.inst()).function)) continue;
            if (--pending[s.inst()] == 0) ready.push_back(s.inst());
        }
    }
    if (order.size() != num_comb) {
        // Name the cycle, not just the design: walk fanins from any
        // unordered instance through unordered drivers until one repeats —
        // every instance with pending deps sits on or downstream of a
        // cycle, and the walk can only terminate by closing one.
        InstId start = kNoInst;
        for (InstId i = 0; i < instances_.size() && start == kNoInst; ++i) {
            if (!is_sequential(type_of(i).function) && pending[i] > 0) start = i;
        }
        std::string cycle;
        if (start != kNoInst) {
            std::vector<InstId> path;
            std::vector<char> on_path(instances_.size(), 0);
            InstId cur = start;
            while (!on_path[cur]) {
                on_path[cur] = 1;
                path.push_back(cur);
                const int arity = function_arity(type_of(cur).function);
                for (int p = 0; p < arity; ++p) {
                    const NetId n = instances_[cur].fanin[static_cast<std::size_t>(p)];
                    if (n == kNoNet || nets_[n].driver_kind != DriverKind::Instance) continue;
                    const InstId d = nets_[n].driver_inst;
                    if (!is_sequential(type_of(d).function) && pending[d] > 0) {
                        cur = d;
                        break;
                    }
                }
            }
            // `cur` closes the cycle; report from its first occurrence.
            const auto first = std::find(path.begin(), path.end(), cur);
            const std::size_t shown = std::min<std::size_t>(
                8, static_cast<std::size_t>(path.end() - first));
            for (std::size_t k = 0; k < shown; ++k) {
                if (k) cycle += " -> ";
                cycle += instance_name(*(first + static_cast<std::ptrdiff_t>(k)));
            }
            if (static_cast<std::size_t>(path.end() - first) > shown) {
                cycle += " -> ...";
            } else {
                cycle += " -> ";
                cycle += instance_name(cur);
            }
        }
        throw std::runtime_error(
            "topological_order: combinational loop in " + name_ +
            (cycle.empty()
                 ? std::string()
                 : " involving instance " + std::string(instance_name(start)) +
                       " (cycle: " + cycle + ")"));
    }
    // Cache only on success so a loopy netlist keeps throwing until fixed.
    topo_cache_ = std::move(order);
    topo_cache_valid_ = true;
    return topo_cache_;
}

int Netlist::logic_depth() const {
    std::vector<int> depth(nets_.size(), 0);
    int max_depth = 0;
    for (InstId i : topological_order()) {
        const int arity = function_arity(type_of(i).function);
        int d = 0;
        for (int p = 0; p < arity; ++p) {
            const NetId n = instances_[i].fanin[static_cast<std::size_t>(p)];
            if (n != kNoNet) d = std::max(d, depth[n]);
        }
        depth[instances_[i].output] = d + 1;
        max_depth = std::max(max_depth, d + 1);
    }
    return max_depth;
}

double Netlist::total_area() const {
    double a = 0;
    for (InstId i = 0; i < instances_.size(); ++i) a += type_of(i).area_um2;
    return a;
}

std::size_t Netlist::memory_bytes() const {
    std::size_t bytes = sizeof(*this);
    bytes += instances_.capacity() * sizeof(Instance);
    bytes += nets_.capacity() * sizeof(Net);
    bytes += names_.memory_bytes();
    bytes += primary_inputs_.capacity() * sizeof(NetId);
    for (const auto& [po_name, po_net] : primary_outputs_) {
        (void)po_net;
        // Heap block behind each PO name string (SSO names cost nothing).
        if (po_name.capacity() > sizeof(std::string)) bytes += po_name.capacity() + 1;
    }
    bytes += primary_outputs_.capacity() * sizeof(std::pair<std::string, NetId>);
    bytes += sink_offsets_.capacity() * sizeof(std::uint32_t);
    bytes += sink_pool_.capacity() * sizeof(SinkRef);
    bytes += topo_cache_.capacity() * sizeof(InstId);
    bytes += name_.capacity() > sizeof(std::string) ? name_.capacity() + 1 : 0;
    return bytes;
}

void Netlist::shrink_to_fit() {
    instances_.shrink_to_fit();
    nets_.shrink_to_fit();
    primary_inputs_.shrink_to_fit();
    primary_outputs_.shrink_to_fit();
    sink_offsets_.shrink_to_fit();
    sink_pool_.shrink_to_fit();
    topo_cache_.shrink_to_fit();
}

std::vector<std::string> Netlist::validate() const {
    std::vector<std::string> problems;
    // Count drivers per net.
    std::vector<int> drivers(nets_.size(), 0);
    for (NetId n = 0; n < nets_.size(); ++n) {
        if (nets_[n].driver_kind != DriverKind::None) drivers[n] = 1;
    }
    for (InstId i = 0; i < instances_.size(); ++i) {
        const Instance& inst = instances_[i];
        // The name is materialized only for a problem report.
        const auto iname = [&] { return std::string(instance_name(i)); };
        const int arity = function_arity(type_of(i).function);
        for (int p = 0; p < arity; ++p) {
            if (inst.fanin[static_cast<std::size_t>(p)] == kNoNet) {
                problems.push_back("instance " + iname() + " pin " +
                                   std::to_string(p) + " unconnected");
            }
        }
        for (int p = arity; p < kMaxFanin; ++p) {
            if (inst.fanin[static_cast<std::size_t>(p)] != kNoNet) {
                problems.push_back("instance " + iname() +
                                   " has extra fanin at pin " + std::to_string(p));
            }
        }
        if (inst.output == kNoNet) {
            problems.push_back("instance " + iname() + " has no output net");
        } else if (nets_[inst.output].driver_inst != i) {
            problems.push_back("instance " + iname() + " output driver mismatch");
        }
    }
    for (NetId n = 0; n < nets_.size(); ++n) {
        if (drivers[n] == 0 && (fanout_count(n) > 0)) {
            problems.push_back("net " + net_name(n) + " has sinks but no driver");
        }
    }
    return problems;
}

std::vector<bool> Netlist::evaluate(const std::vector<bool>& pi_values,
                                    const std::vector<bool>& state) const {
    if (pi_values.size() != primary_inputs_.size()) {
        throw std::invalid_argument("evaluate: PI value count mismatch");
    }
    const std::vector<InstId> seq = sequential_instances();
    if (state.size() != seq.size()) {
        throw std::invalid_argument("evaluate: state count mismatch");
    }
    std::vector<bool> value(nets_.size(), false);
    for (std::size_t i = 0; i < primary_inputs_.size(); ++i) {
        value[primary_inputs_[i]] = pi_values[i];
    }
    for (std::size_t i = 0; i < seq.size(); ++i) {
        value[instances_[seq[i]].output] = state[i];
    }
    for (InstId i : topological_order()) {
        const CellType& ct = type_of(i);
        const int arity = function_arity(ct.function);
        unsigned in = 0;
        for (int p = 0; p < arity; ++p) {
            const NetId n = instances_[i].fanin[static_cast<std::size_t>(p)];
            if (n != kNoNet && value[n]) in |= (1u << p);
        }
        value[instances_[i].output] = evaluate_function(ct.function, in);
    }
    return value;
}

std::vector<bool> Netlist::next_state(const std::vector<bool>& pi_values,
                                      const std::vector<bool>& state) const {
    const std::vector<bool> value = evaluate(pi_values, state);
    const std::vector<InstId> seq = sequential_instances();
    std::vector<bool> next(seq.size(), false);
    for (std::size_t i = 0; i < seq.size(); ++i) {
        const Instance& inst = instances_[seq[i]];
        const NetId d = inst.fanin[0];  // pin 0 is D
        bool v = d != kNoNet && value[d];
        if (type_of(seq[i]).function == CellFunction::ScanDff) {
            // Scan mux: SE (pin 2) selects SI (pin 1) over D.
            const NetId si = inst.fanin[1];
            const NetId se = inst.fanin[2];
            if (se != kNoNet && value[se]) v = si != kNoNet && value[si];
        }
        next[i] = v;
    }
    return next;
}

}  // namespace janus
