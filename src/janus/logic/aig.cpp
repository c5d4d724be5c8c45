#include "janus/logic/aig.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace janus {
namespace {

std::uint64_t strash_key(AigLit a, AigLit b) {
    if (a > b) std::swap(a, b);
    return (static_cast<std::uint64_t>(a) << 32) | b;
}

/// Fibonacci/xor-shift mix of the packed key; the multiply spreads the
/// low-entropy literal pairs across the high bits, the shift brings them
/// back down for power-of-two masking.
std::size_t strash_hash(std::uint64_t key) {
    key *= 0x9E3779B97F4A7C15ull;
    return static_cast<std::size_t>(key >> 32);
}

}  // namespace

Aig::Aig() {
    // Node 0: constant false.
    fanin0_.push_back(0);
    fanin1_.push_back(0);
    strash_keys_.assign(64, 0);
    strash_values_.assign(64, 0);
}

AigLit Aig::add_input(std::string name) {
    const auto node = static_cast<std::uint32_t>(fanin0_.size());
    fanin0_.push_back(kInputMark);
    fanin1_.push_back(kInputMark);
    inputs_.push_back(node);
    input_names_.push_back(name.empty() ? "i" + std::to_string(inputs_.size() - 1)
                                        : std::move(name));
    return aig_lit(node, false);
}

std::uint32_t Aig::new_and_node(AigLit a, AigLit b) {
    const auto node = static_cast<std::uint32_t>(fanin0_.size());
    fanin0_.push_back(a);
    fanin1_.push_back(b);
    return node;
}

AigLit Aig::land(AigLit a, AigLit b) {
    assert(aig_node(a) < fanin0_.size() && aig_node(b) < fanin0_.size());
    // Normalization and trivial rules.
    if (a > b) std::swap(a, b);
    if (a == const0()) return const0();
    if (a == const1()) return b;
    if (a == b) return a;
    if (a == aig_not(b)) return const0();
    const std::uint64_t key = strash_key(a, b);
    if (2 * (strash_count_ + 1) > strash_keys_.size()) strash_grow();
    const std::size_t mask = strash_keys_.size() - 1;
    std::size_t i = strash_hash(key) & mask;
    while (strash_keys_[i] != 0) {
        if (strash_keys_[i] == key) {
            ++strash_hits_;
            return aig_lit(strash_values_[i], false);
        }
        i = (i + 1) & mask;
    }
    const std::uint32_t node = new_and_node(a, b);
    strash_keys_[i] = key;
    strash_values_[i] = node;
    ++strash_count_;
    return aig_lit(node, false);
}

void Aig::strash_grow() {
    const std::size_t new_size = 2 * strash_keys_.size();
    std::vector<std::uint64_t> keys(new_size, 0);
    std::vector<std::uint32_t> values(new_size, 0);
    const std::size_t mask = new_size - 1;
    for (std::size_t i = 0; i < strash_keys_.size(); ++i) {
        if (strash_keys_[i] == 0) continue;
        std::size_t j = strash_hash(strash_keys_[i]) & mask;
        while (keys[j] != 0) j = (j + 1) & mask;
        keys[j] = strash_keys_[i];
        values[j] = strash_values_[i];
    }
    strash_keys_ = std::move(keys);
    strash_values_ = std::move(values);
}

std::size_t Aig::memory_bytes() const {
    std::size_t bytes = sizeof(*this);
    bytes += fanin0_.capacity() * sizeof(AigLit);
    bytes += fanin1_.capacity() * sizeof(AigLit);
    bytes += inputs_.capacity() * sizeof(std::uint32_t);
    bytes += strash_keys_.capacity() * sizeof(std::uint64_t);
    bytes += strash_values_.capacity() * sizeof(std::uint32_t);
    bytes += input_names_.capacity() * sizeof(std::string);
    for (const std::string& s : input_names_) {
        if (s.capacity() > sizeof(std::string)) bytes += s.capacity() + 1;
    }
    bytes += outputs_.capacity() * sizeof(std::pair<std::string, AigLit>);
    for (const auto& [name, lit] : outputs_) {
        (void)lit;
        if (name.capacity() > sizeof(std::string)) bytes += name.capacity() + 1;
    }
    return bytes;
}

AigLit Aig::lxor(AigLit a, AigLit b) {
    // a ^ b = !(!(a & !b) & !(!a & b))
    return aig_not(land(aig_not(land(a, aig_not(b))), aig_not(land(aig_not(a), b))));
}

AigLit Aig::lmux(AigLit sel, AigLit a, AigLit b) {
    // sel ? b : a
    return aig_not(land(aig_not(land(sel, b)), aig_not(land(aig_not(sel), a))));
}

AigLit Aig::lmaj(AigLit a, AigLit b, AigLit c) {
    return lor(land(a, b), lor(land(a, c), land(b, c)));
}

void Aig::add_output(std::string name, AigLit lit) {
    assert(aig_node(lit) < fanin0_.size());
    outputs_.emplace_back(std::move(name), lit);
}

std::size_t Aig::num_ands() const {
    return fanin0_.size() - 1 - inputs_.size();
}

bool Aig::is_and(std::uint32_t node) const {
    return node != 0 && fanin0_.at(node) != kInputMark;
}

bool Aig::is_input(std::uint32_t node) const {
    return node != 0 && fanin0_.at(node) == kInputMark;
}

std::vector<int> Aig::levels() const {
    std::vector<int> lvl(fanin0_.size(), 0);
    for (std::uint32_t n = 1; n < fanin0_.size(); ++n) {
        if (!is_and(n)) continue;
        // Construction order is topological: fanins have lower indices.
        lvl[n] = 1 + std::max(lvl[aig_node(fanin0_[n])], lvl[aig_node(fanin1_[n])]);
    }
    return lvl;
}

std::vector<std::vector<std::uint32_t>> Aig::and_levels() const {
    const std::vector<int> lvl = levels();
    std::vector<std::vector<std::uint32_t>> out;
    for (std::uint32_t n = 1; n < fanin0_.size(); ++n) {
        if (!is_and(n)) continue;
        const auto l = static_cast<std::size_t>(lvl[n] - 1);
        if (l >= out.size()) out.resize(l + 1);
        out[l].push_back(n);
    }
    return out;
}

int Aig::depth() const {
    const auto lvl = levels();
    int d = 0;
    for (const auto& [name, lit] : outputs_) {
        (void)name;
        d = std::max(d, lvl[aig_node(lit)]);
    }
    return d;
}

std::vector<std::uint32_t> Aig::fanout_counts() const {
    std::vector<std::uint32_t> fo(fanin0_.size(), 0);
    for (std::uint32_t n = 1; n < fanin0_.size(); ++n) {
        if (!is_and(n)) continue;
        ++fo[aig_node(fanin0_[n])];
        ++fo[aig_node(fanin1_[n])];
    }
    for (const auto& [name, lit] : outputs_) {
        (void)name;
        ++fo[aig_node(lit)];
    }
    return fo;
}

std::vector<std::uint32_t> Aig::topological_order() const {
    // Nodes are created fanins-first, so index order is topological.
    std::vector<std::uint32_t> order(fanin0_.size());
    for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
    return order;
}

std::vector<bool> Aig::simulate(const std::vector<bool>& input_values) const {
    if (input_values.size() != inputs_.size()) {
        throw std::invalid_argument("Aig::simulate: input count mismatch");
    }
    std::vector<bool> value(fanin0_.size(), false);
    for (std::size_t i = 0; i < inputs_.size(); ++i) value[inputs_[i]] = input_values[i];
    for (std::uint32_t n = 1; n < fanin0_.size(); ++n) {
        if (!is_and(n)) continue;
        const bool a = value[aig_node(fanin0_[n])] != aig_is_complement(fanin0_[n]);
        const bool b = value[aig_node(fanin1_[n])] != aig_is_complement(fanin1_[n]);
        value[n] = a && b;
    }
    std::vector<bool> out;
    out.reserve(outputs_.size());
    for (const auto& [name, lit] : outputs_) {
        (void)name;
        out.push_back(value[aig_node(lit)] != aig_is_complement(lit));
    }
    return out;
}

std::vector<TruthTable> Aig::output_truth_tables() const {
    const int n = static_cast<int>(inputs_.size());
    if (n > 16) {
        throw std::invalid_argument("Aig::output_truth_tables: too many inputs");
    }
    std::vector<TruthTable> tt(fanin0_.size(), TruthTable(n));
    for (std::size_t i = 0; i < inputs_.size(); ++i) {
        tt[inputs_[i]] = TruthTable::variable(n, static_cast<int>(i));
    }
    for (std::uint32_t node = 1; node < fanin0_.size(); ++node) {
        if (!is_and(node)) continue;
        const TruthTable a = aig_is_complement(fanin0_[node])
                                 ? ~tt[aig_node(fanin0_[node])]
                                 : tt[aig_node(fanin0_[node])];
        const TruthTable b = aig_is_complement(fanin1_[node])
                                 ? ~tt[aig_node(fanin1_[node])]
                                 : tt[aig_node(fanin1_[node])];
        tt[node] = a & b;
    }
    std::vector<TruthTable> out;
    out.reserve(outputs_.size());
    for (const auto& [name, lit] : outputs_) {
        (void)name;
        out.push_back(aig_is_complement(lit) ? ~tt[aig_node(lit)] : tt[aig_node(lit)]);
    }
    return out;
}

Aig Aig::cleanup() const {
    Aig fresh;
    std::vector<AigLit> remap(fanin0_.size(), 0);
    for (std::size_t i = 0; i < inputs_.size(); ++i) {
        remap[inputs_[i]] = fresh.add_input(input_names_[i]);
    }
    // Mark live nodes (reachable from outputs).
    std::vector<bool> live(fanin0_.size(), false);
    std::vector<std::uint32_t> stack;
    for (const auto& [name, lit] : outputs_) {
        (void)name;
        stack.push_back(aig_node(lit));
    }
    while (!stack.empty()) {
        const std::uint32_t n = stack.back();
        stack.pop_back();
        if (live[n]) continue;
        live[n] = true;
        if (is_and(n)) {
            stack.push_back(aig_node(fanin0_[n]));
            stack.push_back(aig_node(fanin1_[n]));
        }
    }
    for (std::uint32_t n = 1; n < fanin0_.size(); ++n) {
        if (!live[n] || !is_and(n)) continue;
        const AigLit a = remap[aig_node(fanin0_[n])] ^ (fanin0_[n] & 1u);
        const AigLit b = remap[aig_node(fanin1_[n])] ^ (fanin1_[n] & 1u);
        remap[n] = fresh.land(a, b);
    }
    for (const auto& [name, lit] : outputs_) {
        fresh.add_output(name, remap[aig_node(lit)] ^ (lit & 1u));
    }
    return fresh;
}

Aig Aig::from_netlist(const Netlist& nl) {
    if (!nl.sequential_instances().empty()) {
        throw std::invalid_argument("Aig::from_netlist: sequential netlist");
    }
    Aig aig;
    std::vector<AigLit> net_lit(nl.num_nets(), 0);
    for (const NetId pi : nl.primary_inputs()) {
        net_lit[pi] = aig.add_input(std::string(nl.net_name(pi)));
    }
    for (const InstId i : nl.topological_order()) {
        const Instance& inst = nl.instance(i);
        const CellFunction fn = nl.type_of(i).function;
        AigLit in[kMaxFanin] = {};
        for (int p = 0; p < function_arity(fn); ++p) {
            in[p] = net_lit[inst.fanin[static_cast<std::size_t>(p)]];
        }
        net_lit[inst.output] = apply_function(fn, aig, in);
    }
    for (const auto& [name, net] : nl.primary_outputs()) {
        aig.add_output(name, net_lit[net]);
    }
    return aig;
}

}  // namespace janus
