#include "janus/logic/aig_netlist.hpp"

#include <stdexcept>
#include <string>
#include <vector>

namespace janus {
namespace {

[[noreturn]] void missing_cell(const char* what) {
    throw std::runtime_error(std::string("netlist_from_aiger: library has no ") +
                             what + " cell");
}

std::size_t require(const CellLibrary& lib, CellFunction fn, const char* what) {
    const auto id = lib.find_function(fn);
    if (!id) missing_cell(what);
    return *id;
}

}  // namespace

Netlist netlist_from_aiger(const AigerDesign& design,
                           std::shared_ptr<const CellLibrary> lib) {
    const Aig& g = design.aig;
    const std::size_t and2 = require(*lib, CellFunction::And2, "AND2");
    const std::size_t inv = require(*lib, CellFunction::Inv, "INV");

    Netlist nl(lib, design.name);

    // Net of each node's positive literal; inverted literals memoize one
    // INV instance per node. `_` prefixes keep generated names out of the
    // symbol-table namespace by convention (duplicates would still be
    // structurally harmless).
    std::vector<NetId> node_net(g.num_nodes(), kNoNet);
    std::vector<NetId> inv_net(g.num_nodes(), kNoNet);
    NetId const_net[2] = {kNoNet, kNoNet};

    for (std::size_t i = 0; i < design.num_inputs; ++i) {
        const std::string& nm = g.input_name(i);
        node_net[aig_node(g.input(i))] = nl.add_primary_input(
            nm.empty() ? "i" + std::to_string(i) : nm);
    }
    std::vector<InstId> latch_insts;
    latch_insts.reserve(design.latches.size());
    for (std::size_t j = 0; j < design.latches.size(); ++j) {
        const std::size_t dff = require(*lib, CellFunction::Dff, "DFF");
        const AigerLatch& l = design.latches[j];
        const InstId id = nl.add_instance(
            l.name.empty() ? "l" + std::to_string(j) : l.name, dff, {kNoNet});
        latch_insts.push_back(id);
        node_net[aig_node(g.input(design.num_inputs + j))] = nl.instance(id).output;
    }

    const auto lit_net = [&](AigLit lit) -> NetId {
        const std::uint32_t node = aig_node(lit);
        if (node == 0) {
            const bool one = aig_is_complement(lit);
            NetId& slot = const_net[one ? 1 : 0];
            if (slot == kNoNet) {
                const std::size_t cell = require(
                    *lib, one ? CellFunction::Const1 : CellFunction::Const0,
                    one ? "CONST1" : "CONST0");
                slot = nl.instance(nl.add_instance(one ? "_const1" : "_const0",
                                                   cell, {}))
                           .output;
            }
            return slot;
        }
        const NetId pos = node_net.at(node);
        if (!aig_is_complement(lit)) return pos;
        NetId& slot = inv_net[node];
        if (slot == kNoNet) {
            slot = nl.instance(nl.add_instance("_inv_n" + std::to_string(pos), inv,
                                               {pos}))
                       .output;
        }
        return slot;
    };

    // Only the logic reachable from outputs and next-state functions is
    // instantiated (AIGER files may carry dead AND gates).
    std::vector<char> live(g.num_nodes(), 0);
    std::vector<std::uint32_t> stack;
    const auto mark = [&](AigLit lit) {
        stack.push_back(aig_node(lit));
        while (!stack.empty()) {
            const std::uint32_t n = stack.back();
            stack.pop_back();
            if (live[n]) continue;
            live[n] = 1;
            if (g.is_and(n)) {
                stack.push_back(aig_node(g.fanin0(n)));
                stack.push_back(aig_node(g.fanin1(n)));
            }
        }
    };
    for (const auto& [nm, lit] : g.outputs()) mark(lit);
    for (const AigerLatch& l : design.latches) mark(l.next);

    // Node index order is topological (land() creates nodes after their
    // fanins), so fanin nets always exist by the time a node is built.
    for (std::uint32_t n = 0; n < g.num_nodes(); ++n) {
        if (!live[n] || !g.is_and(n)) continue;
        const NetId a = lit_net(g.fanin0(n));
        const NetId b = lit_net(g.fanin1(n));
        node_net[n] =
            nl.instance(nl.add_instance("a" + std::to_string(n), and2, {a, b}))
                .output;
    }

    for (std::size_t j = 0; j < design.latches.size(); ++j) {
        nl.connect_input(latch_insts[j], 0, lit_net(design.latches[j].next));
    }
    for (std::size_t o = 0; o < g.outputs().size(); ++o) {
        const auto& [nm, lit] = g.outputs()[o];
        nl.add_primary_output(nm.empty() ? "o" + std::to_string(o) : nm,
                              lit_net(lit));
    }
    return nl;
}

}  // namespace janus
