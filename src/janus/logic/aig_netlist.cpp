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

AigerDesign aiger_from_netlist(const Netlist& nl) {
    AigerDesign d;
    d.name = nl.name();
    Aig& g = d.aig;

    constexpr AigLit kUnset = 0xFFFFFFFFu;
    std::vector<AigLit> lit_of(nl.num_nets(), kUnset);

    for (const NetId pi : nl.primary_inputs()) {
        lit_of[pi] = g.add_input(std::string(nl.net_name(pi)));
    }
    d.num_inputs = nl.primary_inputs().size();

    const std::vector<InstId> seq = nl.sequential_instances();
    for (const InstId id : seq) {
        const NetId q = nl.instance(id).output;
        lit_of[q] = g.add_input(std::string(nl.net_name(q)));
    }

    const auto in_lit = [&](InstId id, int pin) {
        const NetId n = nl.instance(id).fanin[static_cast<std::size_t>(pin)];
        if (n == kNoNet || lit_of.at(n) == kUnset) {
            throw std::runtime_error("aiger_from_netlist: instance " +
                                     std::string(nl.instance_name(id)) +
                                     " reads an undriven net");
        }
        return lit_of[n];
    };

    for (const InstId id : nl.topological_order()) {
        const CellFunction fn = nl.type_of(id).function;
        const int arity = function_arity(fn);
        AigLit f[kMaxFanin] = {0, 0, 0, 0};
        for (int p = 0; p < arity; ++p) f[p] = in_lit(id, p);
        AigLit out = 0;
        switch (fn) {
            case CellFunction::Const0: out = Aig::const0(); break;
            case CellFunction::Const1: out = Aig::const1(); break;
            case CellFunction::Buf: out = f[0]; break;
            case CellFunction::Inv: out = aig_not(f[0]); break;
            case CellFunction::And2: out = g.land(f[0], f[1]); break;
            case CellFunction::And3: out = g.land(g.land(f[0], f[1]), f[2]); break;
            case CellFunction::And4:
                out = g.land(g.land(f[0], f[1]), g.land(f[2], f[3]));
                break;
            case CellFunction::Nand2: out = aig_not(g.land(f[0], f[1])); break;
            case CellFunction::Nand3:
                out = aig_not(g.land(g.land(f[0], f[1]), f[2]));
                break;
            case CellFunction::Nand4:
                out = aig_not(g.land(g.land(f[0], f[1]), g.land(f[2], f[3])));
                break;
            case CellFunction::Or2: out = g.lor(f[0], f[1]); break;
            case CellFunction::Or3: out = g.lor(g.lor(f[0], f[1]), f[2]); break;
            case CellFunction::Or4:
                out = g.lor(g.lor(f[0], f[1]), g.lor(f[2], f[3]));
                break;
            case CellFunction::Nor2: out = aig_not(g.lor(f[0], f[1])); break;
            case CellFunction::Nor3:
                out = aig_not(g.lor(g.lor(f[0], f[1]), f[2]));
                break;
            case CellFunction::Nor4:
                out = aig_not(g.lor(g.lor(f[0], f[1]), g.lor(f[2], f[3])));
                break;
            case CellFunction::Xor2: out = g.lxor(f[0], f[1]); break;
            case CellFunction::Xnor2: out = aig_not(g.lxor(f[0], f[1])); break;
            case CellFunction::Xor3: out = g.lxor(g.lxor(f[0], f[1]), f[2]); break;
            case CellFunction::Mux2: out = g.lmux(f[0], f[1], f[2]); break;
            case CellFunction::Aoi21:
                out = aig_not(g.lor(g.land(f[0], f[1]), f[2]));
                break;
            case CellFunction::Oai21:
                out = aig_not(g.land(g.lor(f[0], f[1]), f[2]));
                break;
            case CellFunction::Maj3: out = g.lmaj(f[0], f[1], f[2]); break;
            case CellFunction::Dff:
            case CellFunction::ScanDff:
                // Sequential cells are sources here; topological_order()
                // never yields them.
                throw std::runtime_error(
                    "aiger_from_netlist: sequential cell in combinational order");
        }
        lit_of[nl.instance(id).output] = out;
    }

    for (const auto& [nm, net] : nl.primary_outputs()) {
        if (lit_of.at(net) == kUnset) {
            throw std::runtime_error("aiger_from_netlist: output " + nm +
                                     " observes an undriven net");
        }
        g.add_output(nm, lit_of[net]);
    }
    for (const InstId id : seq) {
        const Instance& inst = nl.instance(id);
        AigerLatch l;
        l.name = std::string(nl.net_name(inst.output));
        if (nl.type_of(id).function == CellFunction::ScanDff) {
            // Keep scan semantics: next = se ? si : d.
            l.next = g.lmux(in_lit(id, 2), in_lit(id, 0), in_lit(id, 1));
        } else {
            l.next = in_lit(id, 0);
        }
        d.latches.push_back(std::move(l));
    }
    d.file_ands = g.num_ands();
    return d;
}

}  // namespace janus
