/// Real-circuit ingestion tests: the AIGER/BLIF/ISCAS85 readers, the
/// AIGER->Netlist bridge, the committed corpus (tests/corpus/), the
/// netlist-I/O round-trip properties, and the malformed-input diagnostics.
/// The corpus tests simulate the parsed designs against the arithmetic the
/// generator claims (tests/corpus/generate_corpus.py), so the generator
/// and the parsers validate each other.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "janus/logic/aig_netlist.hpp"
#include "janus/logic/aiger.hpp"
#include "janus/netlist/blif.hpp"
#include "janus/netlist/cell_library.hpp"
#include "janus/netlist/generator.hpp"
#include "janus/netlist/io.hpp"
#include "janus/netlist/iscas.hpp"
#include "janus/netlist/netlist.hpp"
#include "janus/netlist/technology.hpp"
#include "janus/scenario/scenario.hpp"

namespace janus {
namespace {

std::shared_ptr<const CellLibrary> lib28() {
    static const auto lib = std::make_shared<const CellLibrary>(
        make_default_library(*find_node("28nm")));
    return lib;
}

std::string corpus_dir() {
    const std::string root = scenario::find_repo_root();
    EXPECT_FALSE(root.empty()) << "tests must run inside the repo";
    return root + "/tests/corpus";
}

Netlist load_corpus(const std::string& file) {
    return scenario::load_design(corpus_dir() + "/" + file, lib28());
}

/// PI index by net name; fails the test when absent.
std::size_t pi_index(const Netlist& nl, const std::string& name) {
    const auto& pis = nl.primary_inputs();
    for (std::size_t i = 0; i < pis.size(); ++i) {
        if (nl.net_name(pis[i]) == name) return i;
    }
    ADD_FAILURE() << "no primary input named " << name;
    return 0;
}

std::size_t po_net(const Netlist& nl, const std::string& name) {
    for (const auto& [nm, net] : nl.primary_outputs()) {
        if (nm == name) return net;
    }
    ADD_FAILURE() << "no primary output named " << name;
    return 0;
}

/// Deterministic test-vector source.
std::uint64_t lcg(std::uint64_t& s) {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    return s >> 33;
}

// ------------------------------------------------------------- corpus ----

TEST(Corpus, C17IsTheRealC17) {
    const Netlist nl = load_corpus("c17.bench");
    EXPECT_TRUE(nl.validate().empty());
    EXPECT_EQ(nl.primary_inputs().size(), 5u);
    EXPECT_EQ(nl.primary_outputs().size(), 2u);
    EXPECT_EQ(nl.num_instances(), 6u);  // six NANDs, no helper gates
    // Exhaustive check against the published NAND structure.
    const std::size_t i1 = pi_index(nl, "1"), i2 = pi_index(nl, "2"),
                      i3 = pi_index(nl, "3"), i6 = pi_index(nl, "6"),
                      i7 = pi_index(nl, "7");
    for (unsigned v = 0; v < 32; ++v) {
        std::vector<bool> pi(5);
        const bool a = v & 1, b = v & 2, c = v & 4, d = v & 8, e = v & 16;
        pi[i1] = a; pi[i2] = b; pi[i3] = c; pi[i6] = d; pi[i7] = e;
        const auto vals = nl.evaluate(pi, {});
        const bool n10 = !(a && c), n11 = !(c && d);
        const bool n16 = !(b && n11), n19 = !(n11 && e);
        EXPECT_EQ(vals[po_net(nl, "22")], !(n10 && n16)) << "v=" << v;
        EXPECT_EQ(vals[po_net(nl, "23")], !(n16 && n19)) << "v=" << v;
    }
}

TEST(Corpus, Cla16Adds) {
    const Netlist nl = load_corpus("cla16.bench");
    EXPECT_TRUE(nl.validate().empty());
    std::uint64_t seed = 7;
    for (int t = 0; t < 200; ++t) {
        const std::uint32_t a = lcg(seed) & 0xFFFF, b = lcg(seed) & 0xFFFF;
        const bool cin = lcg(seed) & 1;
        std::vector<bool> pi(nl.primary_inputs().size());
        for (int i = 0; i < 16; ++i) {
            pi[pi_index(nl, "a" + std::to_string(i))] = (a >> i) & 1;
            pi[pi_index(nl, "b" + std::to_string(i))] = (b >> i) & 1;
        }
        pi[pi_index(nl, "cin")] = cin;
        const auto vals = nl.evaluate(pi, {});
        const std::uint32_t want = a + b + (cin ? 1 : 0);
        for (int i = 0; i < 16; ++i) {
            EXPECT_EQ(vals[po_net(nl, "s" + std::to_string(i))],
                      static_cast<bool>((want >> i) & 1))
                << a << "+" << b << "+" << cin << " bit " << i;
        }
        EXPECT_EQ(vals[po_net(nl, "cout")], static_cast<bool>(want >> 16));
    }
}

TEST(Corpus, Alu8Computes) {
    // The c880-class member: 8-bit ALU with flags. opcode 0 ADD a+b+cin,
    // 1 SUB a-b-cin (borrow style), 2..7 AND/OR/XOR/NOR/NAND/XNOR.
    const Netlist nl = load_corpus("alu8.bench");
    EXPECT_TRUE(nl.validate().empty());
    std::uint64_t seed = 13;
    for (int t = 0; t < 400; ++t) {
        const unsigned a = lcg(seed) & 0xFF, b = lcg(seed) & 0xFF;
        const bool cin = lcg(seed) & 1;
        const unsigned op = lcg(seed) & 7;
        std::vector<bool> pi(nl.primary_inputs().size());
        for (int i = 0; i < 8; ++i) {
            pi[pi_index(nl, "a" + std::to_string(i))] = (a >> i) & 1;
            pi[pi_index(nl, "b" + std::to_string(i))] = (b >> i) & 1;
        }
        pi[pi_index(nl, "cin")] = cin;
        for (int i = 0; i < 3; ++i) {
            pi[pi_index(nl, "op" + std::to_string(i))] = (op >> i) & 1;
        }
        const auto vals = nl.evaluate(pi, {});

        const bool arith = op < 2;
        unsigned want = 0;
        bool cout = false, ovf = false;
        if (arith) {
            // The unit computes a + (b ^ sub) + (cin ^ sub).
            const unsigned bx = op == 1 ? b ^ 0xFF : b;
            const unsigned c0 = (cin ? 1u : 0u) ^ (op == 1 ? 1u : 0u);
            const unsigned sum = a + bx + c0;
            want = sum & 0xFF;
            cout = (sum >> 8) & 1;
            const unsigned c7 = ((a & 0x7F) + (bx & 0x7F) + c0) >> 7;
            ovf = ((c7 ^ (sum >> 8)) & 1) != 0;
        } else {
            switch (op) {
                case 2: want = a & b; break;
                case 3: want = a | b; break;
                case 4: want = a ^ b; break;
                case 5: want = ~(a | b) & 0xFF; break;
                case 6: want = ~(a & b) & 0xFF; break;
                case 7: want = ~(a ^ b) & 0xFF; break;
            }
        }
        for (int i = 0; i < 8; ++i) {
            EXPECT_EQ(vals[po_net(nl, "y" + std::to_string(i))],
                      static_cast<bool>((want >> i) & 1))
                << "op " << op << ": " << a << ", " << b << " bit " << i;
        }
        EXPECT_EQ(vals[po_net(nl, "cout")], cout) << "op " << op;
        EXPECT_EQ(vals[po_net(nl, "ovf")], ovf) << "op " << op;
        EXPECT_EQ(vals[po_net(nl, "zero")], want == 0) << "op " << op;
        EXPECT_EQ(vals[po_net(nl, "parity")],
                  (__builtin_popcount(want) & 1) != 0)
            << "op " << op;
    }
}

TEST(Corpus, Mul8Multiplies) {
    const Netlist nl = load_corpus("mul8.bench");
    EXPECT_TRUE(nl.validate().empty());
    std::uint64_t seed = 11;
    std::vector<std::pair<unsigned, unsigned>> cases = {
        {0, 0}, {0, 255}, {255, 255}, {1, 171}, {128, 2}};
    for (int t = 0; t < 100; ++t) {
        cases.emplace_back(lcg(seed) & 0xFF, lcg(seed) & 0xFF);
    }
    for (const auto& [a, b] : cases) {
        std::vector<bool> pi(nl.primary_inputs().size());
        for (int i = 0; i < 8; ++i) {
            pi[pi_index(nl, "a" + std::to_string(i))] = (a >> i) & 1;
            pi[pi_index(nl, "b" + std::to_string(i))] = (b >> i) & 1;
        }
        const auto vals = nl.evaluate(pi, {});
        const unsigned want = a * b;
        for (int i = 0; i < 16; ++i) {
            EXPECT_EQ(vals[po_net(nl, "m" + std::to_string(i))],
                      static_cast<bool>((want >> i) & 1))
                << a << "*" << b << " bit " << i;
        }
    }
}

TEST(Corpus, Counter8Counts) {
    const Netlist nl = load_corpus("counter8.blif");
    EXPECT_TRUE(nl.validate().empty());
    const auto seq = nl.sequential_instances();
    ASSERT_EQ(seq.size(), 8u);
    // State bit k of the counter = flop named q{k}.
    std::vector<int> bit_of(seq.size(), -1);
    for (std::size_t s = 0; s < seq.size(); ++s) {
        const std::string nm(nl.instance_name(seq[s]));
        ASSERT_EQ(nm.substr(0, 1), "q");
        bit_of[s] = std::stoi(nm.substr(1));
    }
    const auto to_value = [&](const std::vector<bool>& state) {
        unsigned v = 0;
        for (std::size_t s = 0; s < state.size(); ++s) {
            if (state[s]) v |= 1u << bit_of[s];
        }
        return v;
    };
    std::vector<bool> state(8, false);
    std::vector<bool> en = {true};
    unsigned value = 0;
    for (int cycle = 0; cycle < 300; ++cycle) {
        const bool enable = cycle % 7 != 3;  // exercise the hold path too
        state = nl.next_state({enable}, state);
        value = (value + (enable ? 1 : 0)) & 0xFF;
        EXPECT_EQ(to_value(state), value) << "cycle " << cycle;
    }
    // Terminal count: all-ones and counting.
    state.assign(8, true);
    const auto vals = nl.evaluate({true}, state);
    EXPECT_TRUE(vals[po_net(nl, "tc")]);
    EXPECT_FALSE(nl.evaluate({false}, state)[po_net(nl, "tc")]);
}

TEST(Corpus, Par32Parity) {
    const Netlist nl = load_corpus("par32.aag");
    EXPECT_TRUE(nl.validate().empty());
    EXPECT_EQ(nl.primary_inputs().size(), 32u);
    std::uint64_t seed = 13;
    for (int t = 0; t < 100; ++t) {
        const std::uint32_t x = static_cast<std::uint32_t>(lcg(seed));
        std::vector<bool> pi(32);
        bool want = false;
        for (int i = 0; i < 32; ++i) {
            const bool bit = (x >> i) & 1;
            pi[pi_index(nl, "x" + std::to_string(i))] = bit;
            want ^= bit;
        }
        EXPECT_EQ(nl.evaluate(pi, {})[po_net(nl, "parity")], want) << x;
    }
}

TEST(Corpus, Mul6BinaryAigerMultiplies) {
    const Netlist nl = load_corpus("mul6.aig");
    EXPECT_TRUE(nl.validate().empty());
    for (unsigned a = 0; a < 64; a += 7) {
        for (unsigned b = 0; b < 64; b += 5) {
            std::vector<bool> pi(nl.primary_inputs().size());
            for (int i = 0; i < 6; ++i) {
                pi[pi_index(nl, "a" + std::to_string(i))] = (a >> i) & 1;
                pi[pi_index(nl, "b" + std::to_string(i))] = (b >> i) & 1;
            }
            const auto vals = nl.evaluate(pi, {});
            const unsigned want = a * b;
            for (int i = 0; i < 12; ++i) {
                EXPECT_EQ(vals[po_net(nl, "m" + std::to_string(i))],
                          static_cast<bool>((want >> i) & 1))
                    << a << "*" << b << " bit " << i;
            }
        }
    }
}

// ------------------------------------------------------- AIGER readers --

TEST(Aiger, BinaryAndAsciiTwinsLoadTheSameNetlist) {
    // generate_corpus.py writes mul6.aig and mul6.aag from one AIG, so the
    // binary and the ASCII reader must build the same design from them.
    const AigerDesign bin = read_aiger_file(corpus_dir() + "/mul6.aig");
    const AigerDesign asc = read_aiger_file(corpus_dir() + "/mul6.aag");
    EXPECT_EQ(bin.num_inputs, 12u);
    EXPECT_EQ(bin.file_ands, asc.file_ands);
    EXPECT_EQ(bin.aig.num_ands(), asc.aig.num_ands());
    EXPECT_EQ(netlist_to_string(load_corpus("mul6.aig")),
              netlist_to_string(load_corpus("mul6.aag")));
}

TEST(Aiger, LatchesStitchIntoDffsCycleByCycle) {
    // One input `en` and three latches: t toggles (its next-state is the
    // complemented literal 5), f powers up 1 and loads !(f | (t & en)), d
    // delays en by one cycle. Output q reads latch f directly; y is
    // !(d & !f). No corpus AIGER file has latches, so this is the test of
    // netlist_from_aiger's DFF stitching.
    std::istringstream text(
        "aag 7 1 3 2 3\n"
        "2\n"
        "4 5\n"
        "6 12 1\n"
        "8 2\n"
        "6\n"
        "15\n"
        "10 4 2\n"
        "12 7 11\n"
        "14 8 7\n"
        "i0 en\nl0 t\nl1 f\nl2 d\no0 q\no1 y\n");
    const AigerDesign d = read_aiger(text, "seq3");
    ASSERT_EQ(d.latches.size(), 3u);
    const Netlist nl = netlist_from_aiger(d, lib28());
    EXPECT_TRUE(nl.validate().empty());
    const std::vector<InstId> flops = nl.sequential_instances();
    ASSERT_EQ(flops.size(), 3u);
    EXPECT_EQ(nl.instance_name(flops[0]), "t");
    EXPECT_EQ(nl.instance_name(flops[1]), "f");
    EXPECT_EQ(nl.instance_name(flops[2]), "d");

    // Hand-computed trace; the state is (t, f, d).
    struct Cycle {
        bool en, q, y;
        std::vector<bool> next;
    };
    const Cycle cycles[] = {
        {1, 1, 1, {1, 0, 1}}, {1, 0, 0, {0, 0, 1}}, {0, 0, 0, {1, 1, 0}},
        {1, 1, 1, {0, 0, 1}}, {1, 0, 0, {1, 1, 1}}, {0, 1, 1, {0, 0, 0}},
        {0, 0, 1, {1, 1, 0}}, {1, 1, 1, {0, 0, 1}}, {1, 0, 0, {1, 1, 1}},
        {1, 1, 1, {0, 0, 1}},
    };
    // The netlist keeps no reset state: the simulation starts from the
    // latches' power-up values, (0, 1, 0).
    std::vector<bool> state;
    for (const AigerLatch& l : d.latches) state.push_back(l.reset == 1);
    ASSERT_EQ(state, (std::vector<bool>{0, 1, 0}));
    for (std::size_t c = 0; c < std::size(cycles); ++c) {
        SCOPED_TRACE("cycle " + std::to_string(c));
        const std::vector<bool> pi = {cycles[c].en};
        const std::vector<bool> v = nl.evaluate(pi, state);
        EXPECT_EQ(v[po_net(nl, "q")], cycles[c].q);
        EXPECT_EQ(v[po_net(nl, "y")], cycles[c].y);
        state = nl.next_state(pi, state);
        EXPECT_EQ(state, cycles[c].next);
    }
}

// ------------------------------------------- netlist I/O round-trip fix --

TEST(NetlistIo, NoPlaceholderNetAfterParse) {
    // The reader used to leave a `_placeholder` helper net (id 0) in every
    // parsed netlist, so parse(write(nl)) gained a net each generation.
    const Netlist nl = generate_adder(lib28(), 8);
    const std::string text = netlist_to_string(nl);
    const Netlist back = netlist_from_string(text, lib28());
    EXPECT_EQ(back.num_nets(), nl.num_nets());
    for (NetId n = 0; n < back.num_nets(); ++n) {
        EXPECT_NE(back.net_name(n), "_placeholder");
    }
    EXPECT_TRUE(back.validate().empty());
}

/// `text` with its `inst` lines in reverse order, so every fanin driven
/// by an earlier instance becomes a forward reference.
std::string reverse_inst_lines(const std::string& text) {
    std::istringstream in(text);
    std::string head, tail, line;
    std::vector<std::string> insts;
    while (std::getline(in, line)) {
        if (line.rfind("inst ", 0) == 0) {
            insts.push_back(line);
        } else {
            (insts.empty() ? head : tail) += line + "\n";
        }
    }
    for (auto it = insts.rbegin(); it != insts.rend(); ++it) head += *it + "\n";
    return head + tail;
}

/// Every instance of `got` has a same-named instance in `want` with the
/// same cell and the same named fanin nets; ports match by name too.
void expect_same_named_connectivity(const Netlist& want, const Netlist& got) {
    ASSERT_EQ(got.num_instances(), want.num_instances()) << want.name();
    ASSERT_EQ(got.num_nets(), want.num_nets()) << want.name();
    std::unordered_map<std::string_view, InstId> by_name;
    for (InstId i = 0; i < want.num_instances(); ++i) by_name[want.instance_name(i)] = i;
    for (InstId i = 0; i < got.num_instances(); ++i) {
        const auto it = by_name.find(got.instance_name(i));
        ASSERT_NE(it, by_name.end()) << got.instance_name(i);
        const Instance& a = want.instance(it->second);
        const Instance& b = got.instance(i);
        EXPECT_EQ(b.type, a.type) << got.instance_name(i);
        for (int p = 0; p < function_arity(got.type_of(i).function); ++p) {
            const auto pin = static_cast<std::size_t>(p);
            EXPECT_EQ(got.net_name(b.fanin[pin]), want.net_name(a.fanin[pin]))
                << got.instance_name(i) << " pin " << p;
        }
    }
    ASSERT_EQ(got.primary_inputs().size(), want.primary_inputs().size());
    for (std::size_t k = 0; k < got.primary_inputs().size(); ++k) {
        EXPECT_EQ(got.net_name(got.primary_inputs()[k]),
                  want.net_name(want.primary_inputs()[k]));
    }
    ASSERT_EQ(got.primary_outputs().size(), want.primary_outputs().size());
    for (std::size_t k = 0; k < got.primary_outputs().size(); ++k) {
        EXPECT_EQ(got.primary_outputs()[k].first, want.primary_outputs()[k].first);
        EXPECT_EQ(got.net_name(got.primary_outputs()[k].second),
                  want.net_name(want.primary_outputs()[k].second));
    }
}

TEST(NetlistIo, WriteReadByteIdenticalAcrossDesignsAndSeeds) {
    for (const std::uint64_t seed : {3ull, 17ull}) {
        GeneratorConfig cfg;
        cfg.num_gates = 150;
        cfg.num_flops = 4;
        cfg.xor_fraction = 0.2;
        cfg.seed = seed;
        const std::vector<Netlist> designs = {
            generate_random(lib28(), cfg), generate_adder(lib28(), 12),
            generate_parity(lib28(), 31), generate_counter(lib28(), 9),
            generate_mesh(lib28(), 2000, seed, 2)};
        for (const Netlist& nl : designs) {
            const std::string text = netlist_to_string(nl);
            const Netlist back = netlist_from_string(text, lib28());
            EXPECT_EQ(back.num_nets(), nl.num_nets()) << nl.name();
            EXPECT_EQ(back.num_instances(), nl.num_instances()) << nl.name();
            EXPECT_EQ(netlist_to_string(back), text) << nl.name();
            // Reversed, the ids change but every pin keeps its driver.
            expect_same_named_connectivity(
                nl, netlist_from_string(reverse_inst_lines(text), lib28()));
        }
    }
}

/// Message of the std::runtime_error `parse` throws, or "" when it parses.
template <typename Parse>
std::string parse_error(Parse&& parse) {
    try {
        parse();
    } catch (const std::runtime_error& e) {
        return e.what();
    }
    return "";
}

TEST(NetlistIo, EveryErrorPathKeepsItsMessageAndLine) {
    const struct {
        const char* text;
        const char* message;
    } cases[] = {
        {"", "read_netlist: missing 'design' line"},
        {"# no design\ninput a na\n", "read_netlist: missing 'design' line"},
        {"# header\ndesign   \n", "read_netlist: line 2: missing design name"},
        {"design t\nwire w na\n", "read_netlist: line 2: unknown keyword: wire"},
        {"design t\ninput a\n",
         "read_netlist: line 2: input needs <name> <net> — the one-token 'input a' "
         "form is not part of the grammar (io.hpp)"},
        {"design t\n\ninput # bare\n", "read_netlist: line 3: input needs <name> <net>"},
        {"design t\ninput a na\ninput b na\n", "read_netlist: line 3: net redefined: na"},
        {"design t\ninput a na\ninst g INV_X1 na na\n",
         "read_netlist: line 3: net redefined: na"},
        {"design t\ninput a na\ninput a nb\n",
         "read_netlist: line 3: primary input redefined: a"},
        {"design t\ninput a na\ninst g BOGUS_X9 ny na\n",
         "read_netlist: line 3: unknown cell: BOGUS_X9"},
        {"design t\ninput a na\ninst g NAND2_X1 ny na\n",
         "read_netlist: line 3: cell NAND2_X1 expects 2 inputs"},
        {"design t\ninput a na\ninst g INV_X1 ny na na\n",
         "read_netlist: line 3: cell INV_X1 expects 1 inputs"},
        {"design t\ninst g INV_X1\n", "read_netlist: line 2: inst needs <name> <cell> <out>"},
        {"design t\ninput a na\noutput y\n", "read_netlist: line 3: output needs <name> <net>"},
        {"design t\ninput a na\noutput y nz\n",
         "read_netlist: line 3: output references undefined net: nz"},
        // Undefined fanins surface after the last line, naming the first
        // instance (in file order) that reads one.
        {"design t\ninput a na\ninst g1 INV_X1 n1 nq\ninst g2 NAND2_X1 n2 n1 nz\n"
         "inst g3 INV_X1 n3 ny\nwire\n",
         "read_netlist: line 6: unknown keyword: wire"},
        {"design t\ninput a na\ninst g1 INV_X1 n1 na\ninst g2 NAND2_X1 n2 n1 nz\n"
         "inst g3 INV_X1 n3 ny\ninst g4 INV_X1 nz n3\n",
         "read_netlist: instance g3 references undefined net ny"},
        {"design t\r\ninput a na\r\ninst g INV_X1 ny nb\r\n",
         "read_netlist: instance g references undefined net nb"},
    };
    for (const auto& c : cases) {
        const std::string text = c.text;
        EXPECT_EQ(parse_error([&] { netlist_from_string(text, lib28()); }), c.message)
            << text;
        std::istringstream in(text);
        EXPECT_EQ(parse_error([&] { read_netlist(in, lib28()); }), c.message) << text;
    }
}

TEST(NetlistIo, AcceptedSpellingsParseLikeTheCleanText) {
    // q reads nd before g defines it: a forward reference (flop feedback).
    const std::string clean =
        "design fwd\n"
        "input a na\n"
        "input b nb\n"
        "inst q DFF_X1 nq nd\n"
        "inst g NAND2_X1 nd na nq\n"
        "inst h XOR2_X1 ny nq nb\n"
        "output y ny\n"
        "output d nd\n";
    const std::string want = netlist_to_string(netlist_from_string(clean, lib28()));
    const auto replace_all = [&](std::string from, std::string to) {
        std::string s = clean;
        for (std::size_t at = s.find(from); at != std::string::npos;
             at = s.find(from, at + to.size())) {
            s.replace(at, from.size(), to);
        }
        return s;
    };
    std::string no_final_newline = clean;
    no_final_newline.pop_back();
    const std::string variants[] = {
        replace_all("\n", "\r\n"),
        replace_all(" ", "\t"),
        replace_all(" ", " \v\f "),
        replace_all("\n", "  # trailing comment\n"),
        replace_all("\n", "\n\n# comment line\n   \n"),
        replace_all(" nb\n", " nb#not-part-of-the-token\n"),
        no_final_newline,
        // A second design line starts over, forward references included.
        "design discarded\ninput z nz\ninst w INV_X1 nw nlater\noutput o nz\n" + clean,
    };
    for (const std::string& text : variants) {
        EXPECT_EQ(netlist_to_string(netlist_from_string(text, lib28())), want) << text;
        std::istringstream in(text);
        EXPECT_EQ(netlist_to_string(read_netlist(in, lib28())), want) << text;
    }
}

TEST(NetlistIo, PlacementRoundTrip) {
    Netlist nl = generate_adder(lib28(), 6);
    for (InstId i = 0; i < nl.num_instances(); ++i) {
        nl.instance(i).position = {static_cast<std::int64_t>(100 * i),
                                   static_cast<std::int64_t>(50 * i + 7)};
        nl.instance(i).placed = true;
    }
    std::ostringstream jpl;
    write_placement(jpl, nl);

    Netlist back = netlist_from_string(netlist_to_string(nl), lib28());
    std::istringstream in(jpl.str());
    EXPECT_EQ(read_placement(in, back), nl.num_instances());
    std::ostringstream jpl2;
    write_placement(jpl2, back);
    EXPECT_EQ(jpl2.str(), jpl.str());
}

TEST(NetlistIo, OneTokenInputRejectedWithClearError) {
    // Grammar is `input <name> <net>`; the one-token form used to be
    // accepted silently against the documented grammar.
    const std::string bad = "design d\ninput a\noutput o a\n";
    try {
        netlist_from_string(bad, lib28());
        FAIL() << "one-token input line must be rejected";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("input needs <name> <net>"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Netlist, CombinationalLoopErrorNamesAnInstance) {
    Netlist nl(lib28(), "loopy");
    const NetId a = nl.add_primary_input("a");
    const auto nand2 = *lib28()->find_function(CellFunction::Nand2);
    const InstId g1 = nl.add_instance("ouro", nand2, {a, kNoNet});
    const InstId g2 = nl.add_instance("boros", nand2, {a, kNoNet});
    nl.connect_input(g1, 1, nl.instance(g2).output);
    nl.connect_input(g2, 1, nl.instance(g1).output);
    try {
        nl.topological_order();
        FAIL() << "loop must throw";
    } catch (const std::runtime_error& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("combinational loop"), std::string::npos) << msg;
        // At least one instance on the cycle is named.
        EXPECT_TRUE(msg.find("ouro") != std::string::npos ||
                    msg.find("boros") != std::string::npos)
            << msg;
    }
}

// ------------------------------------------------------ malformed input --

TEST(Aiger, TruncatedBinaryIsDiagnosed) {
    std::ifstream in(corpus_dir() + "/mul6.aig", std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string whole = buf.str();
    ASSERT_GT(whole.size(), 120u);
    // Cut inside the delta-coded and section (well past the header).
    const std::string cut = whole.substr(0, 120);
    std::istringstream trunc(cut);
    try {
        read_aiger(trunc, "trunc");
        FAIL() << "truncated binary AIGER must be rejected";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
            << e.what();
    }
}

TEST(Aiger, MalformedHeadersRejected) {
    for (const char* bad : {
             "aog 1 1 0 0 0\n2\n",         // bad magic
             "aag 1 1 0 0\n",              // four counts
             "aag 1 2 0 0 0\n2\n4\n",      // I+L+A > M
             "aag 1 1 0 0 0 extra\n2\n",   // trailing junk
             "aag 1 1 0 0 0\n3\n",         // odd (complemented) input literal
             "aag 2 1 0 0 1\n2\n5 2 2\n",  // odd and-gate lhs
         }) {
        std::istringstream in(bad);
        EXPECT_THROW(read_aiger(in, "bad"), std::runtime_error) << bad;
    }
}

TEST(Blif, DuplicateModelRejected) {
    const std::string bad =
        ".model a\n.inputs x\n.outputs y\n.names x y\n1 1\n.end\n"
        ".model b\n.end\n";
    try {
        blif_from_string(bad, lib28());
        FAIL() << "second .model must be rejected";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("duplicate .model"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Blif, LatchWithoutInitRejected) {
    const std::string bad =
        ".model a\n.inputs x\n.outputs q\n.latch x q\n.end\n";
    try {
        blif_from_string(bad, lib28());
        FAIL() << "latch without init must be rejected";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("missing init"), std::string::npos)
            << e.what();
    }
}

TEST(Blif, MixedCoverPolarityRejected) {
    const std::string bad =
        ".model a\n.inputs x y\n.outputs z\n.names x y z\n11 1\n00 0\n.end\n";
    EXPECT_THROW(blif_from_string(bad, lib28()), std::runtime_error);
}

TEST(Blif, HierarchyRejectedClearly) {
    const std::string bad = ".model a\n.subckt full_adder a=x\n.end\n";
    try {
        blif_from_string(bad, lib28());
        FAIL();
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find(".subckt"), std::string::npos);
    }
}

TEST(Blif, ContinuationsAndCommentsParse) {
    const std::string text =
        "# two-gate model\n"
        ".model cont\n"
        ".inputs a b \\\n  c\n"
        ".outputs z\n"
        ".names a b c z  # and3\n"
        "111 1\n"
        ".end\n";
    const Netlist nl = blif_from_string(text, lib28());
    EXPECT_EQ(nl.primary_inputs().size(), 3u);
    std::vector<bool> pi = {true, true, true};
    EXPECT_TRUE(nl.evaluate(pi, {})[po_net(nl, "z")]);
    pi[1] = false;
    EXPECT_FALSE(nl.evaluate(pi, {})[po_net(nl, "z")]);
}

TEST(Iscas, UndefinedSignalAndCycleDiagnosed) {
    const std::string undef =
        "INPUT(a)\nOUTPUT(z)\nz = AND(a, ghost)\n";
    try {
        iscas_from_string(undef, lib28());
        FAIL();
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("ghost"), std::string::npos)
            << e.what();
    }
    const std::string cyc =
        "INPUT(a)\nOUTPUT(z)\nu = AND(a, v)\nv = AND(a, u)\nz = BUF(u)\n";
    try {
        iscas_from_string(cyc, lib28());
        FAIL();
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("cycle"), std::string::npos)
            << e.what();
    }
}

TEST(Iscas, SequentialBenchWithDff) {
    const std::string text =
        "INPUT(d)\nOUTPUT(q2)\nq1 = DFF(d)\nq2 = DFF(q1)\n";
    const Netlist nl = iscas_from_string(text, lib28());
    EXPECT_TRUE(nl.validate().empty());
    EXPECT_EQ(nl.sequential_instances().size(), 2u);
    // Two-cycle delay line.
    auto st = nl.next_state({true}, {false, false});
    st = nl.next_state({false}, st);
    EXPECT_TRUE(nl.evaluate({false}, st)[po_net(nl, "q2")]);
}

// --------------------------------------------------------- scenario glue --

TEST(Scenario, KeysAndMatrixExpansionAreStable) {
    scenario::ScenarioMatrix m;
    m.designs = {"a.bench", "b.blif"};
    m.corners = {"tt_nom"};
    m.utilizations = {0.55, 0.70};
    m.layer_budgets = {5};
    const auto cells = m.expand();
    ASSERT_EQ(cells.size(), 4u);
    EXPECT_EQ(cells[0].key(), "a.bench@tt_nom/u0.55/L5");
    EXPECT_EQ(cells[3].key(), "b.blif@tt_nom/u0.70/L5");
}

TEST(Scenario, DiffFlagsDriftAndMissingBaselines) {
    scenario::ScenarioResult r;
    r.cell = {"x.bench", "tt_nom", 0.65, 6};
    r.flow.instances = 10;
    r.flow.area_um2 = 100.0;
    r.flow.legal = true;

    server::JsonValue base = server::JsonValue::object();
    base.set(r.cell.key(), scenario::result_json(r));

    scenario::Tolerances tol;
    EXPECT_TRUE(scenario::diff_against_baseline({r}, base, tol).empty());

    scenario::ScenarioResult drift = r;
    drift.flow.instances = 11;  // discrete drift: exact pin
    EXPECT_FALSE(scenario::diff_against_baseline({drift}, base, tol).empty());

    scenario::ScenarioResult analog = r;
    analog.flow.area_um2 = 104.0;  // within 5%
    EXPECT_TRUE(scenario::diff_against_baseline({analog}, base, tol).empty());
    analog.flow.area_um2 = 120.0;  // outside 5%
    EXPECT_FALSE(scenario::diff_against_baseline({analog}, base, tol).empty());

    scenario::ScenarioResult unknown = r;
    unknown.cell.design = "y.bench";
    const auto missing = scenario::diff_against_baseline({unknown}, base, tol);
    ASSERT_EQ(missing.size(), 1u);
    EXPECT_NE(missing[0].find("no pinned baseline"), std::string::npos);
}

std::string read_text(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

// save_baseline renders through JsonValue::dump_lines, so the committed
// file must survive load -> render byte for byte.
TEST(Scenario, CommittedBaselinesAreARendererFixpoint) {
    const std::string path = corpus_dir() + "/scenario_baselines.json";
    EXPECT_EQ(scenario::load_baseline(path).dump_lines(), read_text(path));
}

TEST(Scenario, BenchLedgersAtRepoRootParse) {
    namespace fs = std::filesystem;
    std::size_t ledgers = 0;
    for (const auto& f : fs::directory_iterator(scenario::find_repo_root())) {
        const std::string name = f.path().filename().string();
        if (name.rfind("BENCH_", 0) != 0 || f.path().extension() != ".json") {
            continue;
        }
        ++ledgers;
        EXPECT_TRUE(server::parse_json(read_text(f.path().string())).is_object())
            << name;
    }
    EXPECT_GE(ledgers, 4u);  // the committed ledgers at least
}

}  // namespace
}  // namespace janus
