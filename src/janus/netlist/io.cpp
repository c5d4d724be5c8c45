#include "janus/netlist/io.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <unordered_set>
#include <vector>

namespace janus {

void write_netlist(std::ostream& os, const Netlist& nl) {
    os << "design " << nl.name() << "\n";
    for (NetId pi : nl.primary_inputs()) {
        os << "input " << nl.net_name(pi) << " n" << pi << "\n";
    }
    for (InstId i = 0; i < nl.num_instances(); ++i) {
        const Instance& inst = nl.instance(i);
        const CellType& ct = nl.type_of(i);
        os << "inst " << nl.instance_name(i) << " " << ct.name << " n" << inst.output;
        const int arity = function_arity(ct.function);
        for (int p = 0; p < arity; ++p) {
            os << " n" << inst.fanin[static_cast<std::size_t>(p)];
        }
        os << "\n";
    }
    for (const auto& [name, net] : nl.primary_outputs()) {
        os << "output " << name << " n" << net << "\n";
    }
}

std::string netlist_to_string(const Netlist& nl) {
    std::ostringstream ss;
    write_netlist(ss, nl);
    return ss.str();
}

void write_placement(std::ostream& os, const Netlist& nl) {
    for (InstId i = 0; i < nl.num_instances(); ++i) {
        const Instance& inst = nl.instance(i);
        if (!inst.placed) continue;
        os << "place " << nl.instance_name(i) << " " << inst.position.x << " "
           << inst.position.y << "\n";
    }
}

std::size_t read_placement(std::istream& is, Netlist& nl) {
    // Name -> id index (placements are name-keyed to survive reordering).
    std::map<std::string, InstId> by_name;
    for (InstId i = 0; i < nl.num_instances(); ++i) {
        by_name[std::string(nl.instance_name(i))] = i;
    }
    std::string line;
    std::size_t placed = 0;
    std::size_t line_no = 0;
    while (std::getline(is, line)) {
        ++line_no;
        std::istringstream ls(line);
        std::string kw, name;
        std::int64_t x = 0, y = 0;
        if (!(ls >> kw)) continue;
        if (kw != "place" || !(ls >> name >> x >> y)) {
            throw std::runtime_error("read_placement: malformed line " +
                                     std::to_string(line_no));
        }
        const auto it = by_name.find(name);
        if (it == by_name.end()) {
            throw std::runtime_error("read_placement: unknown instance " + name);
        }
        Instance& inst = nl.instance(it->second);
        inst.position = {x, y};
        inst.placed = true;
        ++placed;
    }
    return placed;
}

namespace {

/// The six characters operator>> skips as space in the "C" locale.
bool is_space(char c) {
    constexpr std::uint64_t kSpaces = (1ull << ' ') | (1ull << '\t') | (1ull << '\n') |
                                      (1ull << '\v') | (1ull << '\f') | (1ull << '\r');
    const auto u = static_cast<unsigned char>(c);
    return u <= ' ' && ((kSpaces >> u) & 1u);
}

/// Cuts the next whitespace-separated token off the front of `rest`; an
/// empty view when none is left.
std::string_view next_token(std::string_view& rest) {
    std::size_t b = 0;
    while (b < rest.size() && is_space(rest[b])) ++b;
    std::size_t e = b;
    while (e < rest.size() && !is_space(rest[e])) ++e;
    const std::string_view tok = rest.substr(b, e - b);
    rest.remove_prefix(e);
    return tok;
}

/// Net tokens of the design being read, mapped to their NetIds. NameTable's
/// layout over views into the text: open addressing over (hash tag, NetId)
/// slots, the token itself read back through `token_`. Nets are inserted
/// as the reader creates them, in NetId order, so `token_` is indexed by
/// NetId.
class NetIndex {
  public:
    explicit NetIndex(std::size_t expected_nets)
        : slots_(std::bit_ceil(2 * expected_nets + 2)) {}

    /// The net `token` names, or kNoNet.
    NetId find(std::string_view token) const {
        return slots_[probe(token, hash_name(token))].net;
    }

    /// Names net `net` (the next NetId) `token`; false when `token`
    /// already names a net.
    bool insert(std::string_view token, NetId net) {
        assert(net == token_.size() && "nets are indexed in creation order");
        if (2 * (token_.size() + 1) > slots_.size()) rehash(2 * slots_.size());
        const std::uint64_t h = hash_name(token);
        Slot& slot = slots_[probe(token, h)];
        if (slot.net != kNoNet) return false;
        slot = {static_cast<std::uint32_t>(h >> 32), net};
        token_.push_back(token);
        return true;
    }

    /// Forgets every token (a new `design` line). Costs the entries of the
    /// design being dropped, not the table size, so repeated design lines
    /// stay linear.
    void clear() {
        if (!token_.empty()) *this = NetIndex(token_.size());
    }

  private:
    struct Slot {
        std::uint32_t tag = 0;  ///< high half of the token's hash
        NetId net = kNoNet;
    };

    /// The slot holding `token`, else the empty slot that ends its probe.
    std::size_t probe(std::string_view token, std::uint64_t h) const {
        const std::size_t mask = slots_.size() - 1;
        const auto tag = static_cast<std::uint32_t>(h >> 32);
        std::size_t i = h & mask;
        while (slots_[i].net != kNoNet &&
               (slots_[i].tag != tag || token_[slots_[i].net] != token)) {
            i = (i + 1) & mask;
        }
        return i;
    }

    void rehash(std::size_t num_slots) {
        slots_.assign(num_slots, Slot{});
        for (NetId n = 0; n < token_.size(); ++n) {
            const std::uint64_t h = hash_name(token_[n]);
            slots_[probe(token_[n], h)] = {static_cast<std::uint32_t>(h >> 32), n};
        }
    }

    std::vector<Slot> slots_;
    std::vector<std::string_view> token_;
};

/// A fanin whose driving net is defined later in the text (flop feedback,
/// out-of-order files); wired once the whole text is read.
struct ForwardRef {
    InstId inst;
    int pin;
    std::string_view net;
};

[[noreturn]] void fail(std::size_t line_no, const std::string& why) {
    throw std::runtime_error("read_netlist: line " + std::to_string(line_no) + ": " +
                             why);
}

/// One pass over the whole text. Tokens are views into `text`, which must
/// outlive the parse (not the returned netlist).
Netlist parse_netlist(std::string_view text, const std::shared_ptr<const CellLibrary>& lib) {
    Netlist nl(lib, "top");
    // A net-defining line is at least `input a b` and its newline, so the
    // size bounds the net count as well as the line count does.
    const auto lines = static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n'));
    NetIndex nets(std::min(lines + 1, text.size() / 10 + 1));
    std::unordered_set<std::string_view> pi_names;
    std::vector<ForwardRef> forward;
    std::vector<NetId> fanins;
    bool got_design = false;
    std::size_t line_no = 0;
    for (std::size_t pos = 0; pos < text.size();) {
        const std::size_t eol = std::min(text.find('\n', pos), text.size());
        const std::string_view line = text.substr(pos, eol - pos);
        pos = eol + 1;
        ++line_no;
        std::string_view rest = line.substr(0, line.find('#'));
        const std::string_view kw = next_token(rest);
        if (kw.empty()) continue;
        if (kw == "design") {
            const std::string_view name = next_token(rest);
            if (name.empty()) fail(line_no, "missing design name");
            nl = Netlist(lib, std::string(name));
            nets.clear();
            pi_names = {};
            forward.clear();
            got_design = true;
        } else if (kw == "input") {
            const std::string_view name = next_token(rest);
            if (name.empty()) fail(line_no, "input needs <name> <net>");
            const std::string_view net = next_token(rest);
            if (net.empty()) {
                fail(line_no, "input needs <name> <net> — the one-token 'input " +
                                  std::string(name) +
                                  "' form is not part of the grammar (io.hpp)");
            }
            if (nets.find(net) != kNoNet) fail(line_no, "net redefined: " + std::string(net));
            if (!pi_names.insert(name).second) {
                fail(line_no, "primary input redefined: " + std::string(name));
            }
            nets.insert(net, nl.add_primary_input(name));
        } else if (kw == "inst") {
            const std::string_view name = next_token(rest);
            const std::string_view cell = next_token(rest);
            const std::string_view out = next_token(rest);
            if (out.empty()) fail(line_no, "inst needs <name> <cell> <out>");
            const auto type = lib->find(cell);
            if (!type) fail(line_no, "unknown cell: " + std::string(cell));
            const int arity = function_arity(lib->cell(*type).function);
            std::array<std::string_view, kMaxFanin> in;
            std::size_t num_in = 0;
            for (std::string_view t = next_token(rest); !t.empty(); t = next_token(rest)) {
                if (num_in < in.size()) in[num_in] = t;
                ++num_in;
            }
            if (num_in != static_cast<std::size_t>(arity)) {
                fail(line_no, "cell " + std::string(cell) + " expects " +
                                  std::to_string(arity) + " inputs");
            }
            // A driver defined above connects now; a later one is wired
            // after the last line, through kNoNet pins (no helper nets).
            fanins.resize(num_in);
            for (std::size_t p = 0; p < num_in; ++p) fanins[p] = nets.find(in[p]);
            const InstId id = nl.add_instance(name, *type, fanins);
            for (std::size_t p = 0; p < num_in; ++p) {
                if (fanins[p] == kNoNet) forward.push_back({id, static_cast<int>(p), in[p]});
            }
            if (!nets.insert(out, nl.instance(id).output)) {
                fail(line_no, "net redefined: " + std::string(out));
            }
        } else if (kw == "output") {
            const std::string_view name = next_token(rest);
            const std::string_view net = next_token(rest);
            if (net.empty()) fail(line_no, "output needs <name> <net>");
            const NetId id = nets.find(net);
            // Outputs must follow their driver: deferring them would need a
            // placeholder net the driver later claims.
            if (id == kNoNet) fail(line_no, "output references undefined net: " + std::string(net));
            nl.add_primary_output(name, id);
        } else {
            fail(line_no, "unknown keyword: " + std::string(kw));
        }
    }
    if (!got_design) throw std::runtime_error("read_netlist: missing 'design' line");

    // Forward references sit in (instance, pin) order, so the first
    // undefined one is the pin a whole-file scan would report.
    for (const ForwardRef& f : forward) {
        const NetId id = nets.find(f.net);
        if (id == kNoNet) {
            throw std::runtime_error("read_netlist: instance " +
                                     std::string(nl.instance_name(f.inst)) +
                                     " references undefined net " + std::string(f.net));
        }
        nl.connect_input(f.inst, f.pin, id);
    }
    return nl;
}

}  // namespace

Netlist read_netlist(std::istream& is, std::shared_ptr<const CellLibrary> lib) {
    std::ostringstream text;
    if (is) text << is.rdbuf();
    return parse_netlist(text.view(), lib);
}

Netlist netlist_from_string(const std::string& text,
                            std::shared_ptr<const CellLibrary> lib) {
    return parse_netlist(text, lib);
}

}  // namespace janus
