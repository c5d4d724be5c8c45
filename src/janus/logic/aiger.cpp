#include "janus/logic/aiger.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace janus {
namespace {

constexpr AigLit kUndef = 0xFFFFFFFFu;

/// Header counts cap: a hostile M would otherwise size the literal map.
constexpr std::uint64_t kMaxVars = 1u << 28;

[[noreturn]] void fail(const std::string& why) {
    throw std::runtime_error("read_aiger: " + why);
}

std::string chomp(std::string line) {
    while (!line.empty() && (line.back() == '\r' || line.back() == '\n')) {
        line.pop_back();
    }
    return line;
}

std::vector<std::uint64_t> parse_numbers(const std::string& line,
                                         const std::string& what,
                                         std::size_t min_count,
                                         std::size_t max_count) {
    std::istringstream ls(line);
    std::vector<std::uint64_t> out;
    std::uint64_t v = 0;
    while (ls >> v) out.push_back(v);
    std::string rest;
    if (ls.clear(), ls >> rest) fail(what + ": trailing token '" + rest + "'");
    if (out.size() < min_count || out.size() > max_count) {
        fail(what + ": expected " + std::to_string(min_count) +
             (max_count != min_count ? ".." + std::to_string(max_count) : "") +
             " numbers, got " + std::to_string(out.size()));
    }
    return out;
}

/// One LEB128-style delta (7 data bits per byte, MSB = continue).
std::uint32_t decode_delta(std::istream& is, std::size_t gate) {
    std::uint32_t x = 0;
    int shift = 0;
    while (true) {
        const int c = is.get();
        if (c == std::istream::traits_type::eof()) {
            fail("truncated binary AIGER (EOF inside the delta code of and gate " +
                 std::to_string(gate) + ")");
        }
        if (shift > 28 || (shift == 28 && (c & 0x7f) > 0x0f)) {
            fail("overlong delta code");
        }
        x |= static_cast<std::uint32_t>(c & 0x7f) << shift;
        if (!(c & 0x80)) return x;
        shift += 7;
    }
}

struct Header {
    bool binary = false;
    std::uint64_t m = 0, i = 0, l = 0, o = 0, a = 0;
};

Header read_header(std::istream& is) {
    std::string line;
    if (!std::getline(is, line)) fail("empty input");
    line = chomp(line);
    std::istringstream ls(line);
    std::string magic;
    ls >> magic;
    Header h;
    if (magic == "aig") {
        h.binary = true;
    } else if (magic != "aag") {
        fail("bad magic '" + magic + "' (expected aag or aig)");
    }
    std::string rest;
    std::getline(ls, rest);
    // Extended headers (B C J F) are accepted when the extra counts are 0.
    const auto nums = parse_numbers(rest, "header", 5, 9);
    h.m = nums[0];
    h.i = nums[1];
    h.l = nums[2];
    h.o = nums[3];
    h.a = nums[4];
    for (std::size_t k = 5; k < nums.size(); ++k) {
        if (nums[k] != 0) fail("bad/constraint/justice/fairness sections unsupported");
    }
    if (h.m > kMaxVars) fail("header M too large");
    if (h.i + h.l + h.a > h.m) fail("header: I + L + A exceeds M");
    return h;
}

/// Shared post-node state: literal resolution plus symbol/comment tail.
struct ReaderState {
    AigerDesign design;
    std::vector<AigLit> var2lit;  ///< aiger variable -> Aig literal

    AigLit resolve(std::uint64_t file_lit, const char* what) const {
        const std::uint64_t var = file_lit >> 1;
        if (var >= var2lit.size()) {
            fail(std::string(what) + ": literal " + std::to_string(file_lit) +
                 " exceeds header M");
        }
        const AigLit base = var2lit[var];
        if (base == kUndef) {
            fail(std::string(what) + ": literal " + std::to_string(file_lit) +
                 " references an undefined variable (non-topological input?)");
        }
        return (file_lit & 1) ? aig_not(base) : base;
    }
};

void read_symbols_and_comments(std::istream& is, ReaderState& st,
                               std::size_t num_outputs) {
    std::string line;
    bool in_comment = false;
    while (std::getline(is, line)) {
        line = chomp(line);
        if (in_comment) continue;  // comment body: ignored
        if (line.empty()) continue;
        if (line == "c") {
            in_comment = true;
            continue;
        }
        const char kind = line[0];
        if (kind != 'i' && kind != 'l' && kind != 'o') {
            fail("unexpected line in symbol section: '" + line + "'");
        }
        std::istringstream ls(line.substr(1));
        std::uint64_t pos = 0;
        std::string name;
        if (!(ls >> pos) || !std::getline(ls, name) || name.size() < 2 ||
            name[0] != ' ') {
            fail("malformed symbol line: '" + line + "'");
        }
        name.erase(0, 1);
        if (kind == 'i') {
            if (pos >= st.design.num_inputs) fail("symbol i" + std::to_string(pos) + " out of range");
            st.design.aig.set_input_name(pos, name);
        } else if (kind == 'l') {
            if (pos >= st.design.latches.size()) fail("symbol l" + std::to_string(pos) + " out of range");
            st.design.latches[pos].name = name;
            st.design.aig.set_input_name(st.design.num_inputs + pos, name);
        } else {
            if (pos >= num_outputs) fail("symbol o" + std::to_string(pos) + " out of range");
            st.design.aig.set_output_name(pos, name);
        }
    }
}

}  // namespace

AigerDesign read_aiger(std::istream& is, const std::string& name) {
    const Header h = read_header(is);
    ReaderState st;
    st.design.name = name;
    st.design.num_inputs = h.i;
    st.design.file_ands = h.a;
    st.var2lit.assign(h.m + 1, kUndef);
    st.var2lit[0] = Aig::const0();

    std::string line;
    const auto next_line = [&](const char* what) -> std::string {
        if (!std::getline(is, line)) fail(std::string("unexpected EOF in ") + what);
        return chomp(line);
    };

    // Inputs: explicit literals in ASCII, implicit 2..2I in binary.
    for (std::uint64_t k = 0; k < h.i; ++k) {
        std::uint64_t lit = 2 * (k + 1);
        if (!h.binary) {
            lit = parse_numbers(next_line("input section"), "input", 1, 1)[0];
            if (lit < 2 || (lit & 1)) fail("input literal must be even and nonzero");
        }
        const std::uint64_t var = lit >> 1;
        if (var > h.m) fail("input literal exceeds header M");
        if (st.var2lit[var] != kUndef) fail("input variable defined twice");
        st.var2lit[var] = st.design.aig.add_input("i" + std::to_string(k));
    }

    // Latches: current-state variables become pseudo-inputs; next-state
    // literals resolve after the and section.
    struct PendingLatch {
        std::uint64_t next = 0;
        int reset = 0;
    };
    std::vector<PendingLatch> pending_latches;
    for (std::uint64_t k = 0; k < h.l; ++k) {
        const std::string l = next_line("latch section");
        std::uint64_t cur = 2 * (h.i + k + 1);
        std::vector<std::uint64_t> nums;
        if (h.binary) {
            nums = parse_numbers(l, "latch", 1, 2);
        } else {
            nums = parse_numbers(l, "latch", 2, 3);
            cur = nums[0];
            nums.erase(nums.begin());
            if (cur < 2 || (cur & 1)) fail("latch literal must be even and nonzero");
        }
        PendingLatch pl;
        pl.next = nums[0];
        if (nums.size() == 2) {
            if (nums[1] == 0 || nums[1] == 1) {
                pl.reset = static_cast<int>(nums[1]);
            } else if (nums[1] == cur) {
                fail("uninitialized latch reset (reset == latch literal) unsupported");
            } else {
                fail("latch reset must be 0 or 1");
            }
        }
        const std::uint64_t var = cur >> 1;
        if (var > h.m) fail("latch literal exceeds header M");
        if (st.var2lit[var] != kUndef) fail("latch variable defined twice");
        st.var2lit[var] = st.design.aig.add_input("l" + std::to_string(k));
        pending_latches.push_back(pl);
    }

    // Outputs: literals may reference and gates defined below; buffer them.
    std::vector<std::uint64_t> pending_outputs;
    for (std::uint64_t k = 0; k < h.o; ++k) {
        pending_outputs.push_back(
            parse_numbers(next_line("output section"), "output", 1, 1)[0]);
    }

    // And gates.
    for (std::uint64_t k = 0; k < h.a; ++k) {
        std::uint64_t lhs = 0, rhs0 = 0, rhs1 = 0;
        if (h.binary) {
            lhs = 2 * (h.i + h.l + k + 1);
            const std::uint32_t d0 = decode_delta(is, k);
            if (d0 == 0 || d0 > lhs) fail("binary and gate " + std::to_string(k) +
                                          ": delta0 out of range");
            rhs0 = lhs - d0;
            const std::uint32_t d1 = decode_delta(is, k);
            if (d1 > rhs0) fail("binary and gate " + std::to_string(k) +
                                ": delta1 out of range");
            rhs1 = rhs0 - d1;
        } else {
            const auto nums = parse_numbers(next_line("and section"), "and gate", 3, 3);
            lhs = nums[0];
            rhs0 = nums[1];
            rhs1 = nums[2];
            if (lhs < 2 || (lhs & 1)) fail("and literal must be even and nonzero");
        }
        const std::uint64_t var = lhs >> 1;
        if (var > h.m) fail("and literal exceeds header M");
        if (st.var2lit[var] != kUndef) fail("and variable defined twice");
        st.var2lit[var] = st.design.aig.land(st.resolve(rhs0, "and gate"),
                                             st.resolve(rhs1, "and gate"));
    }

    for (std::size_t k = 0; k < pending_outputs.size(); ++k) {
        st.design.aig.add_output("o" + std::to_string(k),
                                 st.resolve(pending_outputs[k], "output"));
    }
    for (std::size_t k = 0; k < pending_latches.size(); ++k) {
        AigerLatch al;
        al.name = "l" + std::to_string(k);
        al.next = st.resolve(pending_latches[k].next, "latch next-state");
        al.reset = pending_latches[k].reset;
        st.design.latches.push_back(std::move(al));
    }

    read_symbols_and_comments(is, st, pending_outputs.size());
    return std::move(st.design);
}

AigerDesign read_aiger_file(const std::string& path) {
    std::ifstream f(path, std::ios::binary);
    if (!f) throw std::runtime_error("read_aiger_file: cannot open " + path);
    const auto slash = path.find_last_of('/');
    std::string stem = slash == std::string::npos ? path : path.substr(slash + 1);
    const auto dot = stem.find_last_of('.');
    if (dot != std::string::npos && dot > 0) stem.erase(dot);
    return read_aiger(f, stem);
}

}  // namespace janus
