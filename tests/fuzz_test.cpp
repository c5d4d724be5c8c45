/// Seeded mutation tests for the input surfaces, starting with the .jnl
/// reader. Written designs (a pipelined mesh, an adder, a counter with flop
/// feedback) are mutated by byte flips, truncations, line duplications,
/// line swaps and token deletions. Contract: every mutant either parses to
/// a netlist whose validate() is empty, or throws std::runtime_error with a
/// message that starts "read_netlist: ". Nothing else may escape, crash or
/// hang. Seeds are fixed, so a failure names a mutant that reproduces;
/// configure with -DJANUS_ASAN=ON to run the same mutants under Address
/// and UB sanitizers.

#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "janus/netlist/cell_library.hpp"
#include "janus/netlist/generator.hpp"
#include "janus/netlist/io.hpp"
#include "janus/netlist/netlist.hpp"
#include "janus/netlist/technology.hpp"
#include "janus/util/rng.hpp"

namespace janus {
namespace {

std::shared_ptr<const CellLibrary> lib28() {
    static const auto lib = std::make_shared<const CellLibrary>(
        make_default_library(*find_node("28nm")));
    return lib;
}

/// The mutation sources: written .jnl texts of three design shapes.
const std::vector<std::string>& sources() {
    static const std::vector<std::string> texts = {
        netlist_to_string(generate_mesh(lib28(), 300, 7, 2)),
        netlist_to_string(generate_adder(lib28(), 6)),
        netlist_to_string(generate_counter(lib28(), 6)),
    };
    return texts;
}

std::vector<std::string> split_lines(const std::string& text) {
    std::vector<std::string> lines;
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);) lines.push_back(line);
    return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
    std::string out;
    for (const std::string& l : lines) out += l + "\n";
    return out;
}

enum class Mutation { ByteFlip, Truncate, DuplicateLine, SwapLines, DeleteToken };

/// One mutant of `text`. Byte flips favour the bytes the grammar treats
/// specially (separators, newline, comment, NUL) half of the time.
std::string mutate(const std::string& text, Mutation kind, Rng& rng) {
    std::vector<std::string> lines = split_lines(text);
    const auto pick_line = [&] { return rng.pick_index(lines.size()); };
    switch (kind) {
        case Mutation::ByteFlip: {
            static const char kSpecial[] = {' ', '\t', '\n', '\r', '\v', '#', '\0', 'n', '0'};
            std::string s = text;
            for (std::size_t f = 1 + rng.pick_index(4); f > 0; --f) {
                char& c = s[rng.pick_index(s.size())];
                c = rng.next_bool() ? kSpecial[rng.pick_index(sizeof kSpecial)]
                                    : static_cast<char>(rng.next_below(256));
            }
            return s;
        }
        case Mutation::Truncate:
            return text.substr(0, rng.pick_index(text.size() + 1));
        case Mutation::DuplicateLine: {
            const std::string copy = lines[pick_line()];
            lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(pick_line()), copy);
            return join_lines(lines);
        }
        case Mutation::SwapLines:
            std::swap(lines[pick_line()], lines[pick_line()]);
            return join_lines(lines);
        case Mutation::DeleteToken: {
            std::string& line = lines[pick_line()];
            std::istringstream in(line);
            std::vector<std::string> tokens;
            for (std::string t; in >> t;) tokens.push_back(t);
            if (!tokens.empty()) {
                tokens.erase(tokens.begin() +
                             static_cast<std::ptrdiff_t>(rng.pick_index(tokens.size())));
            }
            line.clear();
            for (const std::string& t : tokens) line += (line.empty() ? "" : " ") + t;
            return join_lines(lines);
        }
    }
    return text;
}

struct Outcome {
    bool parsed = false;
    std::string violation;  ///< empty when the reader kept its contract
};

Outcome read_mutant(const std::string& text) {
    Outcome out;
    try {
        const std::vector<std::string> problems = netlist_from_string(text, lib28()).validate();
        out.parsed = true;
        if (!problems.empty()) out.violation = "parsed but invalid: " + problems.front();
    } catch (const std::runtime_error& e) {
        const std::string msg = e.what();
        if (msg.rfind("read_netlist: ", 0) != 0) out.violation = "unnamed diagnostic: " + msg;
    } catch (const std::exception& e) {
        out.violation = std::string("not a std::runtime_error: ") + e.what();
    }
    return out;
}

/// Checks the contract on `per_source` mutants of `kind` of every source;
/// returns how many of them parsed.
std::size_t check_mutants(Mutation kind, std::uint64_t seed, std::size_t per_source) {
    std::size_t parsed = 0;
    for (std::size_t s = 0; s < sources().size(); ++s) {
        Rng rng(seed + s);
        for (std::size_t i = 0; i < per_source; ++i) {
            const std::string mutant = mutate(sources()[s], kind, rng);
            const Outcome out = read_mutant(mutant);
            EXPECT_EQ(out.violation, "") << "source " << s << ", mutant " << i << ":\n"
                                         << mutant;
            if (!out.violation.empty()) return parsed;
            parsed += out.parsed ? 1 : 0;
        }
    }
    // Some mutants must reach the reader's error paths.
    EXPECT_LT(parsed, sources().size() * per_source);
    return parsed;
}

TEST(JnlMutation, ByteFlips) { EXPECT_GT(check_mutants(Mutation::ByteFlip, 101, 1500), 0u); }

TEST(JnlMutation, Truncations) {
    EXPECT_GT(check_mutants(Mutation::Truncate, 202, 400), 0u);
}

TEST(JnlMutation, LineDuplications) {
    EXPECT_GT(check_mutants(Mutation::DuplicateLine, 303, 400), 0u);
}

TEST(JnlMutation, LineSwaps) { EXPECT_GT(check_mutants(Mutation::SwapLines, 404, 400), 0u); }

TEST(JnlMutation, TokenDeletions) {
    // A written line has no optional token, so every deletion is diagnosed.
    EXPECT_EQ(check_mutants(Mutation::DeleteToken, 505, 400), 0u);
}

}  // namespace
}  // namespace janus
