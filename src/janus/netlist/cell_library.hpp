#pragma once
/// \file cell_library.hpp
/// A liberty-like standard cell library: cell functions, areas, delays,
/// capacitances, leakage. A default library is synthesized from a
/// TechnologyNode so the same flow runs at every node.

#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "janus/netlist/technology.hpp"

namespace janus {

/// Logic function implemented by a cell. Sequential cells are DFF and
/// SCAN_DFF (input 0 = D; SCAN_DFF additionally has SI = input 1, SE = 2).
enum class CellFunction : std::uint8_t {
    Const0, Const1, Buf, Inv,
    And2, And3, And4, Nand2, Nand3, Nand4,
    Or2, Or3, Or4, Nor2, Nor3, Nor4,
    Xor2, Xnor2, Xor3, Mux2,  // Mux2: inputs are {sel, a, b} -> sel ? b : a
    Aoi21, Oai21,             // AOI21: !((a&b)|c); OAI21: !((a|b)&c)
    Maj3,                     // majority of three (carry function)
    Dff, ScanDff,
};

/// Number of logic inputs the function consumes.
int function_arity(CellFunction fn);
/// True for DFF/SCAN_DFF.
bool is_sequential(CellFunction fn);
/// Evaluates a combinational function on packed input bits (bit i of
/// `inputs` is logic input i; bits above 3 are ignored). Throws
/// std::logic_error for sequential cells.
bool evaluate_function(CellFunction fn, unsigned inputs);
/// Canonical cell name for a function ("NAND2", "DFF", ...).
std::string function_name(CellFunction fn);

/// The one definition of what each combinational cell function computes,
/// written over any Boolean algebra `alg` that provides const0(), const1(),
/// lnot(a), land(a, b), lor(a, b), lxor(a, b), lmux(sel, a, b) (= sel ? b : a)
/// and lmaj(a, b, c). in[p] is logic input p; only the first
/// function_arity(fn) entries are read. Throws std::logic_error for
/// sequential cells.
///
/// Evaluation and 64-way simulation run it on WordAlgebra; Aig itself is an
/// algebra whose values are literals, so Aig::from_netlist builds each cell
/// through it. A four-input cell builds its (in[2], in[3]) term first, into
/// a named temporary, then the (in[0], in[1]) term, then the term joining
/// them; every other formula passes at most one new term to each call. So
/// the order in which an Aig creates nodes is fixed here, not left to the
/// compiler's unspecified order of argument evaluation.
template <typename Algebra, typename V>
V apply_function(CellFunction fn, Algebra&& alg, const V* in) {
    const auto and4 = [&] {
        const V cd = alg.land(in[2], in[3]);
        return alg.land(alg.land(in[0], in[1]), cd);
    };
    const auto or4 = [&] {
        const V cd = alg.lor(in[2], in[3]);
        return alg.lor(alg.lor(in[0], in[1]), cd);
    };
    switch (fn) {
        case CellFunction::Const0: return alg.const0();
        case CellFunction::Const1: return alg.const1();
        case CellFunction::Buf: return in[0];
        case CellFunction::Inv: return alg.lnot(in[0]);
        case CellFunction::And2: return alg.land(in[0], in[1]);
        case CellFunction::And3: return alg.land(alg.land(in[0], in[1]), in[2]);
        case CellFunction::And4: return and4();
        case CellFunction::Nand2: return alg.lnot(alg.land(in[0], in[1]));
        case CellFunction::Nand3: return alg.lnot(alg.land(alg.land(in[0], in[1]), in[2]));
        case CellFunction::Nand4: return alg.lnot(and4());
        case CellFunction::Or2: return alg.lor(in[0], in[1]);
        case CellFunction::Or3: return alg.lor(alg.lor(in[0], in[1]), in[2]);
        case CellFunction::Or4: return or4();
        case CellFunction::Nor2: return alg.lnot(alg.lor(in[0], in[1]));
        case CellFunction::Nor3: return alg.lnot(alg.lor(alg.lor(in[0], in[1]), in[2]));
        case CellFunction::Nor4: return alg.lnot(or4());
        case CellFunction::Xor2: return alg.lxor(in[0], in[1]);
        case CellFunction::Xnor2: return alg.lnot(alg.lxor(in[0], in[1]));
        case CellFunction::Xor3: return alg.lxor(alg.lxor(in[0], in[1]), in[2]);
        case CellFunction::Mux2: return alg.lmux(in[0], in[1], in[2]);
        case CellFunction::Aoi21: return alg.lnot(alg.lor(alg.land(in[0], in[1]), in[2]));
        case CellFunction::Oai21: return alg.lnot(alg.land(alg.lor(in[0], in[1]), in[2]));
        case CellFunction::Maj3: return alg.lmaj(in[0], in[1], in[2]);
        case CellFunction::Dff:
        case CellFunction::ScanDff: break;
    }
    throw std::logic_error("apply_function: sequential cell");
}

/// 64 independent Boolean evaluations at once, one per bit of a word.
struct WordAlgebra {
    using Word = std::uint64_t;
    static constexpr Word const0() { return 0; }
    static constexpr Word const1() { return ~Word{0}; }
    static constexpr Word lnot(Word a) { return ~a; }
    static constexpr Word land(Word a, Word b) { return a & b; }
    static constexpr Word lor(Word a, Word b) { return a | b; }
    static constexpr Word lxor(Word a, Word b) { return a ^ b; }
    static constexpr Word lmux(Word sel, Word a, Word b) { return (sel & b) | (~sel & a); }
    static constexpr Word lmaj(Word a, Word b, Word c) { return (a & b) | (a & c) | (b & c); }
};

/// One library cell ("NAND2_X1"): function plus physical/electrical view.
struct CellType {
    std::string name;
    CellFunction function = CellFunction::Inv;
    int drive = 1;             ///< drive strength multiplier (X1, X2, X4)
    double area_um2 = 0;       ///< footprint area
    double width_tracks = 0;   ///< width in placement tracks (height is one row)
    double input_cap_ff = 0;   ///< capacitance per input pin
    double intrinsic_delay_ps = 0;
    double drive_res_kohm = 0; ///< output resistance; delay = intrinsic + R*Cload
    double leakage_nw = 0;
};

/// An immutable set of CellTypes with name lookup. Cell ids are indices
/// into cells().
class CellLibrary {
  public:
    explicit CellLibrary(std::string name, std::vector<CellType> cells);

    const std::string& name() const { return name_; }
    const std::vector<CellType>& cells() const { return cells_; }
    const CellType& cell(std::size_t id) const { return cells_.at(id); }
    std::size_t size() const { return cells_.size(); }

    /// Index of a cell by exact name; nullopt when absent. When two cells
    /// share a name the first one wins.
    std::optional<std::size_t> find(std::string_view name) const;
    /// Index of the smallest-drive cell implementing `fn`; nullopt when the
    /// library has no such cell.
    std::optional<std::size_t> find_function(CellFunction fn) const;
    /// All drive variants implementing `fn`, sorted by drive.
    std::vector<std::size_t> variants(CellFunction fn) const;

  private:
    /// Hashes std::string keys and std::string_view probes alike, so
    /// find() looks a view up without building a string.
    struct NameHash {
        using is_transparent = void;
        std::size_t operator()(std::string_view s) const {
            return std::hash<std::string_view>{}(s);
        }
    };

    std::string name_;
    std::vector<CellType> cells_;
    std::unordered_map<std::string, std::size_t, NameHash, std::equal_to<>> by_name_;
};

/// Builds the default JanusEDA library for a node: the full function set at
/// drive strengths X1/X2/X4, with areas/delays/caps scaled from the node
/// parameters.
CellLibrary make_default_library(const TechnologyNode& node);

}  // namespace janus
