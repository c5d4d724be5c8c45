#pragma once
/// \file cell_library.hpp
/// A liberty-like standard cell library: cell functions, areas, delays,
/// capacitances, leakage. A default library is synthesized from a
/// TechnologyNode so the same flow runs at every node.

#include <cstdint>
#include <functional>
#include <optional>
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
/// `inputs` is logic input i). Must not be called for sequential cells.
bool evaluate_function(CellFunction fn, unsigned inputs);
/// Canonical cell name for a function ("NAND2", "DFF", ...).
std::string function_name(CellFunction fn);

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
