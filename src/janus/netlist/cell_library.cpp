#include "janus/netlist/cell_library.hpp"

namespace janus {

int function_arity(CellFunction fn) {
    switch (fn) {
        case CellFunction::Const0:
        case CellFunction::Const1: return 0;
        case CellFunction::Buf:
        case CellFunction::Inv:
        case CellFunction::Dff: return 1;
        case CellFunction::And2:
        case CellFunction::Nand2:
        case CellFunction::Or2:
        case CellFunction::Nor2:
        case CellFunction::Xor2:
        case CellFunction::Xnor2: return 2;
        case CellFunction::And3:
        case CellFunction::Nand3:
        case CellFunction::Or3:
        case CellFunction::Nor3:
        case CellFunction::Xor3:
        case CellFunction::Mux2:
        case CellFunction::Aoi21:
        case CellFunction::Oai21:
        case CellFunction::Maj3:
        case CellFunction::ScanDff: return 3;
        case CellFunction::And4:
        case CellFunction::Nand4:
        case CellFunction::Or4:
        case CellFunction::Nor4: return 4;
    }
    return 0;
}

bool is_sequential(CellFunction fn) {
    return fn == CellFunction::Dff || fn == CellFunction::ScanDff;
}

bool evaluate_function(CellFunction fn, unsigned in) {
    // Bit m of projection word p is bit p of m, so bit m of the result is
    // fn at input assignment m: the function's whole truth table at once.
    static constexpr WordAlgebra::Word kProjection[4] = {0xAAAA, 0xCCCC, 0xF0F0, 0xFF00};
    return (apply_function(fn, WordAlgebra{}, kProjection) >> (in & 15u)) & 1u;
}

std::string function_name(CellFunction fn) {
    switch (fn) {
        case CellFunction::Const0: return "TIE0";
        case CellFunction::Const1: return "TIE1";
        case CellFunction::Buf: return "BUF";
        case CellFunction::Inv: return "INV";
        case CellFunction::And2: return "AND2";
        case CellFunction::And3: return "AND3";
        case CellFunction::And4: return "AND4";
        case CellFunction::Nand2: return "NAND2";
        case CellFunction::Nand3: return "NAND3";
        case CellFunction::Nand4: return "NAND4";
        case CellFunction::Or2: return "OR2";
        case CellFunction::Or3: return "OR3";
        case CellFunction::Or4: return "OR4";
        case CellFunction::Nor2: return "NOR2";
        case CellFunction::Nor3: return "NOR3";
        case CellFunction::Nor4: return "NOR4";
        case CellFunction::Xor2: return "XOR2";
        case CellFunction::Xnor2: return "XNOR2";
        case CellFunction::Xor3: return "XOR3";
        case CellFunction::Mux2: return "MUX2";
        case CellFunction::Aoi21: return "AOI21";
        case CellFunction::Oai21: return "OAI21";
        case CellFunction::Maj3: return "MAJ3";
        case CellFunction::Dff: return "DFF";
        case CellFunction::ScanDff: return "SDFF";
    }
    return "?";
}

CellLibrary::CellLibrary(std::string name, std::vector<CellType> cells)
    : name_(std::move(name)), cells_(std::move(cells)) {
    // emplace keeps the first cell of a repeated name.
    for (std::size_t i = 0; i < cells_.size(); ++i) by_name_.emplace(cells_[i].name, i);
}

std::optional<std::size_t> CellLibrary::find(std::string_view name) const {
    const auto it = by_name_.find(name);
    if (it == by_name_.end()) return std::nullopt;
    return it->second;
}

std::optional<std::size_t> CellLibrary::find_function(CellFunction fn) const {
    std::optional<std::size_t> best;
    for (std::size_t i = 0; i < cells_.size(); ++i) {
        if (cells_[i].function != fn) continue;
        if (!best || cells_[i].drive < cells_[*best].drive) best = i;
    }
    return best;
}

std::vector<std::size_t> CellLibrary::variants(CellFunction fn) const {
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < cells_.size(); ++i) {
        if (cells_[i].function == fn) out.push_back(i);
    }
    for (std::size_t i = 1; i < out.size(); ++i) {
        for (std::size_t j = i; j > 0 && cells_[out[j]].drive < cells_[out[j - 1]].drive; --j) {
            std::swap(out[j], out[j - 1]);
        }
    }
    return out;
}

namespace {

/// Relative complexity of each function in unit-inverter equivalents; the
/// basis for area/cap/leakage scaling.
double function_complexity(CellFunction fn) {
    switch (fn) {
        case CellFunction::Const0:
        case CellFunction::Const1: return 0.5;
        case CellFunction::Buf: return 1.5;
        case CellFunction::Inv: return 1.0;
        case CellFunction::Nand2:
        case CellFunction::Nor2: return 1.5;
        case CellFunction::And2:
        case CellFunction::Or2: return 2.0;
        case CellFunction::Nand3:
        case CellFunction::Nor3: return 2.2;
        case CellFunction::And3:
        case CellFunction::Or3: return 2.7;
        case CellFunction::Nand4:
        case CellFunction::Nor4: return 3.0;
        case CellFunction::And4:
        case CellFunction::Or4: return 3.5;
        case CellFunction::Xor2:
        case CellFunction::Xnor2: return 3.0;
        case CellFunction::Xor3: return 5.0;
        case CellFunction::Mux2: return 3.5;
        case CellFunction::Aoi21:
        case CellFunction::Oai21: return 2.5;
        case CellFunction::Maj3: return 4.0;
        case CellFunction::Dff: return 7.0;
        case CellFunction::ScanDff: return 9.0;
    }
    return 1.0;
}

/// Relative logical effort — how much the intrinsic delay grows with
/// function complexity.
double function_effort(CellFunction fn) {
    switch (fn) {
        case CellFunction::Inv:
        case CellFunction::Buf:
        case CellFunction::Const0:
        case CellFunction::Const1: return 1.0;
        case CellFunction::Nand2: return 1.3;
        case CellFunction::Nor2: return 1.6;
        case CellFunction::And2:
        case CellFunction::Or2: return 1.8;
        case CellFunction::Nand3:
        case CellFunction::Nor3: return 1.9;
        case CellFunction::And3:
        case CellFunction::Or3: return 2.1;
        case CellFunction::Nand4:
        case CellFunction::Nor4: return 2.3;
        case CellFunction::And4:
        case CellFunction::Or4: return 2.5;
        case CellFunction::Xor2:
        case CellFunction::Xnor2: return 2.4;
        case CellFunction::Xor3: return 3.4;
        case CellFunction::Mux2: return 2.2;
        case CellFunction::Aoi21:
        case CellFunction::Oai21: return 1.9;
        case CellFunction::Maj3: return 2.6;
        case CellFunction::Dff: return 3.0;
        case CellFunction::ScanDff: return 3.2;
    }
    return 1.0;
}

}  // namespace

CellLibrary make_default_library(const TechnologyNode& node) {
    static const CellFunction kFunctions[] = {
        CellFunction::Const0, CellFunction::Const1, CellFunction::Buf,
        CellFunction::Inv, CellFunction::And2, CellFunction::And3,
        CellFunction::And4, CellFunction::Nand2, CellFunction::Nand3,
        CellFunction::Nand4, CellFunction::Or2, CellFunction::Or3,
        CellFunction::Or4, CellFunction::Nor2, CellFunction::Nor3,
        CellFunction::Nor4, CellFunction::Xor2, CellFunction::Xnor2,
        CellFunction::Xor3, CellFunction::Mux2, CellFunction::Aoi21,
        CellFunction::Oai21, CellFunction::Maj3, CellFunction::Dff,
        CellFunction::ScanDff,
    };
    // Unit geometry: a min-size inverter occupies ~60 F^2 where F is the
    // feature size; three tracks wide at the track pitch.
    const double f_um = node.feature_nm * 1e-3;
    const double inv_area = 60.0 * f_um * f_um;

    std::vector<CellType> cells;
    for (CellFunction fn : kFunctions) {
        const double cx = function_complexity(fn);
        const double effort = function_effort(fn);
        for (int drive : {1, 2, 4}) {
            // Tie cells and flops come in one drive only.
            if (drive > 1 &&
                (fn == CellFunction::Const0 || fn == CellFunction::Const1)) {
                continue;
            }
            CellType c;
            c.name = function_name(fn) + "_X" + std::to_string(drive);
            c.function = fn;
            c.drive = drive;
            c.area_um2 = inv_area * cx * (1.0 + 0.6 * (drive - 1));
            c.width_tracks = 2.0 + cx * (1.0 + 0.5 * (drive - 1));
            c.input_cap_ff = node.gate_cap_ff * (1.0 + 0.15 * (cx - 1.0));
            c.intrinsic_delay_ps = node.gate_delay_ps * effort;
            // Output resistance shrinks with drive strength; calibrated so a
            // fanout-of-4 load roughly doubles the intrinsic delay at X1.
            c.drive_res_kohm =
                node.gate_delay_ps / (4.0 * node.gate_cap_ff) / drive;
            c.leakage_nw = node.leak_nw * cx * drive;
            cells.push_back(std::move(c));
        }
    }
    return CellLibrary("janus_" + node.name, std::move(cells));
}

}  // namespace janus
