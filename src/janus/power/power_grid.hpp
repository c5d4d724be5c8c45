#pragma once
/// \file power_grid.hpp
/// Power-delivery network analysis: a regular VDD grid with resistive
/// segments, per-node current draw taken from placed instances, and a
/// successive-over-relaxation (SOR) solver for static IR drop. Supports
/// experiment E7 (hotspot management in high-switching networking ASICs).

#include <cstddef>
#include <vector>

#include "janus/netlist/netlist.hpp"
#include "janus/netlist/technology.hpp"
#include "janus/power/power_model.hpp"
#include "janus/util/geometry.hpp"

namespace janus {

struct PowerGridOptions {
    std::size_t cols = 32;
    std::size_t rows = 32;
    double segment_res_ohm = 0.5;   ///< resistance of one grid segment
    /// Pads (ideal VDD sources) are placed every `pad_stride` nodes along
    /// the chip boundary.
    std::size_t pad_stride = 8;
    int max_iterations = 5000;
    double tolerance_v = 1e-6;
};

/// Result of one static IR analysis.
struct IrDropReport {
    std::size_t cols = 0, rows = 0;
    double vdd = 0.0;
    std::vector<double> voltage;     ///< per grid node, row-major
    std::vector<double> current_ma;  ///< per grid node demand
    double worst_drop_v = 0.0;
    double avg_drop_v = 0.0;
    int iterations = 0;

    double drop_at(std::size_t col, std::size_t row) const {
        return vdd - voltage[row * cols + col];
    }
};

class PowerGrid {
  public:
    /// Builds the grid over the die area `die` (DBU coordinates).
    PowerGrid(Rect die, double vdd, const PowerGridOptions& opts = {});

    /// Accumulates instance currents into grid nodes by position. Power
    /// per instance comes from `dynamic_mw` (indexed by InstId); unplaced
    /// instances are spread uniformly.
    void load_currents(const Netlist& nl, const std::vector<double>& dynamic_mw);

    /// Adds extra current demand at a specific node (mA) — used by tests
    /// and by the decap model to perturb demand.
    void add_current(std::size_t col, std::size_t row, double ma);
    /// Scales all current demand (e.g. the 5x switching factor of E7).
    void scale_currents(double factor);
    double current_at(std::size_t col, std::size_t row) const;

    /// Solves static IR drop with SOR.
    IrDropReport solve() const;

    std::size_t cols() const { return opts_.cols; }
    std::size_t rows() const { return opts_.rows; }
    const Rect& die() const { return die_; }

    /// Grid node containing a layout position.
    std::pair<std::size_t, std::size_t> node_of(const Point& p) const;

  private:
    Rect die_;
    double vdd_;
    PowerGridOptions opts_;
    std::vector<double> current_ma_;  // row-major demand
    std::vector<bool> is_pad_;

    std::size_t index(std::size_t c, std::size_t r) const {
        return r * opts_.cols + c;
    }
};

}  // namespace janus
