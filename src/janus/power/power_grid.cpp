#include "janus/power/power_grid.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace janus {

PowerGrid::PowerGrid(Rect die, double vdd, const PowerGridOptions& opts)
    : die_(die), vdd_(vdd), opts_(opts) {
    if (opts_.cols < 2 || opts_.rows < 2) {
        throw std::invalid_argument("PowerGrid: grid too small");
    }
    current_ma_.assign(opts_.cols * opts_.rows, 0.0);
    is_pad_.assign(opts_.cols * opts_.rows, false);
    // Pads along the boundary every pad_stride nodes.
    for (std::size_t c = 0; c < opts_.cols; c += opts_.pad_stride) {
        is_pad_[index(c, 0)] = true;
        is_pad_[index(c, opts_.rows - 1)] = true;
    }
    for (std::size_t r = 0; r < opts_.rows; r += opts_.pad_stride) {
        is_pad_[index(0, r)] = true;
        is_pad_[index(opts_.cols - 1, r)] = true;
    }
}

std::pair<std::size_t, std::size_t> PowerGrid::node_of(const Point& p) const {
    const auto clampi = [](std::int64_t v, std::int64_t lo, std::int64_t hi) {
        return std::max(lo, std::min(v, hi));
    };
    const std::int64_t w = std::max<std::int64_t>(1, die_.width());
    const std::int64_t h = std::max<std::int64_t>(1, die_.height());
    const std::int64_t c =
        clampi((p.x - die_.lo.x) * static_cast<std::int64_t>(opts_.cols) / w, 0,
               static_cast<std::int64_t>(opts_.cols) - 1);
    const std::int64_t r =
        clampi((p.y - die_.lo.y) * static_cast<std::int64_t>(opts_.rows) / h, 0,
               static_cast<std::int64_t>(opts_.rows) - 1);
    return {static_cast<std::size_t>(c), static_cast<std::size_t>(r)};
}

void PowerGrid::load_currents(const Netlist& nl,
                              const std::vector<double>& dynamic_mw) {
    assert(dynamic_mw.size() == nl.num_instances());
    double unplaced_ma = 0.0;
    for (InstId i = 0; i < nl.num_instances(); ++i) {
        // I = P / V; dynamic_mw in mW, so I in mA.
        const double ma = dynamic_mw[i] / std::max(1e-9, vdd_);
        const Instance& inst = nl.instance(i);
        if (inst.placed) {
            const auto [c, r] = node_of(inst.position);
            current_ma_[index(c, r)] += ma;
        } else {
            unplaced_ma += ma;
        }
    }
    if (unplaced_ma > 0) {
        const double per_node = unplaced_ma / static_cast<double>(current_ma_.size());
        for (double& c : current_ma_) c += per_node;
    }
}

void PowerGrid::add_current(std::size_t col, std::size_t row, double ma) {
    current_ma_.at(index(col, row)) += ma;
}

void PowerGrid::scale_currents(double factor) {
    for (double& c : current_ma_) c *= factor;
}

double PowerGrid::current_at(std::size_t col, std::size_t row) const {
    return current_ma_.at(index(col, row));
}

IrDropReport PowerGrid::solve() const {
    constexpr double kSorOmega = 1.8;  // over-relaxation factor

    IrDropReport rep;
    rep.cols = opts_.cols;
    rep.rows = opts_.rows;
    rep.vdd = vdd_;
    rep.current_ma = current_ma_;
    rep.voltage.assign(current_ma_.size(), vdd_);

    const double g = 1.0 / opts_.segment_res_ohm;  // segment conductance
    auto& v = rep.voltage;
    int it = 0;
    for (; it < opts_.max_iterations; ++it) {
        double max_delta = 0.0;
        for (std::size_t r = 0; r < opts_.rows; ++r) {
            for (std::size_t c = 0; c < opts_.cols; ++c) {
                const std::size_t k = index(c, r);
                if (is_pad_[k]) continue;
                double gsum = 0.0;
                double isum = -current_ma_[k] * 1e-3;  // demand sinks current
                const auto neighbor = [&](std::size_t nk) {
                    gsum += g;
                    isum += g * v[nk];
                };
                if (c > 0) neighbor(index(c - 1, r));
                if (c + 1 < opts_.cols) neighbor(index(c + 1, r));
                if (r > 0) neighbor(index(c, r - 1));
                if (r + 1 < opts_.rows) neighbor(index(c, r + 1));
                const double v_new = isum / gsum;
                const double relaxed = v[k] + kSorOmega * (v_new - v[k]);
                max_delta = std::max(max_delta, std::fabs(relaxed - v[k]));
                v[k] = relaxed;
            }
        }
        if (max_delta < opts_.tolerance_v) break;
    }
    rep.iterations = it + 1;

    double sum_drop = 0.0;
    for (const double vk : v) {
        const double drop = vdd_ - vk;
        rep.worst_drop_v = std::max(rep.worst_drop_v, drop);
        sum_drop += drop;
    }
    rep.avg_drop_v = sum_drop / static_cast<double>(v.size());
    return rep;
}

}  // namespace janus
