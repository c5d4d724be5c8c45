#include "janus/place/legalize.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

namespace janus {

std::int64_t cell_width_nm(const Netlist& nl, InstId i, const PlacementArea& area) {
    const double tracks = nl.type_of(i).width_tracks;
    return std::max<std::int64_t>(
        area.site_width,
        static_cast<std::int64_t>(std::ceil(tracks)) * area.site_width);
}

LegalizeResult legalize(Netlist& nl, const PlacementArea& area) {
    LegalizeResult res;
    const int rows = area.num_rows;
    const std::int64_t row_len = area.die.width();

    // Pass 1 — row assignment. Cells in y-order fill rows bottom-to-top;
    // a row closes once adding the next cell would exceed its span. This
    // balances row occupancy no matter how clumped the global placement
    // is, keeping vertical displacement near one row height.
    std::vector<InstId> by_y(nl.num_instances());
    std::iota(by_y.begin(), by_y.end(), 0);
    std::sort(by_y.begin(), by_y.end(), [&](InstId a, InstId b) {
        const auto& pa = nl.instance(a).position;
        const auto& pb = nl.instance(b).position;
        return pa.y < pb.y || (pa.y == pb.y && pa.x < pb.x);
    });
    // Target fill per row: total width over rows, with headroom.
    std::int64_t total_w = 0;
    for (InstId i = 0; i < nl.num_instances(); ++i) total_w += cell_width_nm(nl, i, area);
    const std::int64_t target_fill =
        std::min(row_len, total_w / std::max(1, rows) + area.site_width * 8);

    std::vector<std::vector<InstId>> row_cells(static_cast<std::size_t>(rows));
    {
        int r = 0;
        std::int64_t fill = 0;
        for (const InstId i : by_y) {
            const std::int64_t w = cell_width_nm(nl, i, area);
            if (fill + w > target_fill && r + 1 < rows) {
                ++r;
                fill = 0;
            }
            if (fill + w > row_len) {
                // Row genuinely full (can only happen on the last row).
                res.success = false;
            }
            row_cells[static_cast<std::size_t>(r)].push_back(i);
            fill += w;
        }
    }

    // Pass 2 — in-row placement: cells in x-order take their desired x
    // pushed right as needed; a right-to-left pass then pushes overflow
    // back left. Fits whenever the row's total width does.
    for (int r = 0; r < rows; ++r) {
        auto& cells = row_cells[static_cast<std::size_t>(r)];
        if (cells.empty()) continue;
        std::sort(cells.begin(), cells.end(), [&](InstId a, InstId b) {
            return nl.instance(a).position.x < nl.instance(b).position.x;
        });
        const std::int64_t ry =
            area.die.lo.y + static_cast<std::int64_t>(r) * area.row_height;
        std::vector<std::int64_t> x(cells.size());
        std::int64_t cursor = area.die.lo.x;
        for (std::size_t k = 0; k < cells.size(); ++k) {
            const InstId i = cells[k];
            std::int64_t want = std::max(cursor, nl.instance(i).position.x);
            // Snap to sites.
            want = area.die.lo.x +
                   ((want - area.die.lo.x + area.site_width - 1) / area.site_width) *
                       area.site_width;
            x[k] = want;
            cursor = want + cell_width_nm(nl, i, area);
        }
        // Back-pressure pass.
        std::int64_t limit = area.die.hi.x;
        for (std::size_t k = cells.size(); k-- > 0;) {
            const std::int64_t w = cell_width_nm(nl, cells[k], area);
            std::int64_t xmax = limit - w;
            // Snap down to sites.
            xmax = area.die.lo.x +
                   ((xmax - area.die.lo.x) / area.site_width) * area.site_width;
            if (x[k] > xmax) x[k] = xmax;
            if (x[k] < area.die.lo.x) {
                x[k] = area.die.lo.x;
                res.success = false;  // row truly over capacity
            }
            limit = x[k];
        }
        for (std::size_t k = 0; k < cells.size(); ++k) {
            Instance& inst = nl.instance(cells[k]);
            const double disp =
                static_cast<double>(std::llabs(x[k] - inst.position.x) +
                                    std::llabs(ry - inst.position.y)) *
                1e-3;
            res.total_displacement_um += disp;
            res.max_displacement_um = std::max(res.max_displacement_um, disp);
            inst.position = {x[k], ry};
            inst.placed = true;
        }
    }
    return res;
}

bool is_legal(const Netlist& nl, const PlacementArea& area) {
    // Group by row, check site alignment and overlap.
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> rows(
        static_cast<std::size_t>(area.num_rows));
    for (InstId i = 0; i < nl.num_instances(); ++i) {
        const Instance& inst = nl.instance(i);
        if (!inst.placed) return false;
        if ((inst.position.y - area.die.lo.y) % area.row_height != 0) return false;
        if ((inst.position.x - area.die.lo.x) % area.site_width != 0) return false;
        const auto r =
            static_cast<std::size_t>((inst.position.y - area.die.lo.y) / area.row_height);
        if (r >= rows.size()) return false;
        rows[r].emplace_back(inst.position.x,
                             inst.position.x + cell_width_nm(nl, i, area));
    }
    for (auto& row : rows) {
        std::sort(row.begin(), row.end());
        for (std::size_t i = 1; i < row.size(); ++i) {
            if (row[i].first < row[i - 1].second) return false;
        }
    }
    return true;
}

}  // namespace janus
