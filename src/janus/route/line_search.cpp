#include "janus/route/line_search.hpp"

#include <algorithm>
#include <vector>

namespace janus {
namespace {

constexpr int kUnreached = -1;
constexpr int kMaxLevels = 64;  ///< line-extension levels before giving up

struct Side {
    std::vector<int> pivot;  ///< per cell: pivot cell index, or kUnreached
    std::vector<int> frontier;
};

/// Expands the straight cell path between two colinear cells (inclusive).
void append_segment(std::vector<GCell>& out, GCell from, GCell to) {
    const int dx = (to.x > from.x) - (to.x < from.x);
    const int dy = (to.y > from.y) - (to.y < from.y);
    GCell c = from;
    while (!(c == to)) {
        out.push_back(c);
        c.x += dx;
        c.y += dy;
    }
    out.push_back(to);
}

}  // namespace

std::optional<GridRoute> line_search_route(const GridGraph& grid, GCell src,
                                           GCell dst,
                                           SearchStats* stats) {
    if (!grid.contains(src) || !grid.contains(dst)) return std::nullopt;
    const int w = grid.width();
    const auto idx = [&](const GCell& c) {
        return static_cast<std::size_t>(c.y) * w + c.x;
    };
    const auto cell_of = [&](int i) { return GCell{i % w, i / w}; };
    const std::size_t n = static_cast<std::size_t>(w) * grid.height();

    Side from_src{std::vector<int>(n, kUnreached), {}};
    Side from_dst{std::vector<int>(n, kUnreached), {}};
    from_src.pivot[idx(src)] = static_cast<int>(idx(src));
    from_dst.pivot[idx(dst)] = static_cast<int>(idx(dst));
    from_src.frontier.push_back(static_cast<int>(idx(src)));
    from_dst.frontier.push_back(static_cast<int>(idx(dst)));
    if (stats) stats->cells_expanded += 2;

    int meet = kUnreached;

    // Draws the four maximal lines from `pivot`, marking new cells on
    // `side`; returns true if a marked cell is already reached by `other`.
    const auto draw_lines = [&](Side& side, const Side& other, int pivot_idx,
                                std::vector<int>& next_frontier) {
        const GCell pivot = cell_of(pivot_idx);
        static const int dx[] = {1, -1, 0, 0};
        static const int dy[] = {0, 0, 1, -1};
        for (int d = 0; d < 4; ++d) {
            GCell cur = pivot;
            for (;;) {
                const GCell nxt{cur.x + dx[d], cur.y + dy[d]};
                if (!grid.contains(nxt) || !grid.edge_free(cur, nxt)) break;
                const std::size_t ni = idx(nxt);
                cur = nxt;
                if (side.pivot[ni] != kUnreached) continue;
                side.pivot[ni] = pivot_idx;
                next_frontier.push_back(static_cast<int>(ni));
                if (stats) ++stats->cells_expanded;
                if (other.pivot[ni] != kUnreached) {
                    meet = static_cast<int>(ni);
                    return true;
                }
            }
        }
        return false;
    };

    // Trivial meet: src == dst.
    if (src == dst) {
        GridRoute r;
        r.cells.push_back(src);
        return r;
    }

    bool found = false;
    for (int level = 0; level < kMaxLevels && !found; ++level) {
        // Alternate sides each level; expand every frontier pivot.
        Side& active = (level % 2 == 0) ? from_src : from_dst;
        Side& passive = (level % 2 == 0) ? from_dst : from_src;
        std::vector<int> next;
        for (const int p : active.frontier) {
            if (draw_lines(active, passive, p, next)) {
                found = true;
                break;
            }
        }
        active.frontier = std::move(next);
        if (active.frontier.empty() && !found) return std::nullopt;
    }
    if (!found) return std::nullopt;

    // Reconstruct: walk pivots back to each terminal.
    const auto chain = [&](const Side& side, int start) {
        std::vector<GCell> pts;
        int cur = start;
        pts.push_back(cell_of(cur));
        while (side.pivot[static_cast<std::size_t>(cur)] != cur) {
            cur = side.pivot[static_cast<std::size_t>(cur)];
            pts.push_back(cell_of(cur));
        }
        return pts;  // start ... terminal
    };
    const std::vector<GCell> to_src = chain(from_src, meet);
    const std::vector<GCell> to_dst = chain(from_dst, meet);

    GridRoute route;
    // src ... meet
    for (std::size_t i = to_src.size(); i-- > 1;) {
        append_segment(route.cells, to_src[i], to_src[i - 1]);
        route.cells.pop_back();  // avoid duplicating the joint
    }
    route.cells.push_back(to_src.front());  // the meet cell
    // meet ... dst
    for (std::size_t i = 0; i + 1 < to_dst.size(); ++i) {
        std::vector<GCell> seg;
        append_segment(seg, to_dst[i], to_dst[i + 1]);
        route.cells.insert(route.cells.end(), seg.begin() + 1, seg.end());
    }
    return route;
}

}  // namespace janus
