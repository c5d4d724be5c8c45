#include "janus/route/multipattern.hpp"

#include <algorithm>
#include <queue>

#include "janus/util/rng.hpp"

namespace janus {

std::vector<std::pair<std::size_t, std::size_t>> conflict_edges(
    const std::vector<WireShape>& shapes, double spacing_nm) {
    // Sweep by x to avoid the full quadratic scan on long layouts.
    std::vector<std::size_t> order(shapes.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return shapes[a].rect.lo.x < shapes[b].rect.lo.x;
    });
    const auto spacing = static_cast<std::int64_t>(spacing_nm);

    std::vector<std::pair<std::size_t, std::size_t>> edges;
    for (std::size_t oi = 0; oi < order.size(); ++oi) {
        const std::size_t i = order[oi];
        for (std::size_t oj = oi + 1; oj < order.size(); ++oj) {
            const std::size_t j = order[oj];
            if (shapes[j].rect.lo.x - shapes[i].rect.hi.x >= spacing) break;
            const std::int64_t gap = rect_gap(shapes[i].rect, shapes[j].rect);
            // Touching shapes of one polygon (stitch siblings) or of one
            // electrical net are connected, not conflicting.
            if (gap == 0 &&
                ((shapes[i].parent >= 0 && shapes[i].parent == shapes[j].parent) ||
                 (shapes[i].net >= 0 && shapes[i].net == shapes[j].net))) {
                continue;
            }
            if (gap < spacing) {
                edges.emplace_back(std::min(i, j), std::max(i, j));
            }
        }
    }
    return edges;
}

namespace {

std::vector<std::vector<std::size_t>> adjacency(
    std::size_t n, const std::vector<std::pair<std::size_t, std::size_t>>& edges) {
    std::vector<std::vector<std::size_t>> adj(n);
    for (const auto& [a, b] : edges) {
        adj[a].push_back(b);
        adj[b].push_back(a);
    }
    return adj;
}

/// Greedy saturation-degree (DSATUR) colouring with k colours; nodes that
/// cannot be coloured take the least-conflicting colour.
std::vector<int> dsatur(std::size_t n,
                        const std::vector<std::vector<std::size_t>>& adj, int k) {
    std::vector<int> color(n, -1);
    std::vector<int> sat(n, 0);
    std::vector<bool> done(n, false);
    for (std::size_t step = 0; step < n; ++step) {
        // Pick the uncoloured node with max saturation, tie-break degree.
        std::size_t pick = n;
        for (std::size_t i = 0; i < n; ++i) {
            if (done[i]) continue;
            if (pick == n || sat[i] > sat[pick] ||
                (sat[i] == sat[pick] && adj[i].size() > adj[pick].size())) {
                pick = i;
            }
        }
        // Count conflicts per colour among neighbors.
        std::vector<int> used(static_cast<std::size_t>(k), 0);
        for (const std::size_t nb : adj[pick]) {
            if (color[nb] >= 0) ++used[static_cast<std::size_t>(color[nb])];
        }
        int best = 0;
        for (int c = 1; c < k; ++c) {
            if (used[static_cast<std::size_t>(c)] < used[static_cast<std::size_t>(best)]) {
                best = c;
            }
        }
        color[pick] = best;
        done[pick] = true;
        for (const std::size_t nb : adj[pick]) {
            if (!done[nb]) ++sat[nb];
        }
    }
    return color;
}

std::size_t count_conflicts(
    const std::vector<int>& color,
    const std::vector<std::pair<std::size_t, std::size_t>>& edges) {
    std::size_t c = 0;
    for (const auto& [a, b] : edges) {
        if (color[a] >= 0 && color[a] == color[b]) ++c;
    }
    return c;
}

}  // namespace

MplResult decompose(const std::vector<WireShape>& shapes, const MplOptions& opts) {
    constexpr int kMaxStitchPasses = 64;  // colour/stitch rounds before giving up
    MplResult res;
    res.shapes = shapes;
    // Record original index as parent for stitch bookkeeping.
    for (std::size_t i = 0; i < res.shapes.size(); ++i) {
        if (res.shapes[i].parent < 0) res.shapes[i].parent = static_cast<int>(i);
    }

    if (opts.num_masks <= 1) {
        // Single patterning: everything on one mask; conflicts are just
        // the conflict edges.
        res.color.assign(res.shapes.size(), 0);
        res.unresolved_conflicts =
            conflict_edges(res.shapes, opts.same_mask_spacing_nm).size();
        return res;
    }

    for (int pass = 0;; ++pass) {
        const auto edges = conflict_edges(res.shapes, opts.same_mask_spacing_nm);
        const auto adj = adjacency(res.shapes.size(), edges);
        res.color = dsatur(res.shapes.size(), adj, opts.num_masks);
        res.unresolved_conflicts = count_conflicts(res.color, edges);
        if (res.unresolved_conflicts == 0 || !opts.allow_stitches ||
            pass >= kMaxStitchPasses) {
            break;
        }
        // Stitch: split a shape involved in a conflict at a legal stitch
        // location — the largest gap along its long axis not covered by
        // any conflict neighbor's (spacing-inflated) projection. Splitting
        // at a covered point is useless: both halves would keep the same
        // conflicts as the whole.
        const auto spacing = static_cast<std::int64_t>(opts.same_mask_spacing_nm);
        const auto min_half = static_cast<std::int64_t>(opts.min_stitch_half_nm);

        // Candidates: shapes on a violated edge, longest first.
        std::vector<std::size_t> cands;
        for (const auto& [a, b] : edges) {
            if (res.color[a] != res.color[b]) continue;
            cands.push_back(a);
            cands.push_back(b);
        }
        std::sort(cands.begin(), cands.end(), [&](std::size_t a, std::size_t b) {
            const auto la = std::max(res.shapes[a].rect.width(), res.shapes[a].rect.height());
            const auto lb = std::max(res.shapes[b].rect.width(), res.shapes[b].rect.height());
            return la > lb;
        });
        cands.erase(std::unique(cands.begin(), cands.end()), cands.end());

        bool stitched = false;
        const auto adj_now = adjacency(res.shapes.size(), edges);
        for (const std::size_t victim : cands) {
            const Rect r = res.shapes[victim].rect;
            const bool horiz = r.width() >= r.height();
            const std::int64_t lo = horiz ? r.lo.x : r.lo.y;
            const std::int64_t hi = horiz ? r.hi.x : r.hi.y;
            if (hi - lo < 2 * min_half) continue;
            // Neighbor projections onto the split axis.
            std::vector<std::pair<std::int64_t, std::int64_t>> blocked;
            for (const std::size_t nb : adj_now[victim]) {
                const Rect& nr = res.shapes[nb].rect;
                blocked.emplace_back((horiz ? nr.lo.x : nr.lo.y) - spacing,
                                     (horiz ? nr.hi.x : nr.hi.y) + spacing);
            }
            std::sort(blocked.begin(), blocked.end());
            // Find the largest uncovered gap within [lo+min_half, hi-min_half].
            std::int64_t cursor = lo + min_half;
            std::int64_t best_at = -1, best_gap = 0;
            const std::int64_t limit = hi - min_half;
            for (const auto& [blo, bhi] : blocked) {
                if (blo > cursor) {
                    const std::int64_t gap = std::min(blo, limit) - cursor;
                    if (gap > best_gap) {
                        best_gap = gap;
                        best_at = cursor + gap / 2;
                    }
                }
                cursor = std::max(cursor, bhi);
                if (cursor >= limit) break;
            }
            if (cursor < limit) {
                const std::int64_t gap = limit - cursor;
                if (gap > best_gap) {
                    best_gap = gap;
                    best_at = cursor + gap / 2;
                }
            }
            if (best_at < 0) continue;  // fully covered: unsplittable

            WireShape left = res.shapes[victim];
            WireShape right = res.shapes[victim];
            if (horiz) {
                left.rect.hi.x = best_at;
                right.rect.lo.x = best_at;
            } else {
                left.rect.hi.y = best_at;
                right.rect.lo.y = best_at;
            }
            res.shapes[victim] = left;
            res.shapes.push_back(right);
            ++res.num_stitches;
            stitched = true;
            break;
        }
        if (!stitched) break;  // nothing stitchable
    }
    return res;
}

std::vector<WireShape> make_dense_layout(int tracks, double length_nm,
                                         double pitch_nm, double width_nm,
                                         double jog_probability,
                                         std::uint64_t seed) {
    Rng rng(seed);
    std::vector<WireShape> shapes;
    const auto w = static_cast<std::int64_t>(width_nm);
    const auto len = static_cast<std::int64_t>(length_nm);
    const auto pitch = static_cast<std::int64_t>(pitch_nm);
    int next_net = 0;

    // Pass 1: track segments, each its own net.
    std::vector<std::vector<std::size_t>> track_segs(static_cast<std::size_t>(tracks));
    for (int t = 0; t < tracks; ++t) {
        const std::int64_t y = static_cast<std::int64_t>(t) * pitch;
        std::int64_t x = 0;
        while (x < len) {
            const std::int64_t seg =
                std::max<std::int64_t>(4 * w, rng.next_in(len / 6, len / 2));
            const std::int64_t end = std::min(len, x + seg);
            WireShape s;
            s.rect = Rect{x, y, end, y + w};
            s.net = next_net++;
            track_segs[static_cast<std::size_t>(t)].push_back(shapes.size());
            shapes.push_back(s);
            x = end + std::max<std::int64_t>(2 * w, pitch);
        }
    }

    // Pass 2: jogs. A jog lands on a segment of the next track and merges
    // the two nets (it is one polygon electrically); the pattern still
    // forms the triangles that defeat 2-colouring at tight pitch, because
    // the jog body runs beside *other* tracks' segments.
    const std::size_t before_jogs = shapes.size();
    for (int t = 0; t + 1 < tracks; ++t) {
        for (const std::size_t si : track_segs[static_cast<std::size_t>(t)]) {
            if (si >= before_jogs || !rng.next_bool(jog_probability)) continue;
            const Rect r = shapes[si].rect;
            // Land point: the segment's right end.
            const std::int64_t jx = r.hi.x - w;
            std::size_t target = before_jogs;
            for (const std::size_t sj : track_segs[static_cast<std::size_t>(t) + 1]) {
                if (shapes[sj].rect.lo.x <= jx && shapes[sj].rect.hi.x >= r.hi.x) {
                    target = sj;
                    break;
                }
            }
            if (target == before_jogs) continue;  // nothing to land on
            WireShape jog;
            jog.rect = Rect{jx, r.lo.y, r.hi.x, r.lo.y + pitch + w};
            jog.net = shapes[si].net;
            // Merge the landing segment's net into the jog's net.
            const int victim_net = shapes[target].net;
            for (WireShape& s : shapes) {
                if (s.net == victim_net) s.net = jog.net;
            }
            shapes.push_back(jog);
        }
    }
    return shapes;
}

}  // namespace janus
