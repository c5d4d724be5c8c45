#pragma once
/// \file grid_graph.hpp
/// Global-routing grid: gcells with capacitated edges between 4-neighbors.
/// Both routers (maze and line-search) and the rip-up-and-reroute loop
/// operate on this structure.

#include <algorithm>
#include <cstdint>
#include <vector>

namespace janus {

/// A gcell coordinate.
struct GCell {
    int x = 0;
    int y = 0;
    friend bool operator==(const GCell&, const GCell&) = default;
};

/// An inclusive rectangle of gcells, [x0..x1] x [y0..y1]. Default-constructed
/// rectangles are empty. Used for the maze search window and for the overlap
/// queries that partition congested nets into independently-routable batches
/// (global_router.cpp; see docs/ROUTING.md).
struct GCellRect {
    int x0 = 0, y0 = 0, x1 = -1, y1 = -1;

    bool empty() const { return x1 < x0 || y1 < y0; }
    int span_x() const { return empty() ? 0 : x1 - x0; }
    int span_y() const { return empty() ? 0 : y1 - y0; }

    void include(const GCell& c) {
        if (empty()) {
            x0 = x1 = c.x;
            y0 = y1 = c.y;
            return;
        }
        x0 = std::min(x0, c.x);
        x1 = std::max(x1, c.x);
        y0 = std::min(y0, c.y);
        y1 = std::max(y1, c.y);
    }

    bool contains(const GCell& c) const {
        return c.x >= x0 && c.x <= x1 && c.y >= y0 && c.y <= y1;
    }

    /// Grown by `margin` on every side (empty stays empty).
    GCellRect expanded(int margin) const {
        if (empty()) return *this;
        return {x0 - margin, y0 - margin, x1 + margin, y1 + margin};
    }

    /// Intersected with a width x height grid.
    GCellRect clipped(int width, int height) const {
        if (empty()) return *this;
        return {std::max(x0, 0), std::max(y0, 0), std::min(x1, width - 1),
                std::min(y1, height - 1)};
    }
};

/// A routed path: a sequence of adjacent gcells (no layer yet; layer
/// assignment happens in layer_assign.hpp).
struct GridRoute {
    std::vector<GCell> cells;
    /// Total edge count (wirelength in gcell units).
    std::size_t length() const { return cells.empty() ? 0 : cells.size() - 1; }
};

class GridGraph {
  public:
    GridGraph(int width, int height, double edge_capacity);

    int width() const { return width_; }
    int height() const { return height_; }
    double capacity() const { return capacity_; }
    bool contains(const GCell& c) const {
        return c.x >= 0 && c.y >= 0 && c.x < width_ && c.y < height_;
    }

    /// Cost of crossing an edge for the router: 1 + overflow penalty +
    /// history. `penalty` scales how hard full edges repel.
    double edge_cost(const GCell& from, const GCell& to, double penalty) const;

    /// True when the edge has remaining capacity.
    bool edge_free(const GCell& from, const GCell& to) const;

    /// Commits/uncommits a route's demand.
    void add_route(const GridRoute& r, double demand = 1.0);
    void remove_route(const GridRoute& r, double demand = 1.0);

    /// Adds history cost on all overflowed edges (negotiated congestion).
    void accumulate_history(double increment = 0.5);

    /// Overflow summary: total demand beyond capacity over all edges.
    double total_overflow() const;
    std::size_t overflowed_edges() const;

  private:
    int width_, height_;
    double capacity_;
    std::vector<double> h_usage_, v_usage_;  // (width-1)*height, width*(height-1)
    std::vector<double> h_hist_, v_hist_;

    std::size_t h_index(int x, int y) const {
        return static_cast<std::size_t>(y) * (width_ - 1) + x;
    }
    std::size_t v_index(int x, int y) const {
        return static_cast<std::size_t>(y) * width_ + x;
    }
    /// Flat index of the edge a-b and its orientation. Shared by the mutable
    /// commit path and the const read path, so concurrent readers (the
    /// batch-parallel reroute phase) never have to const_cast through the
    /// writer accessor.
    std::size_t edge_index(const GCell& a, const GCell& b,
                           bool& horizontal) const;
    double& usage_ref(const GCell& a, const GCell& b);
    double usage_of(const GCell& a, const GCell& b) const;
    double history_of(const GCell& a, const GCell& b) const;
};

}  // namespace janus
