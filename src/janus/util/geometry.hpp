#pragma once
/// \file geometry.hpp
/// Integer 2-D geometry primitives used across placement, routing and
/// lithography. Coordinates are in database units (DBU); one DBU is
/// technology-dependent (see janus/netlist/technology.hpp).

#include <algorithm>
#include <cstdint>
#include <string>

namespace janus {

/// A point in the layout plane, in database units.
struct Point {
    std::int64_t x = 0;
    std::int64_t y = 0;

    friend bool operator==(const Point&, const Point&) = default;
    friend auto operator<=>(const Point&, const Point&) = default;
};

/// Manhattan (L1) distance between two points.
std::int64_t manhattan(const Point& a, const Point& b);

/// An axis-aligned rectangle [lo.x, hi.x] x [lo.y, hi.y], inclusive bounds.
/// An empty rectangle has hi < lo in at least one dimension.
struct Rect {
    Point lo;
    Point hi;

    Rect() : lo{0, 0}, hi{-1, -1} {}
    Rect(Point l, Point h) : lo(l), hi(h) {}
    Rect(std::int64_t x0, std::int64_t y0, std::int64_t x1, std::int64_t y1)
        : lo{x0, y0}, hi{x1, y1} {}

    bool empty() const { return hi.x < lo.x || hi.y < lo.y; }
    std::int64_t width() const { return empty() ? 0 : hi.x - lo.x; }
    std::int64_t height() const { return empty() ? 0 : hi.y - lo.y; }
    /// Area in DBU^2; empty rectangles have zero area.
    std::int64_t area() const { return empty() ? 0 : width() * height(); }
    Point center() const { return {(lo.x + hi.x) / 2, (lo.y + hi.y) / 2}; }

    bool contains(const Point& p) const {
        return !empty() && p.x >= lo.x && p.x <= hi.x && p.y >= lo.y && p.y <= hi.y;
    }
    bool intersects(const Rect& o) const {
        return !empty() && !o.empty() && lo.x <= o.hi.x && o.lo.x <= hi.x &&
               lo.y <= o.hi.y && o.lo.y <= hi.y;
    }
    /// Expand (or shrink, if negative) by `d` on every side.
    Rect inflated(std::int64_t d) const {
        return Rect{lo.x - d, lo.y - d, hi.x + d, hi.y + d};
    }

    friend bool operator==(const Rect&, const Rect&) = default;
};

/// Intersection of two rectangles; empty if they do not overlap.
Rect intersection(const Rect& a, const Rect& b);

/// Smallest rectangle containing both inputs (empty inputs are ignored).
Rect bounding_box(const Rect& a, const Rect& b);

/// Minimum spacing between two non-overlapping rectangles measured as the
/// L-infinity gap; zero when they touch or overlap.
std::int64_t rect_gap(const Rect& a, const Rect& b);

/// Human-readable form "(x, y)" for diagnostics.
std::string to_string(const Point& p);
/// Human-readable form "[(x0, y0) - (x1, y1)]" for diagnostics.
std::string to_string(const Rect& r);

}  // namespace janus
