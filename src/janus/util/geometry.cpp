#include "janus/util/geometry.hpp"

#include <cstdlib>
#include <limits>

namespace janus {

std::int64_t manhattan(const Point& a, const Point& b) {
    return std::llabs(a.x - b.x) + std::llabs(a.y - b.y);
}

Rect intersection(const Rect& a, const Rect& b) {
    if (a.empty() || b.empty()) return Rect{};
    Rect r{std::max(a.lo.x, b.lo.x), std::max(a.lo.y, b.lo.y),
           std::min(a.hi.x, b.hi.x), std::min(a.hi.y, b.hi.y)};
    return r.empty() ? Rect{} : r;
}

Rect bounding_box(const Rect& a, const Rect& b) {
    if (a.empty()) return b;
    if (b.empty()) return a;
    return Rect{std::min(a.lo.x, b.lo.x), std::min(a.lo.y, b.lo.y),
                std::max(a.hi.x, b.hi.x), std::max(a.hi.y, b.hi.y)};
}

std::int64_t rect_gap(const Rect& a, const Rect& b) {
    if (a.empty() || b.empty()) return std::numeric_limits<std::int64_t>::max();
    const std::int64_t gx =
        std::max<std::int64_t>(0, std::max(a.lo.x - b.hi.x, b.lo.x - a.hi.x));
    const std::int64_t gy =
        std::max<std::int64_t>(0, std::max(a.lo.y - b.hi.y, b.lo.y - a.hi.y));
    return std::max(gx, gy);
}

std::string to_string(const Point& p) {
    return "(" + std::to_string(p.x) + ", " + std::to_string(p.y) + ")";
}

std::string to_string(const Rect& r) {
    return "[" + to_string(r.lo) + " - " + to_string(r.hi) + "]";
}

}  // namespace janus
