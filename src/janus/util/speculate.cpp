#include "janus/util/speculate.hpp"

#include <algorithm>
#include <cmath>

namespace janus {

RegionGrid::RegionGrid(std::int64_t lo_x, std::int64_t lo_y,
                       std::int64_t width, std::int64_t height, int tiles_x,
                       int tiles_y)
    : lo_x_(lo_x),
      lo_y_(lo_y),
      tiles_x_(std::max(1, tiles_x)),
      tiles_y_(std::max(1, tiles_y)) {
    const std::int64_t w = std::max<std::int64_t>(1, width);
    const std::int64_t h = std::max<std::int64_t>(1, height);
    // Ceiling division so tiles cover the whole domain; the last tile may be
    // short, which only skews region populations, never correctness.
    tile_w_ = (w + tiles_x_ - 1) / tiles_x_;
    tile_h_ = (h + tiles_y_ - 1) / tiles_y_;
}

int RegionGrid::region_of(std::int64_t x, std::int64_t y, bool shifted) const {
    // The half-tile shift moves every cut line, so items that straddled a
    // boundary last round share an owner this round.
    const std::int64_t sx = x - lo_x_ + (shifted ? tile_w_ / 2 : 0);
    const std::int64_t sy = y - lo_y_ + (shifted ? tile_h_ / 2 : 0);
    const auto tile = [](std::int64_t v, std::int64_t tw, int tiles) {
        return static_cast<int>(
            std::clamp<std::int64_t>(v / tw, 0, tiles - 1));
    };
    return tile(sy, tile_h_, tiles_y_) * tiles_x_ + tile(sx, tile_w_, tiles_x_);
}

int RegionGrid::auto_tiles_per_axis(std::size_t items, std::size_t target,
                                    int max_per_axis) {
    const double tiles_wanted = static_cast<double>(items) /
                                static_cast<double>(std::max<std::size_t>(1, target));
    const int per_axis =
        static_cast<int>(std::ceil(std::sqrt(std::max(1.0, tiles_wanted))));
    return std::clamp(per_axis, 1, std::max(1, max_per_axis));
}

}  // namespace janus
