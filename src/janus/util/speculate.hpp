#pragma once
/// \file speculate.hpp
/// Speculative region-ownership execution, shared by the SA detailed placer
/// (sa_place.cpp) and the global router's negotiation loop
/// (global_router.cpp). The amorphous-data-parallelism model: the domain is
/// cut into a fixed geometric grid of regions, each WorkerTeam slot
/// (util/thread_pool.hpp) pulls whole regions from a shared cursor and
/// *optimistically* evaluates that region's work against a snapshot frozen
/// for the round, and the results are committed serially in deterministic
/// region/draw (or congestion) order with cross-region conflicts detected
/// by epoch-stamped claim arrays and re-queued to the next round.
///
/// Determinism contract: the region grid, the per-region work sequences and
/// RNG streams, and the commit order are all pure functions of the input and
/// seed — worker slots only decide *which thread* evaluates a region, never
/// what it computes — so results are byte-identical for any worker count
/// (docs/PLACE.md, docs/ROUTING.md).

#include <cstddef>
#include <cstdint>
#include <vector>

namespace janus {

/// Deterministic tiling of an integer rectangle into tiles_x * tiles_y
/// regions. `shifted` offsets the cut lines by half a tile in both axes so
/// alternating rounds pair items across the previous round's seams (work
/// near a boundary is otherwise never co-owned).
class RegionGrid {
  public:
    RegionGrid() = default;
    /// Tiles [lo_x, lo_x + width) x [lo_y, lo_y + height); width/height and
    /// tile counts are clamped to at least 1.
    RegionGrid(std::int64_t lo_x, std::int64_t lo_y, std::int64_t width,
               std::int64_t height, int tiles_x, int tiles_y);

    int tiles_x() const { return tiles_x_; }
    int tiles_y() const { return tiles_y_; }
    int num_regions() const { return tiles_x_ * tiles_y_; }

    /// Region owning point (x, y); out-of-domain points clamp to the border
    /// tiles, so every point has an owner.
    int region_of(std::int64_t x, std::int64_t y, bool shifted = false) const;

    /// Per-axis tile count targeting `target` items per tile for `items`
    /// total, clamped to [1, max_per_axis]. A pure function of the workload
    /// (never of the worker count), so auto-sized grids keep the
    /// determinism contract.
    static int auto_tiles_per_axis(std::size_t items, std::size_t target,
                                   int max_per_axis);

  private:
    std::int64_t lo_x_ = 0, lo_y_ = 0;
    std::int64_t tile_w_ = 1, tile_h_ = 1;
    int tiles_x_ = 1, tiles_y_ = 1;
};

/// Epoch-stamped claim array: clearing all claims is an O(1) epoch bump
/// instead of an O(n) fill, which is what makes per-round conflict
/// detection affordable (one array outlives thousands of rounds).
class EpochClaims {
  public:
    void resize(std::size_t n) { stamp_.assign(n, 0); }
    std::size_t size() const { return stamp_.size(); }

    /// Invalidates every claim. Epoch 0 is never a valid claim, and the
    /// (theoretical) 32-bit wrap re-zeroes the array instead of resurrecting
    /// stale stamps.
    void next_epoch() {
        if (++epoch_ == 0) {
            stamp_.assign(stamp_.size(), 0);
            epoch_ = 1;
        }
    }

    bool claimed(std::size_t i) const { return stamp_[i] == epoch_; }
    void claim(std::size_t i) { stamp_[i] = epoch_; }

  private:
    std::vector<std::uint32_t> stamp_;
    std::uint32_t epoch_ = 0;
};

}  // namespace janus
