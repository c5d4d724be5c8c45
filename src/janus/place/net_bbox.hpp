#pragma once
/// \file net_bbox.hpp
/// Incremental per-net bounding-box cache shared by detailed placement
/// (sa_place.cpp) and congestion estimation (congestion.cpp). For every net
/// it tracks the pin bounding box plus the number of pins sitting exactly on
/// each of the four boundaries, so relocating one pin is O(1) unless the pin
/// solely held a boundary and moves off it — only then is the net rescanned.
/// This replaces the SA placer's former full rescan of every incident net
/// twice per move.
///
/// Bounds are integers (DBU), so the cached boxes are always *exact* — the
/// cache can never drift the way a floating-point delta accumulation can,
/// which is what makes NetBBoxCache::total_hpwl_um() the authoritative HPWL
/// at sa_refine exit (docs/PLACE.md).

#include <cstdint>
#include <vector>

#include "janus/place/analytic_place.hpp"

namespace janus {

struct NetBBoxOptions {
    /// Include primary-I/O boundary pads (input_pad_position /
    /// output_pad_position) as fixed pins, as the placers do.
    bool with_pads = true;
    /// Skip instances whose `placed` flag is false (congestion estimation
    /// runs on partially placed designs; detailed placement never does).
    bool placed_only = false;
};

/// The cache holds a pointer to the netlist and reads instance positions
/// from it during rescans, so position mutations must be mirrored through
/// apply_swap() in the same order they hit the netlist. Structural netlist
/// mutations invalidate the cache (rebuild it).
class NetBBoxCache {
  public:
    NetBBoxCache(const Netlist& nl, const PlacementArea& area,
                 const NetBBoxOptions& opts = {});

    std::size_t num_nets() const { return box_.size(); }
    /// Unique movable pins plus fixed pad pins on `n`.
    std::size_t degree(NetId n) const {
        return insts_[n].size() + fixed_[n].size();
    }
    /// Unique nets incident to instance `i`, sorted ascending (so callers
    /// can binary-search for shared-net tests).
    const std::vector<NetId>& nets_of(InstId i) const { return nets_of_[i]; }

    /// Pin bounding box of `n`; empty Rect when the net has no pins.
    Rect bbox(NetId n) const;
    /// HPWL of `n` in um; 0 when fewer than two pins.
    double net_hpwl_um(NetId n) const;
    /// Exact total HPWL in um, summed over nets in id order — the same
    /// order (and therefore bit pattern) as analytic_place's
    /// total_hpwl_um() on an in-sync netlist.
    double total_hpwl_um() const;

    /// HPWL of `n` if the pin of `moved` relocated from `from` to `to`,
    /// without mutating the cache. Pure function of the cache and the
    /// netlist's current (frozen) positions: safe to call concurrently
    /// with other const members. O(1) unless the move shrinks a boundary
    /// held by a single pin, which rescans the net's pins.
    double hpwl_if_moved_um(NetId n, InstId moved, Point from, Point to) const;

    /// HPWL delta (um) of swapping the positions of `a` (at `pa`) and `b`
    /// (at `pb`), read-only against the frozen cache. Nets incident to both
    /// instances see an unchanged pin multiset under a swap, so only the
    /// symmetric difference of the two incidence sets contributes — which is
    /// also what makes deltas of net-disjoint swaps exactly additive, the
    /// property the speculative SA engine's ordered commit relies on
    /// (sa_place.cpp, docs/PLACE.md). Pure function of cache + positions:
    /// safe to call concurrently with other const members.
    double swap_delta_um(InstId a, Point pa, InstId b, Point pb) const;

    /// Commits a two-instance position swap (`pa`/`pb` are the pre-swap
    /// positions). Call *after* the netlist positions have been swapped —
    /// rescans read positions from the netlist. Nets incident to both
    /// instances keep an unchanged pin multiset and are skipped.
    void apply_swap(InstId a, Point pa, InstId b, Point pb);

    /// Nets rescanned by apply_swap so far (boundary-shrinking commits);
    /// observability for docs/PLACE.md's O(1)-move claim.
    std::size_t rescans() const { return rescans_; }

  private:
    struct Box {
        std::int64_t minx = 0, maxx = -1, miny = 0, maxy = -1;
        std::uint32_t n_minx = 0, n_maxx = 0, n_miny = 0, n_maxy = 0;
    };

    void rescan(NetId n);
    void update_net(NetId n, Point from, Point to);

    const Netlist* nl_;
    std::vector<Box> box_;
    std::vector<std::vector<InstId>> insts_;
    std::vector<std::vector<Point>> fixed_;
    std::vector<std::vector<NetId>> nets_of_;
    std::size_t rescans_ = 0;
};

}  // namespace janus
