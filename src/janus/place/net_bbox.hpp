#pragma once
/// \file net_bbox.hpp
/// Incremental per-net bounding-box cache shared by detailed placement
/// (sa_place.cpp) and congestion estimation (congestion.cpp). For every
/// net it tracks the pin bounding box plus the number of pins sitting
/// exactly on each of the four boundaries, so committing a swap is O(1)
/// per net unless the pin solely held a boundary and moves off it — only
/// then is the net rescanned. A speculative query re-boxes the net from
/// its pins instead (docs/PLACE.md).
///
/// Layout: flat arrays only. Net→pins and instance→nets are CSR (one
/// offsets array plus one flat data array), each net's box carries its
/// degree, and the cache keeps its own copy of every instance position,
/// taken at construction and moved only by apply_swap(). A pad is one more
/// pin with a fixed position after the instances', so a net's pins list
/// its instances and then its pads. After construction the netlist is
/// never read again.
///
/// Bounds are integers (DBU), so the cached boxes are always *exact* — the
/// cache can never drift the way a floating-point delta accumulation can,
/// which is what makes NetBBoxCache::total_hpwl_um() the authoritative HPWL
/// at sa_refine exit (docs/PLACE.md).

#include <cstdint>
#include <span>
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

/// The cache copies instance positions at construction; from then on it
/// sees a position change only through apply_swap(), so every swap applied
/// to the netlist must be mirrored there. Structural netlist mutations
/// invalidate the cache (rebuild it).
class NetBBoxCache {
  public:
    NetBBoxCache(const Netlist& nl, const PlacementArea& area,
                 const NetBBoxOptions& opts = {});

    std::size_t num_nets() const { return box_.size(); }
    /// Unique instance pins plus fixed pad pins on `n`.
    std::size_t degree(NetId n) const { return box_[n].degree; }
    /// Unique nets incident to instance `i`, sorted ascending (so callers
    /// can binary-search for shared-net tests).
    std::span<const NetId> nets_of(InstId i) const {
        return {net_.data() + net_off_[i], net_.data() + net_off_[i + 1]};
    }
    /// Position of `i` as the cache holds it: the netlist's at
    /// construction, then as apply_swap() moved it.
    Point position(InstId i) const { return pos_[i]; }

    /// Pin bounding box of `n`; empty Rect when the net has no pins.
    Rect bbox(NetId n) const;
    /// HPWL of `n` in um; 0 when fewer than two pins.
    double net_hpwl_um(NetId n) const;
    /// Exact total HPWL in um, summed over nets in id order — the same
    /// order (and therefore bit pattern) as analytic_place's
    /// total_hpwl_um() on an in-sync netlist.
    double total_hpwl_um() const;

    /// HPWL of `n` if the pin of `moved` relocated to `to`, without
    /// mutating the cache: the net's pins re-boxed with `to` in place of
    /// `moved`'s position. Pure function of the cache: safe to call
    /// concurrently with other const members.
    double hpwl_if_moved_um(NetId n, InstId moved, Point to) const;

    /// HPWL delta (um) of swapping the cached positions of `a` and `b`,
    /// read-only against the cache. Nets incident to both instances see an
    /// unchanged pin multiset under a swap, so only the symmetric difference
    /// of the two incidence sets contributes — which is also what makes
    /// deltas of net-disjoint swaps exactly additive, the property the
    /// speculative SA engine's ordered commit relies on (sa_place.cpp,
    /// docs/PLACE.md). Pure function of the cache: safe to call
    /// concurrently with other const members.
    double swap_delta_um(InstId a, InstId b) const;

    /// Commits a two-instance position swap (`pa`/`pb` are the pre-swap
    /// positions): `a` moves to `pb` and `b` to `pa` in the cache's own
    /// position copy, then the boxes follow by boundary counts. Nets
    /// incident to both instances keep an unchanged pin multiset and are
    /// skipped.
    void apply_swap(InstId a, Point pa, InstId b, Point pb);

    /// Nets rescanned by apply_swap so far (boundary-shrinking commits);
    /// observability for docs/PLACE.md's O(1)-move claim.
    std::size_t rescans() const { return rescans_; }

  private:
    struct Box {
        std::int64_t minx = 0, maxx = -1, miny = 0, maxy = -1;
        std::uint32_t n_minx = 0, n_maxx = 0, n_miny = 0, n_maxy = 0;
        std::uint32_t degree = 0;
    };

    std::span<const std::uint32_t> pins(NetId n) const {
        return {pin_.data() + pin_off_[n], pin_.data() + pin_off_[n + 1]};
    }
    void rescan(NetId n);
    void update_net(NetId n, Point from, Point to);

    std::vector<Box> box_;
    /// Pin positions: instance i at [i], then one fixed entry per pad.
    std::vector<Point> pos_;
    std::vector<std::uint32_t> pin_off_;  ///< net → distinct instances, pads
    std::vector<std::uint32_t> pin_;
    std::vector<std::uint32_t> net_off_;  ///< instance → incident nets
    std::vector<NetId> net_;
    std::size_t rescans_ = 0;
};

}  // namespace janus
