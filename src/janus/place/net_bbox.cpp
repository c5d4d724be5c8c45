#include "janus/place/net_bbox.hpp"

#include <algorithm>
#include <numeric>

namespace janus {
namespace {

/// O(1) min-boundary update for one relocated pin: removal then insertion.
/// Returns false when the pin solely held the boundary and moved off it —
/// the second-smallest coordinate is unknown, so the caller must rescan.
bool shift_min(std::int64_t& m, std::uint32_t& c, std::int64_t from,
               std::int64_t to) {
    if (from == m) {
        if (c == 1) {
            if (to > m) return false;
            m = to;
            return true;
        }
        --c;
    }
    if (to < m) {
        m = to;
        c = 1;
    } else if (to == m) {
        ++c;
    }
    return true;
}

bool shift_max(std::int64_t& m, std::uint32_t& c, std::int64_t from,
               std::int64_t to) {
    if (from == m) {
        if (c == 1) {
            if (to < m) return false;
            m = to;
            return true;
        }
        --c;
    }
    if (to > m) {
        m = to;
        c = 1;
    } else if (to == m) {
        ++c;
    }
    return true;
}

double extent_um(std::int64_t minx, std::int64_t maxx, std::int64_t miny,
                 std::int64_t maxy) {
    return static_cast<double>((maxx - minx) + (maxy - miny)) * 1e-3;
}

}  // namespace

NetBBoxCache::NetBBoxCache(const Netlist& nl, const PlacementArea& area,
                           const NetBBoxOptions& opts)
    : box_(nl.num_nets()),
      pin_off_(nl.num_nets() + 1, 0),
      net_off_(nl.num_instances() + 1, 0) {
    const std::size_t cells = nl.num_instances();
    for (InstId i = 0; i < cells; ++i) pos_.push_back(nl.instance(i).position);
    // Pads become pins cells, cells + 1, ... in the placers' pad order.
    std::vector<std::pair<NetId, std::uint32_t>> pads;  // (net, pin)
    const auto add_pad = [&](NetId net, Point p) {
        pads.emplace_back(net, static_cast<std::uint32_t>(pos_.size()));
        pos_.push_back(p);
    };
    if (opts.with_pads) {
        const std::size_t n_in = nl.primary_inputs().size();
        const std::size_t n_out = nl.primary_outputs().size();
        std::size_t k = 0;
        for (const NetId pi : nl.primary_inputs()) {
            add_pad(pi, input_pad_position(area.die, k++, n_in));
        }
        k = 0;
        for (const auto& po : nl.primary_outputs()) {
            add_pad(po.second, output_pad_position(area.die, k++, n_out));
        }
        std::sort(pads.begin(), pads.end());
    }
    auto pad = pads.begin();
    for (NetId n = 0; n < nl.num_nets(); ++n) {
        const Net& net = nl.net(n);
        const auto add_inst = [&](InstId i) {
            if (opts.placed_only && !nl.instance(i).placed) return;
            pin_.push_back(i);
        };
        if (net.driver_kind == DriverKind::Instance) add_inst(net.driver_inst);
        for (const SinkRef& s : nl.sinks(n)) add_inst(s.inst());
        // Deduplicate: one bbox contribution per instance, or the boundary
        // counts (and incremental deltas) would double-count multi-pin
        // connections to the same cell.
        const auto first = pin_.begin() + pin_off_[n];
        std::sort(first, pin_.end());
        pin_.erase(std::unique(first, pin_.end()), pin_.end());
        for (; pad != pads.end() && pad->first == n; ++pad) {
            pin_.push_back(pad->second);
        }
        pin_off_[n + 1] = static_cast<std::uint32_t>(pin_.size());
        rescan(n);
    }
    // Instance → nets. Nets visited in id order and each instance at most
    // once per net, so every instance's run comes out sorted and unique.
    for (const std::uint32_t i : pin_) {
        if (i < cells) ++net_off_[i + 1];
    }
    std::partial_sum(net_off_.begin(), net_off_.end(), net_off_.begin());
    net_.resize(net_off_.back());
    std::vector<std::uint32_t> fill(net_off_.begin(), net_off_.end() - 1);
    for (NetId n = 0; n < nl.num_nets(); ++n) {
        for (const std::uint32_t i : pins(n)) {
            if (i < cells) net_[fill[i]++] = n;
        }
    }
}

void NetBBoxCache::rescan(NetId n) {
    Box b;
    b.degree = static_cast<std::uint32_t>(pins(n).size());
    bool first = true;
    const auto acc = [&](const Point& p) {
        if (first) {
            b.minx = b.maxx = p.x;
            b.miny = b.maxy = p.y;
            b.n_minx = b.n_maxx = b.n_miny = b.n_maxy = 1;
            first = false;
            return;
        }
        if (p.x < b.minx) {
            b.minx = p.x;
            b.n_minx = 1;
        } else if (p.x == b.minx) {
            ++b.n_minx;
        }
        if (p.x > b.maxx) {
            b.maxx = p.x;
            b.n_maxx = 1;
        } else if (p.x == b.maxx) {
            ++b.n_maxx;
        }
        if (p.y < b.miny) {
            b.miny = p.y;
            b.n_miny = 1;
        } else if (p.y == b.miny) {
            ++b.n_miny;
        }
        if (p.y > b.maxy) {
            b.maxy = p.y;
            b.n_maxy = 1;
        } else if (p.y == b.maxy) {
            ++b.n_maxy;
        }
    };
    for (const std::uint32_t i : pins(n)) acc(pos_[i]);
    box_[n] = b;  // pin-less nets keep the empty sentinel (maxx < minx)
}

Rect NetBBoxCache::bbox(NetId n) const {
    const Box& b = box_[n];
    if (b.degree == 0) return Rect{};
    return Rect{{b.minx, b.miny}, {b.maxx, b.maxy}};
}

double NetBBoxCache::net_hpwl_um(NetId n) const {
    const Box& b = box_[n];
    if (b.degree < 2) return 0;
    return extent_um(b.minx, b.maxx, b.miny, b.maxy);
}

double NetBBoxCache::total_hpwl_um() const {
    double total = 0;
    for (NetId n = 0; n < box_.size(); ++n) total += net_hpwl_um(n);
    return total;
}

double NetBBoxCache::hpwl_if_moved_um(NetId n, InstId moved, Point to) const {
    if (box_[n].degree < 2) return 0;
    std::int64_t minx = INT64_MAX, maxx = INT64_MIN;
    std::int64_t miny = INT64_MAX, maxy = INT64_MIN;
    for (const std::uint32_t i : pins(n)) {
        const Point p = i == moved ? to : pos_[i];
        minx = std::min(minx, p.x);
        maxx = std::max(maxx, p.x);
        miny = std::min(miny, p.y);
        maxy = std::max(maxy, p.y);
    }
    return extent_um(minx, maxx, miny, maxy);
}

double NetBBoxCache::swap_delta_um(InstId a, InstId b) const {
    const Point pa = pos_[a], pb = pos_[b];
    double delta = 0;
    const auto na = nets_of(a);
    const auto nb = nets_of(b);
    for (const NetId n : na) {
        if (std::binary_search(nb.begin(), nb.end(), n)) continue;
        delta += hpwl_if_moved_um(n, a, pb) - net_hpwl_um(n);
    }
    for (const NetId n : nb) {
        if (std::binary_search(na.begin(), na.end(), n)) continue;
        delta += hpwl_if_moved_um(n, b, pa) - net_hpwl_um(n);
    }
    return delta;
}

void NetBBoxCache::update_net(NetId n, Point from, Point to) {
    if (from == to) return;
    Box b = box_[n];
    if (shift_min(b.minx, b.n_minx, from.x, to.x) &&
        shift_max(b.maxx, b.n_maxx, from.x, to.x) &&
        shift_min(b.miny, b.n_miny, from.y, to.y) &&
        shift_max(b.maxy, b.n_maxy, from.y, to.y)) {
        box_[n] = b;
        return;
    }
    ++rescans_;
    rescan(n);
}

void NetBBoxCache::apply_swap(InstId a, Point pa, InstId b, Point pb) {
    pos_[a] = pb;
    pos_[b] = pa;
    const auto na = nets_of(a);
    const auto nb = nets_of(b);
    for (const NetId n : na) {
        if (std::binary_search(nb.begin(), nb.end(), n)) continue;
        update_net(n, pa, pb);
    }
    for (const NetId n : nb) {
        if (std::binary_search(na.begin(), na.end(), n)) continue;
        update_net(n, pb, pa);
    }
}

}  // namespace janus
