#include "janus/place/sa_place.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "janus/place/net_bbox.hpp"
#include "janus/util/rng.hpp"
#include "janus/util/speculate.hpp"
#include "janus/util/thread_pool.hpp"

namespace janus {
namespace {

constexpr int kMaxPartnerDraws = 8;  ///< bounded redraw of degenerate partners
constexpr int kMaxRequeues = 8;      ///< defer/abort budget before abandoning
/// Fresh draws per region per round: the speculation horizon. Larger rounds
/// amortize the per-round serial work (binning + commit) over more parallel
/// evaluations but evaluate against a staler snapshot.
constexpr std::size_t kRegionQuota = 64;
constexpr std::size_t kCellsPerRegion = 256;  ///< auto grid sizing target
constexpr int kMaxTilesPerAxis = 64;
constexpr double kInitialTempFrac = 0.05;  ///< T0 as a fraction of initial HPWL/net
constexpr double kCooling = 0.95;

/// A candidate re-queued across rounds (local defer or commit abort). Only
/// the endpoints survive: positions and the delta are re-read against the
/// next round's fresh snapshot.
struct CarryMove {
    InstId a = 0, b = 0;
    int requeues = 0;
};

/// An accepted-pending move awaiting its round's serial commit.
struct PendingMove {
    InstId a = 0, b = 0;
    double delta_um = 0;  ///< vs the round-frozen cache
    int requeues = 0;
};

/// Per-region output of one speculation round. Written only by the slot that
/// owns the region that round and folded into SaPlaceResult serially in
/// region order, so aggregation never depends on slot scheduling.
struct RegionRound {
    std::vector<PendingMove> pending;
    std::vector<CarryMove> defers;
    std::size_t attempted = 0;
    std::size_t degenerate = 0;
    std::size_t drawn = 0;
    std::size_t evals = 0;
    std::size_t rejected = 0;
    std::size_t local_defers = 0;
    std::size_t abandoned = 0;

    void reset() {
        pending.clear();
        defers.clear();
        attempted = degenerate = drawn = evals = rejected = local_defers =
            abandoned = 0;
    }
};

/// Per-slot scratch, allocated once and reused every round — the persistent
/// private state that per-batch task submission could never keep.
struct SlotScratch {
    EpochClaims nets;
    EpochClaims insts;
};

/// Milliseconds since `t`, restarting `t` at now.
double lap_ms(std::chrono::steady_clock::time_point& t) {
    const auto now = std::chrono::steady_clock::now();
    const double ms = std::chrono::duration<double, std::milli>(now - t).count();
    t = now;
    return ms;
}

}  // namespace

SaPlaceResult sa_refine(Netlist& nl, const PlacementArea& area,
                        const SaPlaceOptions& opts) {
    if (opts.moves_per_cell < 0) {
        throw std::invalid_argument(
            "sa_refine: moves_per_cell must be >= 0, got " +
            std::to_string(opts.moves_per_cell));
    }
    SaPlaceResult res;

    // The cache owns the positions from here on: the speculation reads them
    // from it, and the netlist is only written, once per committed swap.
    NetBBoxCache cache(nl, area);
    res.initial_hpwl_um = cache.total_hpwl_um();
    res.final_hpwl_um = res.initial_hpwl_um;
    res.accumulated_hpwl_um = res.initial_hpwl_um;

    // Cells grouped by width in sites: swaps stay legal within a group.
    std::map<std::int64_t, std::vector<InstId>> by_width;
    for (InstId i = 0; i < nl.num_instances(); ++i) {
        const auto w = static_cast<std::int64_t>(
            std::ceil(nl.type_of(i).width_tracks));
        by_width[w].push_back(i);
    }
    std::vector<std::vector<InstId>> groups;
    for (auto& [w, g] : by_width) {
        if (g.size() >= 2) groups.push_back(std::move(g));
    }
    if (groups.empty()) return res;

    // The ownership grid is a pure function of the workload (cell count),
    // never of the worker count — auto-sizing off `workers` would silently
    // break the byte-identity contract.
    const int tiles = RegionGrid::auto_tiles_per_axis(
        nl.num_instances(), kCellsPerRegion, kMaxTilesPerAxis);
    const RegionGrid grid(area.die.lo.x, area.die.lo.y,
                          area.die.hi.x - area.die.lo.x,
                          area.die.hi.y - area.die.lo.y, tiles, tiles);
    const std::size_t regions = static_cast<std::size_t>(grid.num_regions());
    res.regions = regions;
    // Each cell's region under the plain and the half-tile-shifted grid,
    // computed once; a committed swap exchanges its two cells' entries.
    // Rounds alternate the grids: cells straddling one round's seam share
    // an owner the next round, so seam-adjacent pairs are not permanently
    // unswappable.
    std::vector<std::uint32_t> cell_region[2];
    for (int s = 0; s < 2; ++s) {
        cell_region[s].resize(nl.num_instances());
        for (InstId i = 0; i < nl.num_instances(); ++i) {
            const Point p = cache.position(i);
            cell_region[s][i] =
                static_cast<std::uint32_t>(grid.region_of(p.x, p.y, s == 1));
        }
    }

    const std::size_t total_slots =
        static_cast<std::size_t>(opts.moves_per_cell) * nl.num_instances();
    const std::size_t chunk = std::max<std::size_t>(1, total_slots / 60);
    double temp = kInitialTempFrac *
                  (res.initial_hpwl_um /
                   static_cast<double>(std::max<std::size_t>(1, nl.num_nets())));
    double accumulated = res.initial_hpwl_um;

    WorkerTeam team(opts.workers);
    std::vector<SlotScratch> scratch(team.slots());
    for (SlotScratch& s : scratch) {
        s.nets.resize(nl.num_nets());
        s.insts.resize(nl.num_instances());
    }
    EpochClaims commit_nets, commit_insts;
    commit_nets.resize(nl.num_nets());
    commit_insts.resize(nl.num_instances());

    // Round-reused structures: per-region width-group bins, eligible-group
    // indices, carried-move inboxes, speculation outputs, draw quotas.
    std::vector<std::vector<std::vector<InstId>>> rbins(regions);
    for (auto& rb : rbins) rb.resize(groups.size());
    std::vector<std::vector<std::size_t>> elig(regions);
    std::vector<std::vector<CarryMove>> carried(regions);
    std::vector<RegionRound> out(regions);
    std::vector<std::size_t> quota(regions, 0);
    std::vector<CarryMove> carry;

    std::size_t consumed = 0;  // move slots drawn or burned so far
    std::size_t cooled = 0;    // slots whose cooling decay has applied

    while (consumed < total_slots || !carry.empty()) {
        auto clock = std::chrono::steady_clock::now();
        const std::vector<std::uint32_t>& region = cell_region[res.rounds % 2];
        const std::uint64_t round_seed = mix_seed(opts.seed, res.rounds);
        ++res.rounds;

        // Advance the cooling clock over slots consumed by earlier rounds,
        // one decay per completed chunk of slots; the round then runs at a
        // frozen temperature (worker-invariant by construction — `consumed`
        // is schedule-independent).
        for (std::size_t k = consumed / chunk - cooled / chunk; k > 0; --k) {
            temp *= kCooling;
        }
        cooled = consumed;
        const double round_temp = std::max(1e-12, temp);

        // Serial prologue: bin cells and carried moves under this round's
        // grid. Carried moves follow endpoint `a`'s current position.
        for (std::size_t r = 0; r < regions; ++r) {
            for (auto& g : rbins[r]) g.clear();
            elig[r].clear();
            carried[r].clear();
            out[r].reset();
        }
        for (std::size_t gi = 0; gi < groups.size(); ++gi) {
            for (const InstId i : groups[gi]) rbins[region[i]][gi].push_back(i);
        }
        for (std::size_t r = 0; r < regions; ++r) {
            for (std::size_t gi = 0; gi < groups.size(); ++gi) {
                if (rbins[r][gi].size() >= 2) elig[r].push_back(gi);
            }
        }
        for (const CarryMove& m : carry) carried[region[m.a]].push_back(m);
        carry.clear();

        // Distribute this round's fresh-draw budget. Regions with nothing
        // swappable burn their quota, which is what guarantees termination
        // even on degenerate designs.
        const std::size_t budget =
            std::min(total_slots - consumed, regions * kRegionQuota);
        consumed += budget;
        for (std::size_t r = 0; r < regions; ++r) {
            quota[r] = budget / regions + (r < budget % regions ? 1 : 0);
        }
        res.serial_ms += lap_ms(clock);

        // Speculation: each region draws, evaluates and Metropolis-decides
        // its moves against the round-frozen cache, on its own RNG stream.
        // The slot id picks only the scratch set — everything a region
        // computes is a pure function of (seed, round, region).
        team.for_each(regions, [&](std::size_t r, std::size_t slot) {
            RegionRound& o = out[r];
            SlotScratch& sc = scratch[slot];
            sc.nets.next_epoch();
            sc.insts.next_epoch();
            Rng rng(mix_seed(round_seed, r));

            const auto locally_blocked = [&](InstId a, InstId b) {
                if (sc.insts.claimed(a) || sc.insts.claimed(b)) return true;
                for (const NetId n : cache.nets_of(a)) {
                    if (sc.nets.claimed(n)) return true;
                }
                for (const NetId n : cache.nets_of(b)) {
                    if (sc.nets.claimed(n)) return true;
                }
                return false;
            };
            const auto evaluate = [&](InstId a, InstId b, int requeues) {
                // Overlap with an earlier accepted-pending move would make
                // this delta (or these positions) stale: defer, unevaluated.
                if (locally_blocked(a, b)) {
                    ++o.local_defers;
                    if (requeues + 1 > kMaxRequeues) {
                        ++o.abandoned;
                    } else {
                        o.defers.push_back({a, b, requeues + 1});
                    }
                    return;
                }
                const double delta = cache.swap_delta_um(a, b);
                ++o.evals;
                const bool accept =
                    delta <= 0 ||
                    rng.next_double() < std::exp(-delta / round_temp);
                if (!accept) {
                    ++o.rejected;  // final: rejections are never replayed
                    return;
                }
                // Claim cells as well as nets: a netless cell shares no net
                // with anything, yet a second pending move through it would
                // still read a position this commit is about to change.
                sc.insts.claim(a);
                sc.insts.claim(b);
                for (const NetId n : cache.nets_of(a)) sc.nets.claim(n);
                for (const NetId n : cache.nets_of(b)) sc.nets.claim(n);
                o.pending.push_back({a, b, delta, requeues});
            };

            for (const CarryMove& m : carried[r]) {
                evaluate(m.a, m.b, m.requeues);
            }
            if (elig[r].empty()) return;  // quota burns: nothing swappable
            for (std::size_t q = 0; q < quota[r]; ++q) {
                const auto& g = rbins[r][elig[r][rng.pick_index(elig[r].size())]];
                const InstId a = g[rng.pick_index(g.size())];
                // A self-swap is not a move: redraw the partner (bounded) so
                // a degenerate draw doesn't count as an attempted move.
                InstId b = a;
                for (int t = 0; t < kMaxPartnerDraws && b == a; ++t) {
                    ++o.attempted;
                    b = g[rng.pick_index(g.size())];
                    if (b == a) ++o.degenerate;
                }
                if (b == a) continue;  // redraw budget exhausted (tiny groups)
                ++o.drawn;
                evaluate(a, b, 0);
            }
        });
        res.speculate_ms += lap_ms(clock);

        // Serial commit in region/draw order: deterministic by construction.
        // A pending move whose nets or cells an earlier region already
        // committed this round aborts and re-queues — its delta was computed
        // against a snapshot that commit just invalidated. Surviving commits
        // are mutually net-disjoint, so their deltas are exactly additive.
        commit_nets.next_epoch();
        commit_insts.next_epoch();
        for (std::size_t r = 0; r < regions; ++r) {
            RegionRound& o = out[r];
            res.attempted_draws += o.attempted;
            res.degenerate_draws += o.degenerate;
            res.drawn_moves += o.drawn;
            res.total_moves += o.evals;
            res.rejected_moves += o.rejected;
            res.local_defers += o.local_defers;
            res.abandoned_moves += o.abandoned;
            for (const PendingMove& m : o.pending) {
                bool conflict =
                    commit_insts.claimed(m.a) || commit_insts.claimed(m.b);
                if (!conflict) {
                    for (const NetId n : cache.nets_of(m.a)) {
                        if (commit_nets.claimed(n)) {
                            conflict = true;
                            break;
                        }
                    }
                }
                if (!conflict) {
                    for (const NetId n : cache.nets_of(m.b)) {
                        if (commit_nets.claimed(n)) {
                            conflict = true;
                            break;
                        }
                    }
                }
                if (conflict) {
                    ++res.commit_aborts;
                    if (m.requeues + 1 > kMaxRequeues) {
                        ++res.abandoned_moves;
                    } else {
                        carry.push_back({m.a, m.b, m.requeues + 1});
                    }
                    continue;
                }
                commit_insts.claim(m.a);
                commit_insts.claim(m.b);
                for (const NetId n : cache.nets_of(m.a)) commit_nets.claim(n);
                for (const NetId n : cache.nets_of(m.b)) commit_nets.claim(n);
                std::swap(nl.instance(m.a).position, nl.instance(m.b).position);
                cache.apply_swap(m.a, cache.position(m.a), m.b,
                                 cache.position(m.b));
                for (auto& reg : cell_region) std::swap(reg[m.a], reg[m.b]);
                accumulated += m.delta_um;
                ++res.accepted_moves;
            }
            for (const CarryMove& c : o.defers) carry.push_back(c);
        }
        res.serial_ms += lap_ms(clock);
    }

    res.accumulated_hpwl_um = accumulated;
    // The cache's integer bounds are exact, so this is the true HPWL — the
    // per-move double accumulation is demoted to a diagnostic above.
    res.final_hpwl_um = cache.total_hpwl_um();
    return res;
}

}  // namespace janus
