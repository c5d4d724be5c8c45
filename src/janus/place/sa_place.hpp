#pragma once
/// \file sa_place.hpp
/// Simulated-annealing detailed placement: equal-width cell swaps over a
/// legal placement, accepting on HPWL. The quality-oriented complement to
/// the analytic flow; also an ablation point (E6 tunes its schedule).
///
/// Parallel execution uses the speculative region-ownership engine
/// (util/speculate.hpp): the die is tiled into regions, each worker slot
/// draws, evaluates and accepts its regions' moves against the round-frozen
/// NetBBoxCache, and accepted moves commit serially in deterministic
/// region/draw order, with cross-region conflicts aborted and re-queued.
/// The grid, the per-region RNG streams and the commit order are pure
/// functions of the input and seed, so SaPlaceResult (apart from its two
/// wall-time fields) and the final placement are byte-identical for any
/// worker count (docs/PLACE.md, same contract as route_workers/sta_workers).
///
/// After the NetBBoxCache is built, positions are read from the cache, not
/// the netlist; each committed swap is written to both. Each cell's region
/// under the plain and the shifted grid is computed once and exchanged by
/// committed swaps, so a round's serial prologue bins cells without
/// reading a position.

#include <cstdint>

#include "janus/place/analytic_place.hpp"

namespace janus {

struct SaPlaceOptions {
    /// Total move slots = this * num cells; sa_refine throws
    /// std::invalid_argument when it is negative.
    int moves_per_cell = 50;
    std::uint64_t seed = 1;
    /// Worker slots speculatively evaluating regions (flow knob:
    /// FlowParams::workers). A pure performance knob: results are
    /// byte-identical for any value; 1 = serial.
    int workers = 1;
};

struct SaPlaceResult {
    double initial_hpwl_um = 0;
    /// Exact final HPWL, recomputed from the cache's integer bounds at
    /// exit — never the floating-point accumulation of per-move deltas.
    double final_hpwl_um = 0;
    /// initial_hpwl_um plus every committed delta: the drift-prone value the
    /// pre-cache implementation used to return, kept as a diagnostic and
    /// pinned to final_hpwl_um within 1e-6 relative by tests.
    double accumulated_hpwl_um = 0;
    std::size_t accepted_moves = 0;  ///< moves committed to the placement
    std::size_t rejected_moves = 0;  ///< Metropolis rejections (final)
    /// Move evaluations (= accepted + rejected + commit_aborts; an aborted
    /// move re-evaluates in a later round against a fresh snapshot).
    std::size_t total_moves = 0;
    std::size_t drawn_moves = 0;       ///< distinct candidates drawn (a != b)
    std::size_t attempted_draws = 0;   ///< partner draws, including redraws
    std::size_t degenerate_draws = 0;  ///< a == b draws (redrawn, bounded)
    std::size_t regions = 0;           ///< ownership-grid regions
    std::size_t rounds = 0;            ///< speculate/commit rounds executed
    /// Candidates deferred inside their own region (they overlapped an
    /// earlier accepted-pending move's nets or cells); re-queued unevaluated.
    std::size_t local_defers = 0;
    /// Accepted moves that lost the serial commit race to an earlier region's
    /// move this round; re-queued to the next round.
    std::size_t commit_aborts = 0;
    /// Candidates dropped after exhausting their re-queue budget.
    std::size_t abandoned_moves = 0;
    /// Wall time of the parallel speculation sweeps, summed over rounds.
    double speculate_ms = 0;
    /// Wall time of the serial work, summed over rounds: the prologue
    /// (cooling, carried-move binning, quotas) plus the ordered commit.
    double serial_ms = 0;
    double improvement() const {
        return initial_hpwl_um > 0 ? 1.0 - final_hpwl_um / initial_hpwl_um : 0.0;
    }
    /// Fraction of commit attempts that succeeded (1.0 when nothing ever
    /// conflicted): the health metric of the speculation.
    double commit_rate() const {
        const std::size_t attempts = accepted_moves + commit_aborts;
        return attempts == 0 ? 1.0
                             : static_cast<double>(accepted_moves) /
                                   static_cast<double>(attempts);
    }
    /// Evaluations per round — the batching-efficiency number that was ~1
    /// in the conflict-degenerate serial-batching design this engine
    /// replaced (regression-tested against a floor).
    double moves_per_round() const {
        return rounds == 0 ? 0.0
                           : static_cast<double>(total_moves) /
                                 static_cast<double>(rounds);
    }
};

/// Refines a legal placement with cell-swap annealing; the placement stays
/// legal (swaps exchange row slots between cells of equal site width).
SaPlaceResult sa_refine(Netlist& nl, const PlacementArea& area,
                        const SaPlaceOptions& opts = {});

}  // namespace janus
