#pragma once
/// \file espresso.hpp
/// Espresso-style heuristic two-level minimization: the EXPAND /
/// IRREDUNDANT / REDUCE loop over an ON-set with optional don't-cares.
/// Panelist Macii names Espresso/Mini/MIS/SIS as the first wave of EDA
/// algorithms; this module is that wave's representative in JanusEDA.

#include "janus/logic/cover.hpp"

namespace janus {

/// Result of a minimization run.
struct EspressoResult {
    Cover cover;        ///< minimized ON-cover
    int iterations = 0; ///< EXPAND/REDUCE loop iterations executed
    int initial_cubes = 0;
    int initial_literals = 0;
};

/// Minimizes `onset` given `dcset` (both over the same variables). The
/// returned cover is logically equivalent to the ON-set on all minterms
/// outside the DC-set, irredundant, and prime with respect to the
/// computed OFF-set.
EspressoResult espresso(const Cover& onset, const Cover& dcset);

/// Convenience overload with an empty DC-set.
EspressoResult espresso(const Cover& onset);

/// EXPAND step: each cube is enlarged to a prime implicant against the
/// OFF-set (greedy literal raising). Exposed for tests/ablation.
Cover expand(const Cover& onset, const Cover& offset);

/// IRREDUNDANT step: removes cubes covered by the rest of the cover plus
/// the DC-set. Exposed for tests/ablation.
Cover irredundant(const Cover& cover, const Cover& dcset);

/// REDUCE step: shrinks each cube to the smallest cube that still covers
/// its essential minterms. Exposed for tests/ablation.
Cover reduce(const Cover& cover, const Cover& dcset);

}  // namespace janus
