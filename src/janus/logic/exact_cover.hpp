#pragma once
/// \file exact_cover.hpp
/// Exact two-level minimization (Quine-McCluskey prime generation + unate
/// covering with branch and bound). Exponential — usable to ~10 variables
/// — and exists as the quality reference the Espresso heuristic is tested
/// against.

#include "janus/logic/cover.hpp"
#include "janus/logic/truth_table.hpp"

namespace janus {

struct ExactMinimizeResult {
    Cover cover;
    std::size_t num_primes = 0;  ///< primes generated before covering
    bool optimal = true;         ///< false when the node budget stopped B&B
};

/// Minimum-cube SOP of `tt` (don't-cares via `dc`: minterms that may be
/// covered freely). Requires tt.num_vars() <= 12.
ExactMinimizeResult exact_minimize(const TruthTable& tt, const TruthTable& dc);
ExactMinimizeResult exact_minimize(const TruthTable& tt);

/// All prime implicants of (tt | dc) that cover at least one ON minterm.
std::vector<Cube> prime_implicants(const TruthTable& tt, const TruthTable& dc);

}  // namespace janus
