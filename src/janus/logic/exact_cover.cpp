#include "janus/logic/exact_cover.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <stdexcept>

namespace janus {
namespace {

/// Implicant as (value, mask): mask bits are don't-care positions; value
/// bits are the fixed literal values (zero under the mask).
struct Implicant {
    std::uint32_t value = 0;
    std::uint32_t mask = 0;
    friend auto operator<=>(const Implicant&, const Implicant&) = default;
};

Cube to_cube(const Implicant& imp, int n) {
    Cube c(n);
    for (int v = 0; v < n; ++v) {
        if (imp.mask & (1u << v)) continue;  // stays DC
        c.set(v, (imp.value & (1u << v)) ? Literal::Pos : Literal::Neg);
    }
    return c;
}

bool covers(const Implicant& imp, std::uint32_t minterm) {
    return (minterm & ~imp.mask) == imp.value;
}

}  // namespace

std::vector<Cube> prime_implicants(const TruthTable& tt, const TruthTable& dc) {
    const int n = tt.num_vars();
    if (n > 12) throw std::invalid_argument("prime_implicants: too many variables");

    std::set<Implicant> current;
    for (std::uint64_t m = 0; m < tt.num_minterms_space(); ++m) {
        if (tt.bit(m) || dc.bit(m)) {
            current.insert({static_cast<std::uint32_t>(m), 0});
        }
    }
    std::vector<Implicant> primes;
    while (!current.empty()) {
        std::set<Implicant> next;
        std::set<Implicant> combined;
        // Group by mask; combine pairs at Hamming distance one.
        for (auto it = current.begin(); it != current.end(); ++it) {
            for (int b = 0; b < n; ++b) {
                if (it->mask & (1u << b)) continue;
                Implicant partner = *it;
                partner.value ^= (1u << b);
                if (current.count(partner)) {
                    Implicant merged{it->value & ~(1u << b),
                                     it->mask | (1u << b)};
                    next.insert(merged);
                    combined.insert(*it);
                    combined.insert(partner);
                }
            }
        }
        for (const Implicant& imp : current) {
            if (!combined.count(imp)) primes.push_back(imp);
        }
        current = std::move(next);
    }

    // Keep primes covering at least one ON minterm.
    std::vector<Cube> out;
    for (const Implicant& p : primes) {
        bool useful = false;
        for (std::uint64_t m = 0; m < tt.num_minterms_space() && !useful; ++m) {
            useful = tt.bit(m) && covers(p, static_cast<std::uint32_t>(m));
        }
        if (useful) out.push_back(to_cube(p, n));
    }
    return out;
}

ExactMinimizeResult exact_minimize(const TruthTable& tt, const TruthTable& dc) {
    constexpr std::uint64_t kMaxBranchNodes = 1'000'000;  // B&B node budget
    const int n = tt.num_vars();
    ExactMinimizeResult res;
    res.cover = Cover(n);
    if (tt.is_constant(false)) return res;
    if ((tt | dc).is_constant(true) && !tt.is_constant(false)) {
        // Tautology (with DCs): single full cube.
        res.cover.add(Cube(n));
        res.num_primes = 1;
        return res;
    }

    const std::vector<Cube> primes = prime_implicants(tt, dc);
    res.num_primes = primes.size();

    // Covering problem: ON minterms x primes.
    std::vector<std::uint32_t> on;
    for (std::uint64_t m = 0; m < tt.num_minterms_space(); ++m) {
        if (tt.bit(m)) on.push_back(static_cast<std::uint32_t>(m));
    }
    std::vector<std::vector<std::size_t>> covers_of(on.size());
    for (std::size_t mi = 0; mi < on.size(); ++mi) {
        for (std::size_t pi = 0; pi < primes.size(); ++pi) {
            if (primes[pi].covers_minterm(on[mi])) covers_of[mi].push_back(pi);
        }
    }

    // Branch and bound for the minimum number of primes.
    std::vector<std::size_t> best;
    bool have_best = false;
    std::vector<std::size_t> chosen;
    std::vector<bool> covered(on.size(), false);
    std::uint64_t nodes = 0;
    bool budget_hit = false;

    std::function<void()> branch = [&]() {
        if (++nodes > kMaxBranchNodes) {
            budget_hit = true;
            return;
        }
        if (have_best && chosen.size() + 1 > best.size()) return;  // bound
        // Find the uncovered minterm with the fewest candidate primes.
        std::size_t pick = on.size();
        std::size_t fewest = SIZE_MAX;
        for (std::size_t mi = 0; mi < on.size(); ++mi) {
            if (covered[mi]) continue;
            if (covers_of[mi].size() < fewest) {
                fewest = covers_of[mi].size();
                pick = mi;
            }
        }
        if (pick == on.size()) {
            if (!have_best || chosen.size() < best.size()) {
                best = chosen;
                have_best = true;
            }
            return;
        }
        if (have_best && chosen.size() + 1 >= best.size() + 1 &&
            chosen.size() + 1 > best.size()) {
            return;
        }
        for (const std::size_t pi : covers_of[pick]) {
            // Apply.
            std::vector<std::size_t> newly;
            for (std::size_t mi = 0; mi < on.size(); ++mi) {
                if (!covered[mi] && primes[pi].covers_minterm(on[mi])) {
                    covered[mi] = true;
                    newly.push_back(mi);
                }
            }
            chosen.push_back(pi);
            branch();
            chosen.pop_back();
            for (const std::size_t mi : newly) covered[mi] = false;
            if (budget_hit) return;
        }
    };
    branch();
    res.optimal = !budget_hit;

    for (const std::size_t pi : best) res.cover.add(primes[pi]);
    return res;
}

ExactMinimizeResult exact_minimize(const TruthTable& tt) {
    return exact_minimize(tt, TruthTable(tt.num_vars()));
}

}  // namespace janus
