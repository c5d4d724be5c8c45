#include "janus/logic/bdd.hpp"

#include <algorithm>
#include <cassert>
#include <functional>
#include <stdexcept>
#include <unordered_map>

namespace janus {

Bdd::Bdd(int num_vars) : num_vars_(num_vars) {
    if (num_vars < 0 || num_vars > 62) {
        throw std::invalid_argument("Bdd: num_vars out of range");
    }
    nodes_.push_back(Node{num_vars_, kFalse, kFalse});  // terminal 0
    nodes_.push_back(Node{num_vars_, kTrue, kTrue});    // terminal 1
}

Bdd::Ref Bdd::make_node(int var, Ref lo, Ref hi) {
    if (lo == hi) return lo;  // reduction
    const std::uint64_t key = (static_cast<std::uint64_t>(var) << 52) ^
                              (static_cast<std::uint64_t>(lo) << 26) ^ hi;
    if (const auto it = unique_.find(key); it != unique_.end()) {
        const Node& n = nodes_[it->second];
        if (n.var == var && n.lo == lo && n.hi == hi) return it->second;
    }
    nodes_.push_back(Node{var, lo, hi});
    const Ref r = static_cast<Ref>(nodes_.size() - 1);
    unique_[key] = r;
    return r;
}

Bdd::Ref Bdd::var(int v) {
    assert(v >= 0 && v < num_vars_);
    return make_node(v, kFalse, kTrue);
}

Bdd::Ref Bdd::ite(Ref f, Ref g, Ref h) {
    // Terminal cases.
    if (f == kTrue) return g;
    if (f == kFalse) return h;
    if (g == h) return g;
    if (g == kTrue && h == kFalse) return f;

    const std::uint64_t key = (static_cast<std::uint64_t>(f) << 42) ^
                              (static_cast<std::uint64_t>(g) << 21) ^ h;
    if (const auto it = ite_cache_.find(key); it != ite_cache_.end()) {
        return it->second;
    }
    const int top = std::min({var_of(f), var_of(g), var_of(h)});
    const auto cof = [&](Ref r, bool hi) {
        if (var_of(r) != top) return r;
        return hi ? nodes_[r].hi : nodes_[r].lo;
    };
    const Ref lo = ite(cof(f, false), cof(g, false), cof(h, false));
    const Ref hi = ite(cof(f, true), cof(g, true), cof(h, true));
    const Ref r = make_node(top, lo, hi);
    ite_cache_[key] = r;
    return r;
}

Bdd::Ref Bdd::from_truth_table(const TruthTable& tt) {
    if (tt.num_vars() > num_vars_) {
        throw std::invalid_argument("Bdd::from_truth_table: variable mismatch");
    }
    // Recursive Shannon on the table, top variable = highest index so the
    // natural order x0 < x1 < ... holds along paths. Memoized on the exact
    // table contents: the result depends only on the function.
    std::unordered_map<TruthTable, Ref, TruthTableHash> memo;
    std::function<Ref(const TruthTable&, int)> build =
        [&](const TruthTable& f, int level) -> Ref {
        if (f.is_constant(false)) return kFalse;
        if (f.is_constant(true)) return kTrue;
        assert(level >= 0);
        if (const auto it = memo.find(f); it != memo.end()) return it->second;
        if (!f.depends_on(level)) return build(f, level - 1);
        const Ref lo = build(f.cofactor(level, false), level - 1);
        const Ref hi = build(f.cofactor(level, true), level - 1);
        const Ref r = make_node(level, lo, hi);
        memo.emplace(f, r);
        return r;
    };
    return build(tt, tt.num_vars() - 1);
}

std::size_t Bdd::count_nodes(const std::vector<Ref>& roots) const {
    std::vector<bool> seen(nodes_.size(), false);
    std::vector<Ref> stack(roots);
    std::size_t count = 0;
    while (!stack.empty()) {
        const Ref r = stack.back();
        stack.pop_back();
        if (r <= kTrue || seen[r]) continue;
        seen[r] = true;
        ++count;
        stack.push_back(nodes_[r].lo);
        stack.push_back(nodes_[r].hi);
    }
    return count;
}

std::uint64_t Bdd::sat_count(Ref f) const {
    std::unordered_map<Ref, double> memo;
    std::function<double(Ref)> count = [&](Ref r) -> double {
        if (r == kFalse) return 0.0;
        if (r == kTrue) return 1.0;
        if (const auto it = memo.find(r); it != memo.end()) return it->second;
        // Each child is weighted by the variables skipped between levels.
        const Node& n = nodes_[r];
        const auto weight = [&](Ref child) {
            const int skipped = var_of(child) - n.var - 1;
            return count(child) * static_cast<double>(1ull << skipped);
        };
        const double c = weight(n.lo) + weight(n.hi);
        memo[r] = c;
        return c;
    };
    const double below_root = count(f) * static_cast<double>(1ull << var_of(f));
    return static_cast<std::uint64_t>(below_root / 1.0);
}

bool Bdd::evaluate(Ref f, std::uint64_t assignment) const {
    while (f > kTrue) {
        const Node& n = nodes_[f];
        f = (assignment >> n.var) & 1 ? n.hi : n.lo;
    }
    return f == kTrue;
}

}  // namespace janus
