#include "janus/logic/bbdd.hpp"

#include <cassert>
#include <stdexcept>

namespace janus {

Bbdd::Bbdd(int num_vars) : num_vars_(num_vars) {
    if (num_vars < 1 || num_vars > 16) {
        throw std::invalid_argument("Bbdd: num_vars out of range");
    }
    build_cache_.resize(static_cast<std::size_t>(num_vars));
    nodes_.push_back(Node{num_vars_, kFalse, kFalse});
    nodes_.push_back(Node{num_vars_, kTrue, kTrue});
}

Bbdd::Ref Bbdd::make_node(int level, Ref neq, Ref eq) {
    if (neq == eq) return neq;  // function independent of the biconditional
    const std::uint64_t key = (static_cast<std::uint64_t>(level) << 52) ^
                              (static_cast<std::uint64_t>(neq) << 26) ^ eq;
    if (const auto it = unique_.find(key); it != unique_.end()) return it->second;
    nodes_.push_back(Node{level, neq, eq});
    const Ref r = static_cast<Ref>(nodes_.size() - 1);
    unique_[key] = r;
    return r;
}

Bbdd::Ref Bbdd::build(const TruthTable& f, int level) {
    if (f.is_constant(false)) return kFalse;
    if (f.is_constant(true)) return kTrue;
    assert(level < num_vars_);
    auto& cache = build_cache_[static_cast<std::size_t>(level)];
    if (const auto it = cache.find(f); it != cache.end()) {
        return it->second;
    }

    Ref r;
    if (level == num_vars_ - 1) {
        // Shannon tail on the last variable; both cofactors are constant
        // because every earlier variable has been eliminated.
        const Ref lo = build(f.cofactor(level, false), level);
        const Ref hi = build(f.cofactor(level, true), level);
        r = make_node(level, hi, lo);  // neq slot carries x=1, eq slot x=0
    } else {
        // Biconditional expansion: substitute x_level by the (in)equality
        // with x_{level+1}.
        const int next = level + 1;
        TruthTable f_neq(f.num_vars());
        TruthTable f_eq(f.num_vars());
        for (std::uint64_t m = 0; m < f.num_minterms_space(); ++m) {
            const bool xn = (m >> next) & 1;
            std::uint64_t src_neq = m;
            std::uint64_t src_eq = m;
            if (xn) {
                src_neq &= ~(1ull << level);
                src_eq |= (1ull << level);
            } else {
                src_neq |= (1ull << level);
                src_eq &= ~(1ull << level);
            }
            f_neq.set_bit(m, f.bit(src_neq));
            f_eq.set_bit(m, f.bit(src_eq));
        }
        const Ref rn = build(f_neq, level + 1);
        const Ref re = build(f_eq, level + 1);
        r = make_node(level, rn, re);
    }
    cache[f] = r;
    return r;
}

Bbdd::Ref Bbdd::from_truth_table(const TruthTable& tt) {
    if (tt.num_vars() != num_vars_) {
        throw std::invalid_argument("Bbdd::from_truth_table: variable mismatch");
    }
    return build(tt, 0);
}

std::size_t Bbdd::count_nodes(const std::vector<Ref>& roots) const {
    std::vector<bool> seen(nodes_.size(), false);
    std::vector<Ref> stack(roots);
    std::size_t count = 0;
    while (!stack.empty()) {
        const Ref r = stack.back();
        stack.pop_back();
        if (r <= kTrue || seen[r]) continue;
        seen[r] = true;
        ++count;
        stack.push_back(nodes_[r].neq);
        stack.push_back(nodes_[r].eq);
    }
    return count;
}

bool Bbdd::evaluate(Ref f, std::uint64_t assignment) const {
    while (f > kTrue) {
        const Node& n = nodes_[f];
        if (n.level == num_vars_ - 1) {
            const bool x = (assignment >> n.level) & 1;
            f = x ? n.neq : n.eq;
        } else {
            const bool xi = (assignment >> n.level) & 1;
            const bool xj = (assignment >> (n.level + 1)) & 1;
            f = (xi != xj) ? n.neq : n.eq;
        }
    }
    return f == kTrue;
}

}  // namespace janus
