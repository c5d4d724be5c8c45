#include "janus/logic/cover.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace janus {

Cover::Cover(int num_vars, std::vector<Cube> cubes)
    : num_vars_(num_vars), cubes_(std::move(cubes)) {
    for (const Cube& c : cubes_) {
        assert(c.num_vars() == num_vars_);
        (void)c;
    }
}

void Cover::add(const Cube& c) {
    assert(c.num_vars() == num_vars_);
    if (!c.is_empty()) cubes_.push_back(c);
}

int Cover::num_literals() const {
    int n = 0;
    for (const Cube& c : cubes_) n += c.num_literals();
    return n;
}

bool Cover::covers_minterm(std::uint64_t assignment) const {
    for (const Cube& c : cubes_) {
        if (c.covers_minterm(assignment)) return true;
    }
    return false;
}

Cover Cover::cofactor(int var, bool value) const {
    Cover r(num_vars_);
    const Literal block = value ? Literal::Neg : Literal::Pos;
    for (const Cube& c : cubes_) {
        const Literal l = c.get(var);
        if (l == block || l == Literal::Empty) continue;
        Cube cc = c;
        cc.set(var, Literal::DC);
        r.cubes_.push_back(std::move(cc));
    }
    return r;
}

Cover Cover::cofactor(const Cube& c) const {
    Cover r(num_vars_);
    for (const Cube& g : cubes_) {
        if (!g.intersects(c)) continue;  // disjoint from c
        r.cubes_.push_back(g.cofactor(c));
    }
    return r;
}

int Cover::most_binate_var() const {
    int best = -1;
    int best_score = 0;
    std::vector<int> pos(static_cast<std::size_t>(num_vars_), 0);
    std::vector<int> neg(static_cast<std::size_t>(num_vars_), 0);
    for (const Cube& c : cubes_) {
        for (int v = 0; v < num_vars_; ++v) {
            if (c.get(v) == Literal::Pos) ++pos[static_cast<std::size_t>(v)];
            if (c.get(v) == Literal::Neg) ++neg[static_cast<std::size_t>(v)];
        }
    }
    for (int v = 0; v < num_vars_; ++v) {
        const auto uv = static_cast<std::size_t>(v);
        if (pos[uv] > 0 && neg[uv] > 0) {
            const int score = pos[uv] + neg[uv];
            if (score > best_score) {
                best_score = score;
                best = v;
            }
        }
    }
    return best;
}

bool Cover::is_tautology() const {
    if (cubes_.empty()) return false;
    for (const Cube& c : cubes_) {
        if (c.is_full()) return true;
    }
    const int v = most_binate_var();
    if (v < 0) {
        // Unate cover: tautology iff it contains the full cube, which was
        // already checked above.
        return false;
    }
    return cofactor(v, false).is_tautology() && cofactor(v, true).is_tautology();
}

Cover Cover::complement() const {
    // Base cases.
    if (cubes_.empty()) {
        Cover r(num_vars_);
        r.cubes_.push_back(Cube(num_vars_));
        return r;
    }
    for (const Cube& c : cubes_) {
        if (c.is_full()) return Cover(num_vars_);
    }
    if (cubes_.size() == 1) {
        // De Morgan on a single cube: one cube per literal.
        Cover r(num_vars_);
        const Cube& c = cubes_.front();
        for (int v = 0; v < num_vars_; ++v) {
            const Literal l = c.get(v);
            if (l == Literal::DC) continue;
            Cube nc(num_vars_);
            nc.set(v, l == Literal::Pos ? Literal::Neg : Literal::Pos);
            r.cubes_.push_back(std::move(nc));
        }
        return r;
    }
    int v = most_binate_var();
    if (v < 0) {
        // Unate cover: split on any non-DC variable of the first
        // non-full cube (recursion still terminates).
        for (int u = 0; u < num_vars_ && v < 0; ++u) {
            for (const Cube& c : cubes_) {
                if (c.get(u) != Literal::DC) {
                    v = u;
                    break;
                }
            }
        }
        if (v < 0) return Cover(num_vars_);  // only full cubes (handled above)
    }
    const Cover c0 = cofactor(v, false).complement();
    const Cover c1 = cofactor(v, true).complement();
    Cover r(num_vars_);
    for (Cube c : c0.cubes_) {
        if (c.get(v) == Literal::DC) c.set(v, Literal::Neg);
        r.cubes_.push_back(std::move(c));
    }
    for (Cube c : c1.cubes_) {
        if (c.get(v) == Literal::DC) c.set(v, Literal::Pos);
        r.cubes_.push_back(std::move(c));
    }
    r.remove_single_cube_containment();
    return r;
}

bool Cover::contains_cube(const Cube& c) const {
    if (c.is_empty()) return true;
    return cofactor(c).is_tautology();
}

void Cover::remove_single_cube_containment() {
    std::vector<Cube> kept;
    for (std::size_t i = 0; i < cubes_.size(); ++i) {
        bool contained = false;
        for (std::size_t j = 0; j < cubes_.size() && !contained; ++j) {
            if (i == j) continue;
            if (cubes_[j].contains(cubes_[i])) {
                // Break ties (equal cubes) by keeping the first.
                contained = !(cubes_[i].contains(cubes_[j]) && i < j);
            }
        }
        if (!contained) kept.push_back(cubes_[i]);
    }
    cubes_ = std::move(kept);
}

TruthTable Cover::to_truth_table() const {
    if (num_vars_ > 16) {
        throw std::invalid_argument("Cover::to_truth_table: too many variables");
    }
    TruthTable tt(num_vars_);
    for (std::uint64_t m = 0; m < tt.num_minterms_space(); ++m) {
        tt.set_bit(m, covers_minterm(m));
    }
    return tt;
}

Cover Cover::from_truth_table(const TruthTable& tt) {
    Cover r(tt.num_vars());
    for (std::uint64_t m = 0; m < tt.num_minterms_space(); ++m) {
        if (!tt.bit(m)) continue;
        Cube c(tt.num_vars());
        for (int v = 0; v < tt.num_vars(); ++v) {
            c.set(v, (m >> v) & 1 ? Literal::Pos : Literal::Neg);
        }
        r.cubes_.push_back(std::move(c));
    }
    return r;
}

}  // namespace janus
