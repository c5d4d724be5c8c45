#include "janus/logic/espresso.hpp"

#include <algorithm>
#include <cassert>

namespace janus {
namespace {

/// True if `c` intersects any cube of `off`.
bool hits_offset(const Cube& c, const Cover& off) {
    for (const Cube& o : off.cubes()) {
        if (c.intersects(o)) return true;
    }
    return false;
}

/// Expands one cube to a prime against the OFF-set. Literals are raised
/// greedily; the order prefers variables blocked by the fewest OFF cubes
/// (the classic "column count" heuristic simplified).
Cube expand_cube(Cube c, const Cover& off) {
    const int n = c.num_vars();
    // Count, per variable, how many off-cubes conflict only through it.
    std::vector<int> order;
    for (int v = 0; v < n; ++v) {
        if (c.get(v) == Literal::Pos || c.get(v) == Literal::Neg) order.push_back(v);
    }
    std::vector<int> blockers(static_cast<std::size_t>(n), 0);
    for (int v : order) {
        Cube raised = c;
        raised.set(v, Literal::DC);
        for (const Cube& o : off.cubes()) {
            if (raised.intersects(o)) ++blockers[static_cast<std::size_t>(v)];
        }
    }
    std::sort(order.begin(), order.end(), [&](int a, int b) {
        return blockers[static_cast<std::size_t>(a)] < blockers[static_cast<std::size_t>(b)];
    });
    bool changed = true;
    while (changed) {
        changed = false;
        for (int v : order) {
            if (c.get(v) == Literal::DC) continue;
            Cube raised = c;
            raised.set(v, Literal::DC);
            if (!hits_offset(raised, off)) {
                c = raised;
                changed = true;
            }
        }
    }
    return c;
}

int cost(const Cover& c) {
    return static_cast<int>(c.size()) * 1000 + c.num_literals();
}

}  // namespace

Cover expand(const Cover& onset, const Cover& offset) {
    Cover out(onset.num_vars());
    for (const Cube& c : onset.cubes()) {
        out.add(expand_cube(c, offset));
    }
    out.remove_single_cube_containment();
    return out;
}

Cover irredundant(const Cover& cover, const Cover& dcset) {
    // Greedy: try to drop cubes one at a time, largest literal count
    // first (most specific cubes are most likely redundant).
    std::vector<Cube> cubes = cover.cubes();
    std::sort(cubes.begin(), cubes.end(), [](const Cube& a, const Cube& b) {
        return a.num_literals() > b.num_literals();
    });
    std::vector<bool> removed(cubes.size(), false);
    for (std::size_t i = 0; i < cubes.size(); ++i) {
        Cover rest(cover.num_vars());
        for (std::size_t j = 0; j < cubes.size(); ++j) {
            if (j != i && !removed[j]) rest.add(cubes[j]);
        }
        for (const Cube& d : dcset.cubes()) rest.add(d);
        if (rest.contains_cube(cubes[i])) removed[i] = true;
    }
    Cover out(cover.num_vars());
    for (std::size_t i = 0; i < cubes.size(); ++i) {
        if (!removed[i]) out.add(cubes[i]);
    }
    return out;
}

Cover reduce(const Cover& cover, const Cover& dcset) {
    std::vector<Cube> cubes = cover.cubes();
    for (std::size_t i = 0; i < cubes.size(); ++i) {
        // G = everything except cube i (already-reduced cubes included at
        // their reduced size), plus the DC-set.
        Cover g(cover.num_vars());
        for (std::size_t j = 0; j < cubes.size(); ++j) {
            if (j != i) g.add(cubes[j]);
        }
        for (const Cube& d : dcset.cubes()) g.add(d);
        // Smallest cube covering the part of cube i not covered by G:
        // supercube of complement(G cofactored by cube i), intersected
        // with cube i.
        const Cover comp = g.cofactor(cubes[i]).complement();
        if (comp.empty()) continue;  // cube covered by the rest; IRREDUNDANT drops it
        Cube sc = comp.cubes().front();
        for (const Cube& c : comp.cubes()) sc = sc.supercube(c);
        if (const auto reduced = cubes[i].intersect(sc)) {
            cubes[i] = *reduced;
        }
    }
    return Cover(cover.num_vars(), cubes);
}

EspressoResult espresso(const Cover& onset, const Cover& dcset) {
    constexpr int kMaxIterations = 8;  // REDUCE/EXPAND loop cap
    EspressoResult res;
    res.initial_cubes = static_cast<int>(onset.size());
    res.initial_literals = onset.num_literals();

    // OFF-set = complement(ON + DC).
    Cover on_dc = onset;
    for (const Cube& d : dcset.cubes()) on_dc.add(d);
    const Cover offset = on_dc.complement();

    Cover f = expand(onset, offset);
    f = irredundant(f, dcset);
    int best = cost(f);
    Cover best_cover = f;

    for (int it = 0; it < kMaxIterations; ++it) {
        ++res.iterations;
        f = reduce(f, dcset);
        f = expand(f, offset);
        f = irredundant(f, dcset);
        const int c = cost(f);
        if (c < best) {
            best = c;
            best_cover = f;
        } else {
            break;
        }
    }
    res.cover = best_cover;
    return res;
}

EspressoResult espresso(const Cover& onset) {
    return espresso(onset, Cover(onset.num_vars()));
}

}  // namespace janus
