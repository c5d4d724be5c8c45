#include "janus/place/analytic_place.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <numeric>
#include <span>
#include <vector>

#include "janus/place/legalize.hpp"
#include "janus/util/rng.hpp"

namespace janus {
namespace {

/// Coarsening stops at a level of at most this many variables. Every
/// corpus design and the small background flows stay below it, so their
/// system never coarsens and they place exactly as a single-level solve.
constexpr std::size_t kCoarsestVars = 2000;
/// A matching that leaves more than this share of a level's variables
/// unmerged has stopped shrinking the system; its level is not built.
constexpr double kMaxCoarseRatio = 0.9;
/// PCG iterations on each level finer than the coarsest. The prolonged
/// coarse solution is already right at long range; these iterations only
/// settle the error between neighbouring variables.
constexpr int kLevelIterations = 10;

constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();

/// An off-diagonal pair of a symmetric placement system: variables a and b
/// pulled together with weight w (the matrix holds -w at (a,b) and (b,a)).
struct Edge {
    std::uint32_t a, b;
    double w;
};

/// The quadratic system of one level of the hierarchy: one variable per
/// entry of `diag`, solved per axis.
struct Level {
    std::vector<Edge> edges;  ///< a pair repeats only on the star model
    std::vector<double> diag;
    std::vector<double> rhs_x, rhs_y;
    /// On a coarse level: the aggregate (variable of this level) of each
    /// variable of the next finer level, i.e. the one nonzero of each row
    /// of the piecewise-constant prolongation P. Empty on the finest level.
    std::vector<std::uint32_t> agg;

    std::size_t size() const { return diag.size(); }
};

/// Calls f(inst, net) for every instance pin, instance-id-major with the
/// output first and then the connected fanins in pin order.
template <class F>
void for_each_pin(const Netlist& nl, F&& f) {
    for (InstId i = 0; i < nl.num_instances(); ++i) {
        const Instance& inst = nl.instance(i);
        f(i, inst.output);
        const int arity = function_arity(nl.type_of(i).function);
        for (int p = 0; p < arity; ++p) {
            const NetId n = inst.fanin[static_cast<std::size_t>(p)];
            if (n != kNoNet) f(i, n);
        }
    }
}

/// Star-model Laplacian: one variable per instance, then one auxiliary
/// variable per net of degree >= 2 in net-id order, joined to each of the
/// net's instance pins by an edge of weight 1/degree. Fixed pads enter the
/// aux variable's right-hand side and diagonal; their diagonal share is
/// also returned in `pad`, which coarsening sums per aggregate. The edge
/// list is sized exactly and filled in place, net-major and in pin order
/// within a net, so no per-net pin list is built.
Level star_model(const Netlist& nl, const PlacementArea& area,
                 std::vector<double>& pad) {
    const std::size_t num_nets = nl.num_nets();
    const auto& pis = nl.primary_inputs();
    const auto& pos = nl.primary_outputs();
    std::vector<std::uint32_t> pins(num_nets, 0), pads(num_nets, 0);
    for_each_pin(nl, [&](InstId, NetId n) { ++pins[n]; });
    for (const NetId pi : pis) ++pads[pi];
    for (const auto& [name, net] : pos) {
        (void)name;
        ++pads[net];
    }
    const auto weight = [&](NetId n) {
        return 1.0 / static_cast<double>(pins[n] + pads[n]);
    };

    // Aux variables and each net's first edge, which becomes its fill cursor.
    std::vector<std::uint32_t> aux(num_nets, kNone), cursor(num_nets, 0);
    std::size_t num_vars = nl.num_instances(), num_edges = 0;
    for (NetId n = 0; n < num_nets; ++n) {
        if (pins[n] + pads[n] < 2) continue;
        aux[n] = static_cast<std::uint32_t>(num_vars++);
        cursor[n] = static_cast<std::uint32_t>(num_edges);
        num_edges += pins[n];
    }
    Level lv;
    lv.edges.resize(num_edges);
    for_each_pin(nl, [&](InstId i, NetId n) {
        if (aux[n] != kNone) lv.edges[cursor[n]++] = {i, aux[n], weight(n)};
    });

    lv.rhs_x.assign(num_vars, 0.0);
    lv.rhs_y.assign(num_vars, 0.0);
    const auto add_pad = [&](NetId n, const Point& p) {
        if (aux[n] == kNone) return;
        lv.rhs_x[aux[n]] += weight(n) * static_cast<double>(p.x);
        lv.rhs_y[aux[n]] += weight(n) * static_cast<double>(p.y);
    };
    for (std::size_t k = 0; k < pis.size(); ++k) {
        add_pad(pis[k], input_pad_position(area.die, k, pis.size()));
    }
    for (std::size_t k = 0; k < pos.size(); ++k) {
        add_pad(pos[k].second, output_pad_position(area.die, k, pos.size()));
    }

    lv.diag.assign(num_vars, 0.0);
    for (const Edge& e : lv.edges) {
        lv.diag[e.a] += e.w;
        lv.diag[e.b] += e.w;
    }
    pad.assign(num_vars, 0.0);
    for (NetId n = 0; n < num_nets; ++n) {
        if (aux[n] == kNone) continue;
        pad[aux[n]] = weight(n) * static_cast<double>(pads[n]);
        lv.diag[aux[n]] += pad[aux[n]];
    }
    return lv;
}

/// Builds the next coarser level of `fine`, or returns false when the
/// matching would not shrink it below kMaxCoarseRatio of its size.
///
/// Heavy-edge matching in variable-id order: each unmatched variable pairs
/// with the unmatched neighbour across its heaviest edge (the first such
/// edge on ties) or stays alone. The coarse system is the Galerkin product
/// PᵀAP with piecewise-constant P: an aggregate's edges to another
/// aggregate merge into one, edges inside it vanish, and its diagonal is
/// its outside edge weight plus its members' `pad`, so an aggregate that
/// nothing outside holds has a diagonal of exactly zero. `pad` becomes the
/// coarse level's. Every loop runs in variable-id order, so the hierarchy
/// is a pure function of the fine system.
bool coarsen(const Level& fine, std::vector<double>& pad, Level& coarse) {
    const std::size_t n = fine.size();
    // Edge ids incident to each variable (CSR over `first`), in edge order.
    // Freed when this level is built.
    std::vector<std::uint32_t> first(n + 1, 0), adj(2 * fine.edges.size());
    for (const Edge& e : fine.edges) {
        ++first[e.a + 1];
        ++first[e.b + 1];
    }
    std::partial_sum(first.begin(), first.end(), first.begin());
    for (std::uint32_t k = 0; k < fine.edges.size(); ++k) {
        adj[first[fine.edges[k].a]++] = k;
        adj[first[fine.edges[k].b]++] = k;
    }
    std::copy_backward(first.begin(), first.end() - 1, first.end());
    first[0] = 0;
    const auto other = [&](std::uint32_t k, std::uint32_t v) {
        return fine.edges[k].a == v ? fine.edges[k].b : fine.edges[k].a;
    };

    std::vector<std::uint32_t> agg(n, kNone), mate(n, kNone);
    std::uint32_t nc = 0;
    for (std::uint32_t v = 0; v < n; ++v) {
        if (agg[v] != kNone) continue;
        double best_w = 0;
        for (std::uint32_t j = first[v]; j < first[v + 1]; ++j) {
            const std::uint32_t u = other(adj[j], v);
            if (agg[u] == kNone && fine.edges[adj[j]].w > best_w) {
                best_w = fine.edges[adj[j]].w;
                mate[v] = u;
            }
        }
        agg[v] = nc;
        if (mate[v] != kNone) agg[mate[v]] = nc;
        ++nc;
    }
    if (static_cast<double>(nc) > kMaxCoarseRatio * static_cast<double>(n)) {
        return false;
    }

    // Coarse edges, aggregate by aggregate (the leader, which opened the
    // aggregate, then its mate): each edge to a later aggregate cj merges
    // into the one coarse edge (ci, cj), found through slot[cj].
    std::vector<std::uint32_t> slot(nc, kNone);
    coarse.edges.reserve(fine.edges.size());
    for (std::uint32_t v = 0, ci = 0; v < n; ++v) {
        if (agg[v] != ci) continue;  // not a leader
        for (const std::uint32_t m : {v, mate[v]}) {
            if (m == kNone) continue;
            for (std::uint32_t j = first[m]; j < first[m + 1]; ++j) {
                const std::uint32_t cj = agg[other(adj[j], m)];
                if (cj <= ci) continue;  // inside ci, or merged from cj's side
                if (slot[cj] == kNone || coarse.edges[slot[cj]].a != ci) {
                    slot[cj] = static_cast<std::uint32_t>(coarse.edges.size());
                    coarse.edges.push_back({ci, cj, 0.0});
                }
                coarse.edges[slot[cj]].w += fine.edges[adj[j]].w;
            }
        }
        ++ci;
    }
    coarse.edges.shrink_to_fit();

    coarse.diag.assign(nc, 0.0);
    for (const Edge& e : coarse.edges) {
        coarse.diag[e.a] += e.w;
        coarse.diag[e.b] += e.w;
    }
    std::vector<double> coarse_pad(nc, 0.0);
    coarse.rhs_x.assign(nc, 0.0);
    coarse.rhs_y.assign(nc, 0.0);
    for (std::uint32_t v = 0; v < n; ++v) {
        coarse_pad[agg[v]] += pad[v];
        coarse.rhs_x[agg[v]] += fine.rhs_x[v];
        coarse.rhs_y[agg[v]] += fine.rhs_y[v];
    }
    for (std::uint32_t c = 0; c < nc; ++c) coarse.diag[c] += coarse_pad[c];
    pad = std::move(coarse_pad);
    coarse.agg = std::move(agg);
    return true;
}

/// The coarse levels over `fine`, finest first: coarsens until a level has
/// at most kCoarsestVars variables or stops shrinking. Empty for a system
/// that small already.
std::vector<Level> coarsen_all(const Level& fine, std::vector<double> pad) {
    std::vector<Level> coarse;
    for (const Level* lv = &fine; lv->size() > kCoarsestVars; lv = &coarse.back()) {
        Level next;
        if (!coarsen(*lv, pad, next)) break;
        coarse.push_back(std::move(next));
    }
    return coarse;
}

/// Scratch of the PCG solver, sized for the finest level once per
/// analytic_place call and shared by every level, axis and solve.
struct PcgWork {
    std::vector<double> dg, r, p, ap, z;
    explicit PcgWork(std::size_t n) : dg(n), r(n), p(n), ap(n), z(n) {}
};

/// Jacobi-preconditioned conjugate gradients on one axis of `lv`, from the
/// current `x`. Each instance variable (the first anchor.size()) is also
/// pulled toward its anchor with `anchor_weight`. A variable with nothing
/// on its diagonal (an instance on no net) stays where it is. Runs at most
/// `iterations` iterations and stops once r·z <= 1e-3; returns how many ran.
int pcg(const Level& lv, bool axis_x, std::vector<double>& x, int iterations,
        PcgWork& work, double anchor_weight = 0, std::span<const Point> anchor = {}) {
    const std::size_t n = lv.size();
    const std::vector<double>& rhs = axis_x ? lv.rhs_x : lv.rhs_y;
    std::vector<double>& dg = work.dg;
    std::vector<double>& r = work.r;
    std::vector<double>& p = work.p;
    std::vector<double>& ap = work.ap;
    std::vector<double>& z = work.z;
    const auto matvec = [&](const std::vector<double>& v, std::vector<double>& out) {
        for (std::size_t i = 0; i < n; ++i) out[i] = dg[i] * v[i];
        for (const Edge& e : lv.edges) {
            out[e.a] -= e.w * v[e.b];
            out[e.b] -= e.w * v[e.a];
        }
    };
    // r starts as the right-hand side, anchors included.
    for (std::size_t i = 0; i < n; ++i) {
        dg[i] = lv.diag[i];
        r[i] = rhs[i];
        if (i < anchor.size()) {
            dg[i] += anchor_weight;
            r[i] += anchor_weight *
                    static_cast<double>(axis_x ? anchor[i].x : anchor[i].y);
        }
        if (dg[i] <= 0) {
            dg[i] = 1.0;
            r[i] = x[i];
        }
    }
    matvec(x, ap);
    for (std::size_t i = 0; i < n; ++i) r[i] -= ap[i];
    for (std::size_t i = 0; i < n; ++i) z[i] = r[i] / dg[i];
    std::copy_n(z.begin(), n, p.begin());
    double rz = 0;
    for (std::size_t i = 0; i < n; ++i) rz += r[i] * z[i];
    int it = 0;
    for (; it < iterations && rz > 1e-3; ++it) {
        matvec(p, ap);
        double pap = 0;
        for (std::size_t i = 0; i < n; ++i) pap += p[i] * ap[i];
        if (pap <= 0) break;
        const double alpha = rz / pap;
        for (std::size_t i = 0; i < n; ++i) {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
        }
        double rz_new = 0;
        for (std::size_t i = 0; i < n; ++i) {
            z[i] = r[i] / dg[i];
            rz_new += r[i] * z[i];
        }
        const double beta = rz_new / rz;
        rz = rz_new;
        for (std::size_t i = 0; i < n; ++i) p[i] = z[i] + beta * p[i];
    }
    return it;
}

/// Unanchored solve of one axis by nested iteration: restricts `x` onto
/// the coarsest level (the mean over each aggregate), runs PCG there for
/// at most `iterations`, then prolongs level by level and runs
/// kLevelIterations of PCG on each finer one. With no coarse level this is
/// one PCG of at most `iterations` on the star model. Returns the finest
/// level's iterations.
int solve_nested(const Level& fine, const std::vector<Level>& coarse, bool axis_x,
                 std::vector<double>& x, int iterations, PcgWork& work) {
    std::vector<std::vector<double>> coarse_x(coarse.size());
    for (std::size_t l = 0; l < coarse.size(); ++l) coarse_x[l].resize(coarse[l].size());
    const auto level = [&](std::size_t l) -> const Level& {
        return l == 0 ? fine : coarse[l - 1];
    };
    const auto iterate = [&](std::size_t l) -> std::vector<double>& {
        return l == 0 ? x : coarse_x[l - 1];
    };
    const std::size_t top = coarse.size();
    for (std::size_t l = 1; l <= top; ++l) {
        // Aggregates open in leader order, so a variable whose aggregate is
        // the next unopened one is a leader; otherwise it is the mate.
        const std::vector<std::uint32_t>& agg = level(l).agg;
        const std::vector<double>& from = iterate(l - 1);
        std::vector<double>& to = iterate(l);
        std::uint32_t next = 0;
        for (std::size_t v = 0; v < from.size(); ++v) {
            const std::uint32_t c = agg[v];
            to[c] = c == next ? from[v] : 0.5 * (to[c] + from[v]);
            if (c == next) ++next;
        }
    }
    int run = pcg(level(top), axis_x, iterate(top), iterations, work);
    for (std::size_t l = top; l-- > 0;) {
        const std::vector<std::uint32_t>& agg = level(l + 1).agg;
        const std::vector<double>& from = iterate(l + 1);
        std::vector<double>& to = iterate(l);
        for (std::size_t v = 0; v < to.size(); ++v) to[v] = from[agg[v]];
        run = pcg(level(l), axis_x, to, kLevelIterations, work);
    }
    return run;
}

}  // namespace

PlacementArea make_placement_area(const Netlist& nl, const TechnologyNode& node,
                                  double utilization) {
    PlacementArea a;
    a.row_height = static_cast<std::int64_t>(node.track_um * 8 * 1000);  // nm
    a.site_width = std::max<std::int64_t>(1, static_cast<std::int64_t>(node.track_um * 1000));
    // Die is sized from legalized footprints (site-quantized width x row
    // height), not raw cell area, so the row capacity actually fits the
    // design at the requested utilization.
    double footprint_nm2 = 0;
    for (InstId i = 0; i < nl.num_instances(); ++i) {
        footprint_nm2 += static_cast<double>(cell_width_nm(nl, i, a)) *
                         static_cast<double>(a.row_height);
    }
    const double die_nm2 = footprint_nm2 / std::max(0.05, utilization);
    const auto side = static_cast<std::int64_t>(std::sqrt(std::max(1.0, die_nm2)));
    a.num_rows = std::max(2, static_cast<int>(side / a.row_height) + 1);
    a.die = Rect{0, 0, std::max(side, static_cast<std::int64_t>(2) * a.row_height),
                 static_cast<std::int64_t>(a.num_rows) * a.row_height};
    return a;
}

PlaceQuality analytic_place(Netlist& nl, const PlacementArea& area,
                            const AnalyticPlaceOptions& opts) {
    const auto t0 = std::chrono::steady_clock::now();
    Rng rng(opts.seed);

    // Random initial spread.
    for (InstId i = 0; i < nl.num_instances(); ++i) {
        Instance& inst = nl.instance(i);
        inst.position = {rng.next_in(area.die.lo.x, area.die.hi.x),
                         rng.next_in(area.die.lo.y, area.die.hi.y)};
        inst.placed = true;
    }

    // The star-model system is solved per axis with conjugate gradients —
    // Gauss-Seidel diffusion is hopeless on long chain/mesh structures —
    // and, on large designs, coarse to fine over an aggregation hierarchy
    // built from it once for both axes.
    const std::size_t num_inst = nl.num_instances();
    std::vector<double> pad;
    const Level fine = star_model(nl, area, pad);
    std::vector<Level> coarse = coarsen_all(fine, std::move(pad));

    const std::size_t num_vars = fine.size();
    std::vector<double> sol_x(num_vars, 0.0), sol_y(num_vars, 0.0);
    for (InstId i = 0; i < num_inst; ++i) {
        sol_x[i] = static_cast<double>(nl.instance(i).position.x);
        sol_y[i] = static_cast<double>(nl.instance(i).position.y);
    }
    PcgWork work(num_vars);

    PlaceQuality q;
    q.levels = static_cast<int>(coarse.size()) + 1;
    // SimPL-style alternation: quadratic solve, bisection spreading, then
    // re-solve with anchors at the spread locations. Anchored re-solves run
    // on the star model alone, warm-started from the previous solution.
    std::vector<Point> anchor;
    const auto solve = [&](double anchor_weight) {
        if (anchor_weight > 0) {
            const int cap = std::max(5, opts.solver_iterations / 4);
            q.fine_iterations += pcg(fine, true, sol_x, cap, work, anchor_weight, anchor);
            q.fine_iterations += pcg(fine, false, sol_y, cap, work, anchor_weight, anchor);
        } else {
            q.fine_iterations +=
                solve_nested(fine, coarse, true, sol_x, opts.solver_iterations, work);
            q.fine_iterations +=
                solve_nested(fine, coarse, false, sol_y, opts.solver_iterations, work);
        }
        for (InstId i = 0; i < num_inst; ++i) {
            Instance& inst = nl.instance(i);
            inst.position.x = std::clamp(static_cast<std::int64_t>(sol_x[i]),
                                         area.die.lo.x, area.die.hi.x);
            inst.position.y = std::clamp(static_cast<std::int64_t>(sol_y[i]),
                                         area.die.lo.y, area.die.hi.y);
        }
    };

    // Spreading by recursive median bisection: cells keep their solved
    // relative order while being distributed uniformly over the die. This
    // preserves the quadratic solution's structure (unlike density
    // nudging, which scatters neighborhoods).
    const auto spread = [&] {
        std::vector<InstId> all(nl.num_instances());
        for (InstId i = 0; i < nl.num_instances(); ++i) all[i] = i;
        struct Region {
            std::size_t begin, end;  // range in `all`
            Rect rect;
        };
        std::vector<Region> stack{{0, all.size(), area.die}};
        while (!stack.empty()) {
            const Region reg = stack.back();
            stack.pop_back();
            const std::size_t count = reg.end - reg.begin;
            if (count == 0) continue;
            if (count <= 4 || (reg.rect.width() <= area.site_width * 4 &&
                               reg.rect.height() <= area.row_height)) {
                // Leaf: park cells at the region center; legalization
                // assigns exact sites.
                for (std::size_t k = reg.begin; k < reg.end; ++k) {
                    nl.instance(all[k]).position = reg.rect.center();
                }
                continue;
            }
            const bool split_x = reg.rect.width() >= reg.rect.height();
            const auto mid_it = all.begin() + static_cast<std::ptrdiff_t>(
                                                  reg.begin + count / 2);
            std::nth_element(
                all.begin() + static_cast<std::ptrdiff_t>(reg.begin), mid_it,
                all.begin() + static_cast<std::ptrdiff_t>(reg.end),
                [&](InstId a, InstId b) {
                    return split_x
                               ? nl.instance(a).position.x < nl.instance(b).position.x
                               : nl.instance(a).position.y < nl.instance(b).position.y;
                });
            Rect left = reg.rect, right = reg.rect;
            if (split_x) {
                const std::int64_t mid = reg.rect.lo.x + reg.rect.width() / 2;
                left.hi.x = mid;
                right.lo.x = mid;
            } else {
                const std::int64_t mid = reg.rect.lo.y + reg.rect.height() / 2;
                left.hi.y = mid;
                right.lo.y = mid;
            }
            stack.push_back({reg.begin, reg.begin + count / 2, left});
            stack.push_back({reg.begin + count / 2, reg.end, right});
        }
    };

    // Alternating rounds: an initial unanchored solve, then
    // spread / anchored-resolve cycles, ending on a spread (density-legal).
    const int rounds = std::max(1, opts.spreading_iterations / 4);
    solve(0.0);
    // Only the unanchored solve uses the hierarchy.
    std::vector<Level>().swap(coarse);
    for (int round = 0; round < rounds; ++round) {
        spread();
        anchor.resize(nl.num_instances());
        for (InstId i = 0; i < nl.num_instances(); ++i) {
            anchor[i] = nl.instance(i).position;
        }
        // Anchor weight grows per round, freezing the layout progressively.
        solve(0.4 * static_cast<double>(round + 1));
    }
    spread();

    q.hpwl_um = total_hpwl_um(nl, area);
    q.runtime_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
    return q;
}

Point input_pad_position(const Rect& die, std::size_t k, std::size_t n_in) {
    if (n_in == 0) return die.center();
    const double t = (static_cast<double>(k) + 0.5) / static_cast<double>(n_in);
    return {die.lo.x,
            die.lo.y + static_cast<std::int64_t>(t * static_cast<double>(die.height()))};
}

Point output_pad_position(const Rect& die, std::size_t k, std::size_t n_out) {
    if (n_out == 0) return die.center();
    const double t = (static_cast<double>(k) + 0.5) / static_cast<double>(n_out);
    return {die.hi.x,
            die.lo.y + static_cast<std::int64_t>(t * static_cast<double>(die.height()))};
}

double total_hpwl_um(const Netlist& nl, const PlacementArea& area) {
    // Walks nets in id order with a cursor over the primary inputs (each
    // creates a fresh net, so their nets ascend) and one over the primary
    // outputs ordered by net.
    const auto& pis = nl.primary_inputs();
    const auto& pos = nl.primary_outputs();
    std::vector<std::uint32_t> po_order(pos.size());
    std::iota(po_order.begin(), po_order.end(), 0u);
    std::sort(po_order.begin(), po_order.end(), [&](std::uint32_t a, std::uint32_t b) {
        return pos[a].second < pos[b].second;
    });
    std::size_t next_pi = 0, next_po = 0;
    double total = 0;
    for (NetId n = 0; n < nl.num_nets(); ++n) {
        std::size_t pins = 0;
        Rect box;
        const auto add = [&](const Point& p) {
            box = pins++ == 0 ? Rect{p, p}
                              : Rect{std::min(box.lo.x, p.x), std::min(box.lo.y, p.y),
                                     std::max(box.hi.x, p.x), std::max(box.hi.y, p.y)};
        };
        const Net& net = nl.net(n);
        if (net.driver_kind == DriverKind::Instance) {
            add(nl.instance(net.driver_inst).position);
        }
        for (const SinkRef& s : nl.sinks(n)) add(nl.instance(s.inst()).position);
        if (next_pi < pis.size() && pis[next_pi] == n) {
            add(input_pad_position(area.die, next_pi++, pis.size()));
        }
        for (; next_po < pos.size() && pos[po_order[next_po]].second == n; ++next_po) {
            add(output_pad_position(area.die, po_order[next_po], pos.size()));
        }
        if (pins >= 2) {
            total += static_cast<double>(box.width() + box.height()) * 1e-3;  // nm -> um
        }
    }
    return total;
}

}  // namespace janus
