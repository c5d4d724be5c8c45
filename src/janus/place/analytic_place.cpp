#include "janus/place/analytic_place.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <vector>

#include "janus/place/legalize.hpp"
#include "janus/util/rng.hpp"

namespace janus {
namespace {

/// Collects per-net pin locations; movable instances contribute their
/// current positions.
struct NetPins {
    std::vector<InstId> insts;
    std::vector<Point> fixed;  // pads
};

std::vector<NetPins> collect_pins(const Netlist& nl, const PlacementArea& area) {
    std::vector<NetPins> pins(nl.num_nets());
    const std::size_t n_in = nl.primary_inputs().size();
    const std::size_t n_out = nl.primary_outputs().size();
    std::size_t k = 0;
    for (const NetId pi : nl.primary_inputs()) {
        pins[pi].fixed.push_back(input_pad_position(area.die, k++, n_in));
    }
    k = 0;
    for (const auto& [name, net] : nl.primary_outputs()) {
        (void)name;
        pins[net].fixed.push_back(output_pad_position(area.die, k++, n_out));
    }
    for (InstId i = 0; i < nl.num_instances(); ++i) {
        const Instance& inst = nl.instance(i);
        pins[inst.output].insts.push_back(i);
        const int arity = function_arity(nl.type_of(i).function);
        for (int p = 0; p < arity; ++p) {
            const NetId n = inst.fanin[static_cast<std::size_t>(p)];
            if (n != kNoNet) pins[n].insts.push_back(i);
        }
    }
    return pins;
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

    const std::vector<NetPins> pins = collect_pins(nl, area);

    // Star-model Laplacian: one auxiliary variable per (degree >= 2) net,
    // edges of weight 1/degree between the aux node and each pin. Fixed
    // pads enter the right-hand side. Solved exactly (per axis) with
    // conjugate gradients — Gauss-Seidel diffusion is hopeless on long
    // chain/mesh structures.
    const std::size_t num_inst = nl.num_instances();
    struct Edge {
        std::uint32_t a, b;  ///< variable indices (instances, then net aux)
        double w;
    };
    std::vector<Edge> edges;
    std::vector<int> net_var(nl.num_nets(), -1);
    std::size_t num_vars = num_inst;
    std::vector<double> rhs_x, rhs_y, diag;
    rhs_x.assign(num_inst, 0.0);
    rhs_y.assign(num_inst, 0.0);
    for (NetId n = 0; n < nl.num_nets(); ++n) {
        const auto& np = pins[n];
        const std::size_t degree = np.insts.size() + np.fixed.size();
        if (degree < 2) continue;
        const auto aux = static_cast<std::uint32_t>(num_vars++);
        net_var[n] = static_cast<int>(aux);
        rhs_x.push_back(0.0);
        rhs_y.push_back(0.0);
        const double w = 1.0 / static_cast<double>(degree);
        for (const InstId i : np.insts) edges.push_back({i, aux, w});
        for (const Point& p : np.fixed) {
            // Fixed pin: contributes to the aux equation only.
            rhs_x[aux] += w * static_cast<double>(p.x);
            rhs_y[aux] += w * static_cast<double>(p.y);
        }
    }
    diag.assign(num_vars, 0.0);
    for (const Edge& e : edges) {
        diag[e.a] += e.w;
        diag[e.b] += e.w;
    }
    for (NetId n = 0; n < nl.num_nets(); ++n) {
        if (net_var[n] < 0) continue;
        // Fixed pads contribute weight to the aux node's diagonal (their
        // positions are on the RHS above).
        const double w = 1.0 / static_cast<double>(pins[n].insts.size() +
                                                   pins[n].fixed.size());
        diag[static_cast<std::size_t>(net_var[n])] +=
            w * static_cast<double>(pins[n].fixed.size());
    }

    std::vector<double> sol_x(num_vars, 0.0), sol_y(num_vars, 0.0);
    for (InstId i = 0; i < num_inst; ++i) {
        sol_x[i] = static_cast<double>(nl.instance(i).position.x);
        sol_y[i] = static_cast<double>(nl.instance(i).position.y);
    }

    // SimPL-style alternation: quadratic solve, bisection spreading, then
    // re-solve with anchors at the spread locations.
    std::vector<Point> anchor;
    const auto solve = [&](int iterations, double anchor_weight) {
        // Per-axis preconditioned CG on (L + anchor) x = rhs (+ anchors).
        const auto cg = [&](std::vector<double>& x, const std::vector<double>& rhs0,
                            bool axis_x) {
            std::vector<double> rhs = rhs0;
            std::vector<double> dg = diag;
            if (anchor_weight > 0 && !anchor.empty()) {
                for (std::size_t i = 0; i < num_inst; ++i) {
                    dg[i] += anchor_weight;
                    rhs[i] += anchor_weight *
                              static_cast<double>(axis_x ? anchor[i].x : anchor[i].y);
                }
            }
            // Guard floating variables (no nets): pin to their position.
            for (std::size_t i = 0; i < num_vars; ++i) {
                if (dg[i] <= 0) {
                    dg[i] = 1.0;
                    rhs[i] = x[i];
                }
            }
            const auto matvec = [&](const std::vector<double>& v,
                                    std::vector<double>& out) {
                for (std::size_t i = 0; i < num_vars; ++i) out[i] = dg[i] * v[i];
                for (const Edge& e : edges) {
                    out[e.a] -= e.w * v[e.b];
                    out[e.b] -= e.w * v[e.a];
                }
            };
            std::vector<double> r(num_vars), p(num_vars), ap(num_vars), z(num_vars);
            matvec(x, r);
            for (std::size_t i = 0; i < num_vars; ++i) r[i] = rhs[i] - r[i];
            for (std::size_t i = 0; i < num_vars; ++i) z[i] = r[i] / dg[i];
            p = z;
            double rz = 0;
            for (std::size_t i = 0; i < num_vars; ++i) rz += r[i] * z[i];
            for (int it = 0; it < iterations && rz > 1e-3; ++it) {
                matvec(p, ap);
                double pap = 0;
                for (std::size_t i = 0; i < num_vars; ++i) pap += p[i] * ap[i];
                if (pap <= 0) break;
                const double alpha = rz / pap;
                for (std::size_t i = 0; i < num_vars; ++i) {
                    x[i] += alpha * p[i];
                    r[i] -= alpha * ap[i];
                }
                double rz_new = 0;
                for (std::size_t i = 0; i < num_vars; ++i) {
                    z[i] = r[i] / dg[i];
                    rz_new += r[i] * z[i];
                }
                const double beta = rz_new / rz;
                rz = rz_new;
                for (std::size_t i = 0; i < num_vars; ++i) p[i] = z[i] + beta * p[i];
            }
        };
        cg(sol_x, rhs_x, true);
        cg(sol_y, rhs_y, false);
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
    solve(opts.solver_iterations, 0.0);
    for (int round = 0; round < rounds; ++round) {
        spread();
        anchor.resize(nl.num_instances());
        for (InstId i = 0; i < nl.num_instances(); ++i) {
            anchor[i] = nl.instance(i).position;
        }
        // Anchor weight grows per round, freezing the layout progressively.
        solve(std::max(5, opts.solver_iterations / 4),
              0.4 * static_cast<double>(round + 1));
    }
    spread();

    PlaceQuality q;
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
    const std::vector<NetPins> pins = collect_pins(nl, area);
    double total = 0;
    std::vector<Point> pts;
    for (NetId n = 0; n < nl.num_nets(); ++n) {
        const auto& np = pins[n];
        if (np.insts.size() + np.fixed.size() < 2) continue;
        pts.clear();
        for (const InstId i : np.insts) pts.push_back(nl.instance(i).position);
        for (const Point& p : np.fixed) pts.push_back(p);
        total += static_cast<double>(hpwl(pts)) * 1e-3;  // nm -> um
    }
    return total;
}

}  // namespace janus
