#include "janus/route/clock_tree.hpp"

#include <algorithm>
#include <functional>
#include <limits>

namespace janus {
namespace {

/// Leaves per cluster: flops within one cluster share a final buffer.
constexpr std::size_t kMaxLeafCluster = 8;
/// Buffer insertion delay (ps) charged per tree level.
constexpr double kBufferDelayPs = 12.0;
/// Wire delay per um of clock route (ps), lumped.
constexpr double kWireDelayPsPerUm = 0.05;

Point centroid(const Netlist& nl, const std::vector<InstId>& flops) {
    std::int64_t sx = 0, sy = 0;
    for (const InstId f : flops) {
        sx += nl.instance(f).position.x;
        sy += nl.instance(f).position.y;
    }
    const auto n = static_cast<std::int64_t>(flops.size());
    return {sx / n, sy / n};
}

}  // namespace

ClockTree build_clock_tree(const Netlist& nl) {
    ClockTree tree;
    std::vector<InstId> flops = nl.sequential_instances();
    if (flops.empty()) return tree;

    // Recursive bisection: split the flop set by the wider spatial axis
    // until clusters are small; each recursion level adds a buffer stage.
    std::function<int(std::vector<InstId>, int)> build =
        [&](std::vector<InstId> group, int level) -> int {
        const int id = static_cast<int>(tree.nodes.size());
        tree.nodes.push_back(ClockNode{});
        tree.nodes[static_cast<std::size_t>(id)].tap = centroid(nl, group);
        tree.nodes[static_cast<std::size_t>(id)].level = level;
        tree.levels = std::max(tree.levels, level + 1);

        if (group.size() <= kMaxLeafCluster) {
            tree.nodes[static_cast<std::size_t>(id)].leaves = std::move(group);
            return id;
        }
        Rect bb;
        for (const InstId f : group) {
            bb = bounding_box(bb, Rect{nl.instance(f).position, nl.instance(f).position});
        }
        const bool split_x = bb.width() >= bb.height();
        std::sort(group.begin(), group.end(), [&](InstId a, InstId b) {
            return split_x
                       ? nl.instance(a).position.x < nl.instance(b).position.x
                       : nl.instance(a).position.y < nl.instance(b).position.y;
        });
        const std::size_t half = group.size() / 2;
        const int left =
            build(std::vector<InstId>(group.begin(), group.begin() + static_cast<std::ptrdiff_t>(half)),
                  level + 1);
        const int right =
            build(std::vector<InstId>(group.begin() + static_cast<std::ptrdiff_t>(half), group.end()),
                  level + 1);
        tree.nodes[static_cast<std::size_t>(id)].children = {left, right};
        return id;
    };
    build(std::move(flops), 0);

    // Wirelength + insertion delays: walk the tree accumulating the
    // Manhattan route from each node to its children/leaves.
    tree.max_insertion_delay_ps = 0;
    tree.min_insertion_delay_ps = std::numeric_limits<double>::infinity();
    std::function<void(int, double)> walk = [&](int id, double delay) {
        const ClockNode& n = tree.nodes[static_cast<std::size_t>(id)];
        const double node_delay = delay + kBufferDelayPs;
        ++tree.buffers;
        for (const int c : n.children) {
            const double wl_um =
                static_cast<double>(manhattan(n.tap, tree.nodes[static_cast<std::size_t>(c)].tap)) * 1e-3;
            tree.total_wirelength_um += wl_um;
            walk(c, node_delay + wl_um * kWireDelayPsPerUm);
        }
        for (const InstId f : n.leaves) {
            const double wl_um =
                static_cast<double>(manhattan(n.tap, nl.instance(f).position)) * 1e-3;
            tree.total_wirelength_um += wl_um;
            const double d = node_delay + wl_um * kWireDelayPsPerUm;
            tree.max_insertion_delay_ps = std::max(tree.max_insertion_delay_ps, d);
            tree.min_insertion_delay_ps = std::min(tree.min_insertion_delay_ps, d);
        }
    };
    walk(0, 0.0);
    if (tree.min_insertion_delay_ps == std::numeric_limits<double>::infinity()) {
        tree.min_insertion_delay_ps = 0;
    }
    return tree;
}

double clock_tree_power_mw(const ClockTree& tree, const TechnologyNode& node,
                           double frequency_mhz) {
    // Clock toggles twice per cycle; alpha = 1 on wires and buffers.
    const double wire_cap_f = tree.total_wirelength_um * 0.2e-15;  // 0.2 fF/um
    const double buf_cap_f =
        static_cast<double>(tree.buffers) * node.gate_cap_ff * 4.0 * 1e-15;
    const double v2 = node.vdd * node.vdd;
    return (wire_cap_f + buf_cap_f) * v2 * frequency_mhz * 1e6 * 1e3;
}

}  // namespace janus
