#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "janus/netlist/generator.hpp"
#include "janus/place/analytic_place.hpp"
#include "janus/place/legalize.hpp"
#include "janus/power/activity.hpp"
#include "janus/power/decap.hpp"
#include "janus/power/power_grid.hpp"
#include "janus/power/power_intent.hpp"
#include "janus/power/power_model.hpp"
#include "janus/timing/delay_model.hpp"
#include "janus/timing/sta.hpp"
#include "janus/timing/timing_graph.hpp"

namespace janus {
namespace {

std::shared_ptr<const CellLibrary> lib28() {
    static const auto lib = std::make_shared<const CellLibrary>(
        make_default_library(*find_node("28nm")));
    return lib;
}

// --------------------------------------------------------------------- sta

TEST(Sta, ChainDelayAccumulates) {
    // A chain of 8 inverters: arrival grows monotonically along it.
    Netlist nl(lib28(), "chain");
    const auto inv = nl.library().find("INV_X1");
    NetId cur = nl.add_primary_input("a");
    std::vector<NetId> stages{cur};
    for (int i = 0; i < 8; ++i) {
        const InstId g = nl.add_instance("i" + std::to_string(i), *inv, {cur});
        cur = nl.instance(g).output;
        stages.push_back(cur);
    }
    nl.add_primary_output("y", cur);
    const TimingReport r = run_sta(nl);
    TimingGraph tg(nl);
    tg.analyze();
    for (std::size_t i = 1; i < stages.size(); ++i) {
        EXPECT_GT(tg.arrivals()[stages[i]], tg.arrivals()[stages[i - 1]]);
    }
    EXPECT_EQ(r.critical_path.size(), 8u);
    EXPECT_GT(r.critical_delay_ps, 8 * 16.0);  // at least 8 intrinsic delays
    EXPECT_TRUE(r.met());                      // 1 ns default period
}

TEST(Sta, ViolationDetected) {
    Netlist nl(lib28(), "deep");
    const auto inv = nl.library().find("INV_X1");
    NetId cur = nl.add_primary_input("a");
    for (int i = 0; i < 100; ++i) {
        const InstId g = nl.add_instance("i" + std::to_string(i), *inv, {cur});
        cur = nl.instance(g).output;
    }
    nl.add_primary_output("y", cur);
    StaOptions opts;
    opts.clock_period_ps = 500.0;
    const TimingReport r = run_sta(nl, opts);
    EXPECT_FALSE(r.met());
    EXPECT_LT(r.wns_ps, 0.0);
    EXPECT_LE(r.tns_ps, r.wns_ps);
}

TEST(Sta, SequentialPathsUseSetupAndClkToQ) {
    // PI -> inv -> DFF -> inv -> PO; flop D path requires period - setup.
    Netlist nl(lib28(), "seq");
    const auto inv = nl.library().find("INV_X1");
    const auto dff = nl.library().find("DFF_X1");
    const NetId a = nl.add_primary_input("a");
    const InstId g1 = nl.add_instance("g1", *inv, {a});
    const InstId f = nl.add_instance("f", *dff, {nl.instance(g1).output});
    const InstId g2 = nl.add_instance("g2", *inv, {nl.instance(f).output});
    nl.add_primary_output("y", nl.instance(g2).output);

    StaOptions opts;
    opts.clk_to_q_ps = 50.0;
    const TimingReport r = run_sta(nl, opts);
    TimingGraph tg(nl, opts);
    tg.analyze();
    // Q arrival includes clk-to-q.
    EXPECT_GE(tg.arrivals()[nl.instance(f).output], 50.0);
    // D endpoint required is period - setup.
    EXPECT_LE(tg.requireds()[nl.instance(g1).output],
              opts.clock_period_ps - opts.setup_ps);
    EXPECT_TRUE(r.met());
}

TEST(Sta, HigherDriveReducesDelayUnderLoad) {
    // One driver with many sinks: X4 must be faster than X1.
    const auto build = [&](const char* cell) {
        Netlist nl(lib28(), "fanout");
        const NetId a = nl.add_primary_input("a");
        const InstId d = nl.add_instance("drv", *nl.library().find(cell), {a});
        const auto inv = nl.library().find("INV_X1");
        for (int i = 0; i < 12; ++i) {
            const InstId s = nl.add_instance("s" + std::to_string(i), *inv,
                                             {nl.instance(d).output});
            nl.add_primary_output("o" + std::to_string(i), nl.instance(s).output);
        }
        return run_sta(nl).critical_delay_ps;
    };
    EXPECT_LT(build("INV_X4"), build("INV_X1"));
}

TEST(Sta, FormatReportMentionsDesign) {
    const Netlist nl = generate_adder(lib28(), 4);
    const TimingReport r = run_sta(nl);
    const std::string s = format_timing_report(nl, r);
    EXPECT_NE(s.find("adder4"), std::string::npos);
    EXPECT_NE(s.find("critical"), std::string::npos);
}

// ------------------------------------------------------------ delay model

// Verbatim copies of the allocation-based delay model the in-place kernel
// replaced (and of the point-list HPWL it boxed with), their calls
// qualified so argument-dependent lookup cannot pick the library's. The
// library must return the same bits on every net and instance.
namespace reference {

std::int64_t hpwl(const std::vector<Point>& pts) {
    if (pts.empty()) return 0;
    Rect r{pts.front(), pts.front()};
    for (const Point& p : pts) {
        r.lo.x = std::min(r.lo.x, p.x);
        r.lo.y = std::min(r.lo.y, p.y);
        r.hi.x = std::max(r.hi.x, p.x);
        r.hi.y = std::max(r.hi.y, p.y);
    }
    return r.width() + r.height();
}

double estimate_net_length_um(const Netlist& nl, NetId net, const WireModel& wm) {
    // Gather pin positions; fall back to wireload when any pin is unplaced.
    const Net& n = nl.net(net);
    std::vector<Point> pins;
    bool all_placed = true;
    if (n.driver_kind == DriverKind::Instance) {
        const Instance& d = nl.instance(n.driver_inst);
        if (d.placed) {
            pins.push_back(d.position);
        } else {
            all_placed = false;
        }
    }
    for (const SinkRef& s : nl.sinks(net)) {
        const Instance& i = nl.instance(s.inst());
        if (i.placed) {
            pins.push_back(i.position);
        } else {
            all_placed = false;
        }
    }
    if (all_placed && pins.size() >= 2) {
        // Positions are in DBU = nm here; convert to um.
        return static_cast<double>(hpwl(pins)) * 1e-3;
    }
    return wm.um_per_fanout * static_cast<double>(std::max<std::size_t>(1, nl.fanout_count(net)));
}

double net_load_ff(const Netlist& nl, NetId net, const WireModel& wm) {
    double cap = reference::estimate_net_length_um(nl, net, wm) * wm.cap_ff_per_um;
    for (const SinkRef& s : nl.sinks(net)) {
        cap += nl.type_of(s.inst()).input_cap_ff;
    }
    return cap;
}

double instance_delay_ps(const Netlist& nl, InstId inst, const WireModel& wm) {
    const CellType& ct = nl.type_of(inst);
    const NetId out = nl.instance(inst).output;
    const double load = reference::net_load_ff(nl, out, wm);
    const double len = reference::estimate_net_length_um(nl, out, wm);
    const double wire_delay =
        0.5 * (len * wm.res_ohm_per_um) * (len * wm.cap_ff_per_um) * 1e-3;
    return ct.intrinsic_delay_ps + ct.drive_res_kohm * load + wire_delay;
}

}  // namespace reference

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// Every net's length and load and every instance's delay, library against
// reference, compared with memcmp.
void expect_delay_model_matches_reference(const Netlist& nl, const WireModel& wm) {
    for (NetId n = 0; n < nl.num_nets(); ++n) {
        ASSERT_TRUE(same_bits(estimate_net_length_um(nl, n, wm),
                              reference::estimate_net_length_um(nl, n, wm)))
            << "length of net " << n;
        ASSERT_TRUE(same_bits(net_load_ff(nl, n, wm),
                              reference::net_load_ff(nl, n, wm)))
            << "load of net " << n;
    }
    for (InstId i = 0; i < nl.num_instances(); ++i) {
        ASSERT_TRUE(same_bits(instance_delay_ps(nl, i, wm),
                              reference::instance_delay_ps(nl, i, wm)))
            << "delay of instance " << i;
    }
}

TEST(DelayModel, InPlaceKernelMatchesAllocatingFormulasBitForBit) {
    const TechnologyNode node = *find_node("28nm");
    const WireModel wm = WireModel::for_node(node);

    // (a) A placed pipelined mesh with primary I/O: every net of two or
    // more pins takes the HPWL path.
    Netlist mesh = generate_mesh(lib28(), 2000, 5, 2);
    ASSERT_FALSE(mesh.primary_inputs().empty());
    ASSERT_FALSE(mesh.primary_outputs().empty());
    const PlacementArea area = make_placement_area(mesh, node, 0.65);
    analytic_place(mesh, area);
    legalize(mesh, area);
    for (InstId i = 0; i < mesh.num_instances(); ++i) {
        ASSERT_TRUE(mesh.instance(i).placed);
    }
    {
        SCOPED_TRACE("placed mesh");
        expect_delay_model_matches_reference(mesh, wm);
    }

    // (b) The same design with every 7th instance unplaced: the nets that
    // touch one take the wireload fallback through fanout_count().
    for (InstId i = 0; i < mesh.num_instances(); i += 7) {
        mesh.instance(i).placed = false;
    }
    {
        SCOPED_TRACE("partly placed mesh");
        expect_delay_model_matches_reference(mesh, wm);
    }

    // (c) An unplaced random design with primary outputs: wireload only.
    GeneratorConfig cfg;
    cfg.num_gates = 1500;
    cfg.num_flops = 30;
    cfg.num_outputs = 24;
    cfg.seed = 13;
    const Netlist random = generate_random(lib28(), cfg);
    ASSERT_FALSE(random.primary_outputs().empty());
    {
        SCOPED_TRACE("unplaced random");
        expect_delay_model_matches_reference(random, wm);
    }
}

// ---------------------------------------------------------------- activity

TEST(Activity, ProbabilitiesExactForBasicGates) {
    Netlist nl(lib28(), "t");
    const NetId a = nl.add_primary_input("a");
    const NetId b = nl.add_primary_input("b");
    const InstId g_and = nl.add_instance("and", *nl.library().find("AND2_X1"), {a, b});
    const InstId g_or = nl.add_instance("or", *nl.library().find("OR2_X1"), {a, b});
    const InstId g_xor = nl.add_instance("xor", *nl.library().find("XOR2_X1"), {a, b});
    const auto act = estimate_activity(nl);
    EXPECT_NEAR(act.probability[nl.instance(g_and).output], 0.25, 1e-12);
    EXPECT_NEAR(act.probability[nl.instance(g_or).output], 0.75, 1e-12);
    EXPECT_NEAR(act.probability[nl.instance(g_xor).output], 0.5, 1e-12);
}

TEST(Activity, XorPropagatesFullToggle) {
    // XOR flips whenever either input flips: toggle = a_act + b_act.
    Netlist nl(lib28(), "t");
    const NetId a = nl.add_primary_input("a");
    const NetId b = nl.add_primary_input("b");
    const InstId g = nl.add_instance("x", *nl.library().find("XOR2_X1"), {a, b});
    ActivityOptions opts;
    opts.pi_toggle_rate = 0.1;
    const auto act = estimate_activity(nl, opts);
    EXPECT_NEAR(act.toggle_rate[nl.instance(g).output], 0.2, 1e-12);
}

TEST(Activity, AndAttenuatesToggle) {
    Netlist nl(lib28(), "t");
    const NetId a = nl.add_primary_input("a");
    const NetId b = nl.add_primary_input("b");
    const InstId g = nl.add_instance("x", *nl.library().find("AND2_X1"), {a, b});
    ActivityOptions opts;
    opts.pi_toggle_rate = 0.2;
    const auto act = estimate_activity(nl, opts);
    // AND passes a toggle only when the other input is 1 (p = 0.5).
    EXPECT_NEAR(act.toggle_rate[nl.instance(g).output], 0.2, 1e-12);
    EXPECT_LT(act.toggle_rate[nl.instance(g).output], 2 * 0.2);
}

// ------------------------------------------------------------------- power

TEST(Power, ScalesWithFrequencyAndVoltage) {
    const Netlist nl = generate_random(lib28(), {});
    const auto node = *find_node("28nm");
    PowerOptions p1;
    p1.frequency_mhz = 100;
    PowerOptions p2;
    p2.frequency_mhz = 200;
    const auto r1 = estimate_power(nl, node, p1);
    const auto r2 = estimate_power(nl, node, p2);
    EXPECT_NEAR(r2.switching_mw, 2 * r1.switching_mw, 1e-9);
    EXPECT_NEAR(r2.leakage_mw, r1.leakage_mw, 1e-9);  // leakage is static

    PowerOptions pv;
    pv.frequency_mhz = 100;
    pv.vdd_override = node.vdd * 0.8;
    const auto rv = estimate_power(nl, node, pv);
    EXPECT_NEAR(rv.switching_mw, 0.64 * r1.switching_mw, 1e-6);
}

TEST(Power, LeakageGrowsTowardAdvancedNodes) {
    // Same design mapped at 90 nm vs 28 nm: leakage fraction rises — the
    // panel's reason voltage scaling became mandatory at 130/90 nm.
    GeneratorConfig cfg;
    cfg.num_gates = 300;
    const auto lib90 = std::make_shared<const CellLibrary>(
        make_default_library(*find_node("90nm")));
    const Netlist n90 = generate_random(lib90, cfg);
    const Netlist n28 = generate_random(lib28(), cfg);
    const auto r90 = estimate_power(n90, *find_node("90nm"));
    const auto r28 = estimate_power(n28, *find_node("28nm"));
    EXPECT_GT(r28.leakage_mw / r28.total_mw(), r90.leakage_mw / r90.total_mw());
}

// ------------------------------------------------------------ power intent

TEST(PowerIntent, ShutdownDomainSavesLeakage) {
    const Netlist nl = generate_random(lib28(), {});
    const auto node = *find_node("28nm");

    PowerIntent flat(nl, node.vdd);
    const auto base = flat.estimate(nl, node);

    PowerIntent gated(nl, node.vdd);
    PowerDomain d;
    d.name = "SHUT";
    d.voltage = node.vdd;
    d.can_shutdown = true;
    d.on_fraction = 0.1;
    for (InstId i = 0; i < nl.num_instances() / 2; ++i) d.members.push_back(i);
    gated.add_domain(d);
    const auto saved = gated.estimate(nl, node);
    EXPECT_LT(saved.leakage_mw, base.leakage_mw);
    EXPECT_LT(saved.total_mw(), base.total_mw());
}

TEST(PowerIntent, LowVoltageDomainSavesDynamic) {
    const Netlist nl = generate_random(lib28(), {});
    const auto node = *find_node("28nm");
    PowerIntent intent(nl, node.vdd);
    PowerDomain d;
    d.name = "LV";
    d.voltage = node.vdd * 0.7;
    for (InstId i = 0; i < nl.num_instances(); ++i) d.members.push_back(i);
    intent.add_domain(d);
    const auto base = PowerIntent(nl, node.vdd).estimate(nl, node);
    const auto lv = intent.estimate(nl, node);
    EXPECT_NEAR(lv.switching_mw, 0.49 * base.switching_mw,
                0.05 * base.switching_mw);
}

TEST(PowerIntent, CrossingCountsAndDoubleAssignThrows) {
    Netlist nl(lib28(), "x");
    const NetId a = nl.add_primary_input("a");
    const InstId g0 = nl.add_instance("g0", *nl.library().find("INV_X1"), {a});
    const InstId g1 =
        nl.add_instance("g1", *nl.library().find("INV_X1"), {nl.instance(g0).output});
    nl.add_primary_output("y", nl.instance(g1).output);

    PowerIntent intent(nl, 0.95);
    PowerDomain d;
    d.name = "ISO";
    d.voltage = 0.7;
    d.can_shutdown = true;
    d.members = {g0};
    intent.add_domain(d);
    EXPECT_EQ(intent.isolation_cells_needed(nl), 1u);
    EXPECT_EQ(intent.level_shifters_needed(nl), 1u);

    PowerDomain dup;
    dup.name = "DUP";
    dup.voltage = 0.9;
    dup.members = {g0};
    EXPECT_THROW(intent.add_domain(dup), std::invalid_argument);
}

// -------------------------------------------------------------- power grid

TEST(PowerGrid, UniformLoadDroopsInCenter) {
    PowerGrid grid(Rect{0, 0, 100000, 100000}, 0.95);
    for (std::size_t r = 0; r < grid.rows(); ++r) {
        for (std::size_t c = 0; c < grid.cols(); ++c) {
            grid.add_current(c, r, 0.05);
        }
    }
    const auto rep = grid.solve();
    EXPECT_GT(rep.worst_drop_v, 0.0);
    // Center drop exceeds corner drop (pads are on the boundary).
    EXPECT_GT(rep.drop_at(16, 16), rep.drop_at(1, 0));
    EXPECT_LT(rep.worst_drop_v, 0.95);  // sane
}

TEST(PowerGrid, DropScalesWithCurrent) {
    const auto solve_with = [](double ma) {
        PowerGridOptions opts;
        opts.tolerance_v = 1e-10;
        opts.max_iterations = 20000;
        PowerGrid grid(Rect{0, 0, 100000, 100000}, 0.95, opts);
        grid.add_current(16, 16, ma);
        return grid.solve().worst_drop_v;
    };
    const double d1 = solve_with(1.0);
    const double d2 = solve_with(2.0);
    EXPECT_NEAR(d2, 2 * d1, 1e-3 * d2);  // linear network
}

TEST(PowerGrid, LoadCurrentsFromNetlist) {
    Netlist nl(lib28(), "t");
    const NetId a = nl.add_primary_input("a");
    const InstId g = nl.add_instance("g", *nl.library().find("INV_X1"), {a});
    nl.add_primary_output("y", nl.instance(g).output);
    nl.instance(g).position = {50000, 50000};
    nl.instance(g).placed = true;

    PowerGrid grid(Rect{0, 0, 100000, 100000}, 0.95);
    std::vector<double> dyn(nl.num_instances(), 0.95);  // 0.95 mW -> 1 mA
    grid.load_currents(nl, dyn);
    const auto [c, r] = grid.node_of({50000, 50000});
    EXPECT_NEAR(grid.current_at(c, r), 1.0, 1e-9);
}

// ------------------------------------------------------------------- decap

TEST(Decap, RemovesHotspots) {
    PowerGrid grid(Rect{0, 0, 100000, 100000}, 0.95);
    // Strong localized demand in the center: a classic hotspot.
    grid.add_current(15, 15, 120.0);
    grid.add_current(16, 16, 120.0);
    const auto res = insert_decaps(grid);
    EXPECT_FALSE(res.initial_hotspots.empty());
    EXPECT_LT(res.after.worst_drop_v, res.before.worst_drop_v);
    EXPECT_LT(res.remaining_hotspots.size(), res.initial_hotspots.size());
    EXPECT_GT(res.decap_total_pf, 0.0);
}

TEST(Decap, NoHotspotsNoAction) {
    PowerGrid grid(Rect{0, 0, 100000, 100000}, 0.95);
    grid.add_current(10, 10, 0.1);
    const auto res = insert_decaps(grid);
    EXPECT_TRUE(res.initial_hotspots.empty());
    EXPECT_EQ(res.decap_steps_used, 0);
}

}  // namespace
}  // namespace janus
