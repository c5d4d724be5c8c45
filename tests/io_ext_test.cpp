#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "janus/netlist/generator.hpp"
#include "janus/netlist/io.hpp"
#include "janus/place/analytic_place.hpp"
#include "janus/place/legalize.hpp"

namespace janus {
namespace {

std::shared_ptr<const CellLibrary> lib28() {
    static const auto lib = std::make_shared<const CellLibrary>(
        make_default_library(*find_node("28nm")));
    return lib;
}

// --------------------------------------------------------------- placement

TEST(PlacementIo, RoundTripExact) {
    GeneratorConfig cfg;
    cfg.num_gates = 200;
    Netlist nl = generate_random(lib28(), cfg);
    const PlacementArea area = make_placement_area(nl, *find_node("28nm"));
    analytic_place(nl, area);
    legalize(nl, area);

    std::ostringstream out;
    write_placement(out, nl);

    // Fresh copy of the same design: apply the saved placement.
    Netlist fresh = generate_random(lib28(), cfg);
    std::istringstream in(out.str());
    const std::size_t placed = read_placement(in, fresh);
    EXPECT_EQ(placed, nl.num_instances());
    for (InstId i = 0; i < nl.num_instances(); ++i) {
        EXPECT_EQ(fresh.instance(i).position, nl.instance(i).position) << i;
        EXPECT_TRUE(fresh.instance(i).placed);
    }
    EXPECT_TRUE(is_legal(fresh, area));
}

TEST(PlacementIo, UnknownInstanceThrows) {
    Netlist nl(lib28(), "t");
    const NetId a = nl.add_primary_input("a");
    nl.add_instance("g", *nl.library().find("INV_X1"), {a});
    std::istringstream in("place nonexistent 5 5\n");
    EXPECT_THROW(read_placement(in, nl), std::runtime_error);
}

TEST(PlacementIo, MalformedLineThrows) {
    Netlist nl(lib28(), "t");
    std::istringstream in("place onlyaname\n");
    EXPECT_THROW(read_placement(in, nl), std::runtime_error);
}

TEST(PlacementIo, SkipsUnplacedInstances) {
    Netlist nl(lib28(), "t");
    const NetId a = nl.add_primary_input("a");
    const InstId g0 = nl.add_instance("g0", *nl.library().find("INV_X1"), {a});
    nl.add_instance("g1", *nl.library().find("INV_X1"), {a});
    nl.instance(g0).position = {100, 200};
    nl.instance(g0).placed = true;
    std::ostringstream out;
    write_placement(out, nl);
    EXPECT_NE(out.str().find("g0 100 200"), std::string::npos);
    EXPECT_EQ(out.str().find("g1"), std::string::npos);
}

}  // namespace
}  // namespace janus
