#pragma once
/// \file line_search.hpp
/// Mikami-Tabuchi line-search routing: escape lines are drawn from both
/// terminals and extended level by level until the two line sets meet.
/// Complete (finds a path whenever one exists) but touches far fewer
/// cells than maze search on sparsely blocked grids — the "more efficient
/// line-search routing algorithms" panelist Domic credits with enabling
/// layer reduction at 28 nm and above (E3).

#include <optional>

#include "janus/route/grid_graph.hpp"
#include "janus/route/maze_router.hpp"

namespace janus {

/// Routes src -> dst with line probes; nullopt when no path exists within
/// the level budget. Edges at or beyond capacity block line extension.
std::optional<GridRoute> line_search_route(const GridGraph& grid, GCell src,
                                           GCell dst,
                                           SearchStats* stats = nullptr);

}  // namespace janus
