#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "janus/util/geometry.hpp"
#include "janus/util/rng.hpp"
#include "janus/util/stats.hpp"
#include "janus/util/thread_pool.hpp"

namespace janus {
namespace {

// ---------------------------------------------------------------- geometry

TEST(Geometry, ManhattanDistance) {
    EXPECT_EQ(manhattan({0, 0}, {3, 4}), 7);
    EXPECT_EQ(manhattan({-2, 5}, {2, -5}), 14);
    EXPECT_EQ(manhattan({1, 1}, {1, 1}), 0);
}

TEST(Geometry, EmptyRect) {
    Rect r;
    EXPECT_TRUE(r.empty());
    EXPECT_EQ(r.area(), 0);
    EXPECT_FALSE(r.contains({0, 0}));
    EXPECT_FALSE(r.intersects(Rect{0, 0, 10, 10}));
}

TEST(Geometry, RectBasics) {
    Rect r{0, 0, 10, 20};
    EXPECT_FALSE(r.empty());
    EXPECT_EQ(r.width(), 10);
    EXPECT_EQ(r.height(), 20);
    EXPECT_EQ(r.area(), 200);
    EXPECT_EQ(r.center(), (Point{5, 10}));
    EXPECT_TRUE(r.contains({10, 20}));
    EXPECT_FALSE(r.contains({11, 20}));
}

TEST(Geometry, Intersection) {
    const Rect a{0, 0, 10, 10};
    const Rect b{5, 5, 15, 15};
    const Rect i = intersection(a, b);
    EXPECT_EQ(i, (Rect{5, 5, 10, 10}));
    EXPECT_TRUE(intersection(a, Rect{20, 20, 30, 30}).empty());
}

TEST(Geometry, BoundingBoxOfRects) {
    const Rect a{0, 0, 5, 5};
    const Rect b{10, -3, 12, 4};
    EXPECT_EQ(bounding_box(a, b), (Rect{0, -3, 12, 5}));
    EXPECT_EQ(bounding_box(Rect{}, b), b);
    EXPECT_EQ(bounding_box(a, Rect{}), a);
}

TEST(Geometry, RectGap) {
    const Rect a{0, 0, 10, 10};
    EXPECT_EQ(rect_gap(a, Rect{12, 0, 20, 10}), 2);
    EXPECT_EQ(rect_gap(a, Rect{0, 15, 10, 20}), 5);
    EXPECT_EQ(rect_gap(a, Rect{5, 5, 8, 8}), 0);   // overlap
    EXPECT_EQ(rect_gap(a, Rect{10, 10, 20, 20}), 0);  // touching
}

TEST(Geometry, InflatedRect) {
    const Rect a{5, 5, 10, 10};
    EXPECT_EQ(a.inflated(2), (Rect{3, 3, 12, 12}));
    EXPECT_TRUE(a.inflated(-3).empty());
}

// --------------------------------------------------------------------- rng

TEST(Rng, DeterministicAcrossInstances) {
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
    EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowInRange) {
    Rng r(7);
    for (int i = 0; i < 1000; ++i) EXPECT_LT(r.next_below(13), 13u);
}

TEST(Rng, NextInInclusive) {
    Rng r(9);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 2000; ++i) {
        const auto v = r.next_in(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(Rng, DoubleInUnitInterval) {
    Rng r(11);
    for (int i = 0; i < 1000; ++i) {
        const double d = r.next_double();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, GaussianMoments) {
    Rng r(13);
    RunningStats s;
    for (int i = 0; i < 20000; ++i) s.add(r.next_gaussian(5.0, 2.0));
    EXPECT_NEAR(s.mean(), 5.0, 0.1);
    EXPECT_NEAR(s.stddev(), 2.0, 0.1);
}

TEST(Rng, BernoulliEdgeCases) {
    Rng r(17);
    for (int i = 0; i < 50; ++i) {
        EXPECT_FALSE(r.next_bool(0.0));
        EXPECT_TRUE(r.next_bool(1.0));
    }
}

TEST(Rng, ShufflePreservesElements) {
    Rng r(19);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
    auto sorted = v;
    r.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, sorted);
}

// ------------------------------------------------------------------- stats

TEST(Stats, RunningStatsBasics) {
    RunningStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    s.add(2.0);
    s.add(4.0);
    s.add(6.0);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_DOUBLE_EQ(s.mean(), 4.0);
    EXPECT_DOUBLE_EQ(s.variance(), 4.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 6.0);
}

TEST(Stats, VarianceNeedsTwoSamples) {
    RunningStats s;
    s.add(3.0);
    EXPECT_EQ(s.variance(), 0.0);
}

TEST(Stats, Percentile) {
    EXPECT_EQ(percentile({}, 0.5), 0.0);
    EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4, 5}, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4, 5}, 1.0), 5.0);
    EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4, 5}, 0.5), 3.0);
    EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4}, 0.5), 2.5);
}

TEST(Stats, GeometricMean) {
    EXPECT_DOUBLE_EQ(geometric_mean({4.0, 1.0}), 2.0);
    EXPECT_NEAR(geometric_mean({2.0, 8.0}), 4.0, 1e-12);
    EXPECT_EQ(geometric_mean({}), 0.0);
}

// ------------------------------------------------------------- thread pool

// Many back-to-back run_slots calls with trivial bodies: each call's
// completion mutex and condvar live on the caller's stack, so a slot that
// touches them after the caller has returned is a use-after-scope that
// -DJANUS_TSAN=ON / -DJANUS_ASAN=ON builds of this test catch.
TEST(ThreadPool, RunSlotsBackToBackCallsSettleCleanly) {
    ThreadPool pool(4);
    std::atomic<std::size_t> ran{0};
    constexpr std::size_t kCalls = 2000;
    for (std::size_t call = 0; call < kCalls; ++call) {
        pool.run_slots(4, [&ran](std::size_t) {
            ran.fetch_add(1, std::memory_order_relaxed);
        });
    }
    EXPECT_EQ(ran.load(), kCalls * 4);
}

// ------------------------------------------------------------- worker team

TEST(WorkerTeam, ForEachCoversEveryIndexExactlyOnce) {
    for (const int workers : {1, 3, 4}) {
        WorkerTeam team(workers);
        for (const std::size_t grain : {1u, 7u}) {
            for (const std::size_t n : {0u, 1u, 7u, 257u}) {
                SCOPED_TRACE("workers " + std::to_string(workers) + ", grain " +
                             std::to_string(grain) + ", n " + std::to_string(n));
                std::vector<std::atomic<int>> hits(n);
                std::atomic<bool> slot_in_range{true};
                team.for_each(n, [&](std::size_t i, std::size_t slot) {
                    hits[i].fetch_add(1);
                    if (slot >= team.slots()) slot_in_range = false;
                }, grain);
                for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
                EXPECT_TRUE(slot_in_range.load());
            }
        }
    }
}

TEST(WorkerTeam, SerialTeamRunsOnTheCallingThread) {
    for (const int workers : {-1, 0, 1}) {
        WorkerTeam team(workers);
        EXPECT_EQ(team.slots(), 1u);
        std::vector<std::thread::id> ran_on(100);
        team.for_each(ran_on.size(), [&](std::size_t i, std::size_t slot) {
            EXPECT_EQ(slot, 0u);
            ran_on[i] = std::this_thread::get_id();
        }, 3);
        for (const std::thread::id id : ran_on) {
            EXPECT_EQ(id, std::this_thread::get_id());
        }
    }
    EXPECT_EQ(WorkerTeam(4).slots(), 4u);
}

TEST(WorkerTeam, ForEachRethrowsLowestIndexException) {
    for (const int workers : {1, 3, 4}) {
        for (const std::size_t grain : {1u, 7u}) {
            SCOPED_TRACE("workers " + std::to_string(workers) + ", grain " +
                         std::to_string(grain));
            WorkerTeam team(workers);
            try {
                team.for_each(64, [](std::size_t i, std::size_t) {
                    if (i % 7 == 3) {  // lowest failing index is 3
                        throw std::runtime_error("fail@" + std::to_string(i));
                    }
                }, grain);
                ADD_FAILURE() << "expected an exception";
            } catch (const std::runtime_error& e) {
                EXPECT_STREQ(e.what(), "fail@3");
            }
        }
    }
}

}  // namespace
}  // namespace janus
