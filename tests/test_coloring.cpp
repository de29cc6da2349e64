#include <gtest/gtest.h>

#include "core/coloring.hpp"
#include "core/virtual_buffer.hpp"
#include "oracle/coloring.hpp"
#include "util/rng.hpp"

namespace lcmm::core {
namespace {

TensorEntity make_entity(int id, std::int64_t bytes, int def, int last) {
  return {{id, TensorSource::kInput}, bytes, def, last};
}

TEST(Coloring, DisjointIntervalsShareOneBuffer) {
  InterferenceGraph g({make_entity(0, 100, 0, 1), make_entity(1, 80, 2, 3),
                       make_entity(2, 60, 4, 5)});
  const ColoringResult r = color_min_total_size(g);
  EXPECT_TRUE(oracle::coloring_is_valid(g, r));
  EXPECT_EQ(r.num_colors, 1);
  EXPECT_EQ(r.total_bytes, 100);  // buffer sized by the largest member
}

TEST(Coloring, FullyOverlappingNeedsOneColorEach) {
  InterferenceGraph g({make_entity(0, 100, 0, 9), make_entity(1, 80, 0, 9),
                       make_entity(2, 60, 0, 9)});
  const ColoringResult r = color_min_total_size(g);
  EXPECT_TRUE(oracle::coloring_is_valid(g, r));
  EXPECT_EQ(r.num_colors, 3);
  EXPECT_EQ(r.total_bytes, 240);
}

TEST(Coloring, PaperExampleSixTensorsFourBuffers) {
  // Mirrors Fig. 5: 6 feature tensors, two of which (f2, f6) have disjoint
  // lifespans and share; the rest conflict pairwise.
  std::vector<TensorEntity> v = {
      make_entity(1, 200, 0, 3),  // f1
      make_entity(2, 200, 0, 1),  // f2
      make_entity(4, 150, 0, 3),  // f4
      make_entity(6, 100, 2, 2),  // f6 — disjoint from f2
      make_entity(7, 120, 1, 3),  // f7
      make_entity(8, 90, 3, 4),   // f8
  };
  InterferenceGraph g(std::move(v));
  const ColoringResult r = color_min_total_size(g);
  EXPECT_TRUE(oracle::coloring_is_valid(g, r));
  // f2 and f6 share: at most 5 buffers; f8 also only conflicts with f1/f4/f7.
  EXPECT_LE(r.num_colors, 5);
  EXPECT_EQ(r.color_of[1], r.color_of[3]);  // f2 with f6
}

TEST(Coloring, ValidityCheckerCatchesConflicts) {
  InterferenceGraph g({make_entity(0, 10, 0, 5), make_entity(1, 10, 0, 5)});
  ColoringResult bad;
  bad.color_of = {0, 0};
  bad.num_colors = 1;
  EXPECT_FALSE(oracle::coloring_is_valid(g, bad));
  bad.color_of = {0, 7};
  EXPECT_FALSE(oracle::coloring_is_valid(g, bad));  // out-of-range color
  bad.color_of = {0};
  EXPECT_FALSE(oracle::coloring_is_valid(g, bad));  // size mismatch
}

TEST(Coloring, EmptyGraphYieldsNoColors) {
  InterferenceGraph g({});
  const ColoringResult r = color_min_total_size(g);
  EXPECT_EQ(r.num_colors, 0);
  EXPECT_EQ(r.total_bytes, 0);
}

TEST(Coloring, OptimalMatchesGreedyOnEasyCases) {
  InterferenceGraph g({make_entity(0, 100, 0, 1), make_entity(1, 80, 2, 3)});
  const ColoringResult greedy = color_min_total_size(g);
  const ColoringResult opt = oracle::color_optimal_small(g);
  EXPECT_EQ(greedy.total_bytes, opt.total_bytes);
}

TEST(Coloring, GreedyNeverBeatenByMoreThanOptimal) {
  // Random small instances: greedy total size must be >= optimal and both
  // must be valid. (The greedy can be suboptimal; it must never be better.)
  util::Rng rng(1234);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<TensorEntity> v;
    const int n = 2 + static_cast<int>(rng.next_below(7));
    for (int i = 0; i < n; ++i) {
      const int def = static_cast<int>(rng.next_below(6));
      const int len = static_cast<int>(rng.next_below(4));
      v.push_back(make_entity(i, 10 + static_cast<std::int64_t>(rng.next_below(200)),
                              def, def + len));
    }
    InterferenceGraph g(std::move(v));
    const ColoringResult greedy = color_min_total_size(g);
    const ColoringResult opt = oracle::color_optimal_small(g);
    EXPECT_TRUE(oracle::coloring_is_valid(g, greedy));
    EXPECT_TRUE(oracle::coloring_is_valid(g, opt));
    EXPECT_GE(greedy.total_bytes, opt.total_bytes);
    // Greedy heuristic stays within 2x of optimal on these tiny cases.
    EXPECT_LE(greedy.total_bytes, 2 * opt.total_bytes);
  }
}

TEST(Coloring, OptimalRejectsLargeGraphs) {
  std::vector<TensorEntity> v;
  for (int i = 0; i < 20; ++i) v.push_back(make_entity(i, 10, 0, 1));
  InterferenceGraph g(std::move(v));
  EXPECT_THROW(oracle::color_optimal_small(g, 12), std::invalid_argument);
}

TEST(VirtualBuffers, GroupByColorWithMaxSize) {
  InterferenceGraph g({make_entity(0, 100, 0, 1), make_entity(1, 80, 2, 3),
                       make_entity(2, 60, 0, 9)});
  const ColoringResult r = color_min_total_size(g);
  const auto buffers = build_virtual_buffers(g, r);
  EXPECT_EQ(static_cast<int>(buffers.size()), r.num_colors);
  EXPECT_EQ(total_buffer_bytes(buffers), r.total_bytes);
  std::size_t members = 0;
  for (const auto& b : buffers) {
    members += b.members.size();
    std::int64_t max_bytes = 0;
    for (std::size_t e : b.members) {
      max_bytes = std::max(max_bytes, g.entities()[e].bytes);
    }
    EXPECT_EQ(b.bytes, max_bytes);
  }
  EXPECT_EQ(members, g.size());
}

TEST(VirtualBuffers, MismatchedColoringThrows) {
  InterferenceGraph g({make_entity(0, 10, 0, 1)});
  ColoringResult r;
  r.color_of = {0, 1};
  r.num_colors = 2;
  EXPECT_THROW(build_virtual_buffers(g, r), std::invalid_argument);
  r.color_of = {1};  // color 0 has no member
  EXPECT_THROW(build_virtual_buffers(g, r), std::invalid_argument);
}

}  // namespace
}  // namespace lcmm::core
