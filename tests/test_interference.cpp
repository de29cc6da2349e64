#include <gtest/gtest.h>

#include "core/interference.hpp"
#include "resil/error.hpp"
#include "util/rng.hpp"

namespace lcmm::core {
namespace {

TensorEntity make_entity(int layer, TensorSource src, std::int64_t bytes,
                         int def, int last) {
  return {{layer, src}, bytes, def, last};
}

std::vector<TensorEntity> three_entities() {
  return {make_entity(0, TensorSource::kOutput, 100, 0, 2),
          make_entity(1, TensorSource::kInput, 200, 1, 3),
          make_entity(2, TensorSource::kInput, 50, 4, 5)};
}

TEST(Interference, EdgesFromOverlap) {
  InterferenceGraph g(three_entities());
  EXPECT_TRUE(g.interferes(0, 1));   // [0,2] vs [1,3]
  EXPECT_FALSE(g.interferes(0, 2));  // [0,2] vs [4,5]
  EXPECT_FALSE(g.interferes(1, 2));  // [1,3] vs [4,5]
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(Interference, AdjacencyIsExactlyUpperTriangle) {
  // One cell per unordered entity pair: exactly n*(n-1)/2, so 0 (not 1)
  // for a single entity and no diagonal.
  EXPECT_EQ(InterferenceGraph(three_entities()).adjacency_cells(), 3u);
  EXPECT_EQ(InterferenceGraph({}).adjacency_cells(), 0u);
  EXPECT_EQ(
      InterferenceGraph({make_entity(0, TensorSource::kOutput, 100, 0, 2)})
          .adjacency_cells(),
      0u);
  std::vector<TensorEntity> many;
  for (int i = 0; i < 17; ++i) {
    many.push_back(make_entity(i, TensorSource::kOutput, 64, i, i + 2));
  }
  EXPECT_EQ(InterferenceGraph(many).adjacency_cells(), 17u * 16u / 2u);
}

TEST(Interference, SelfAlwaysInterferes) {
  InterferenceGraph g(three_entities());
  EXPECT_TRUE(g.interferes(1, 1));
}

TEST(Interference, SymmetricQueries) {
  InterferenceGraph g(three_entities());
  for (std::size_t a = 0; a < g.size(); ++a) {
    for (std::size_t b = 0; b < g.size(); ++b) {
      EXPECT_EQ(g.interferes(a, b), g.interferes(b, a));
    }
  }
}

TEST(Interference, FalseEdgeAdds) {
  InterferenceGraph g(three_entities());
  EXPECT_FALSE(g.interferes(1, 2));
  g.add_false_edge(1, 2);
  EXPECT_TRUE(g.interferes(1, 2));
  EXPECT_TRUE(g.is_false_edge(1, 2));
  EXPECT_TRUE(g.is_false_edge(2, 1));
  EXPECT_EQ(g.num_false_edges(), 1u);
  // Idempotent; never downgrades a real edge.
  g.add_false_edge(1, 2);
  EXPECT_EQ(g.num_false_edges(), 1u);
  g.add_false_edge(0, 1);
  EXPECT_FALSE(g.is_false_edge(0, 1));  // real edge stays real
}

TEST(Interference, OutOfRangeThrows) {
  InterferenceGraph g(three_entities());
  EXPECT_THROW((void)g.interferes(0, 7), std::out_of_range);
  EXPECT_THROW(g.add_false_edge(3, 3), std::out_of_range);
}

TEST(Interference, EmptyGraph) {
  InterferenceGraph g({});
  EXPECT_EQ(g.size(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(Interference, BeforeExecutionIntervalsOverlapStepZero) {
  std::vector<TensorEntity> v = {
      make_entity(0, TensorSource::kInput, 10, kBeforeExecution, 0),
      make_entity(1, TensorSource::kInput, 10, 0, 1),
      make_entity(2, TensorSource::kWeight, 10, kBeforeExecution, kBeforeExecution)};
  InterferenceGraph g(std::move(v));
  EXPECT_TRUE(g.interferes(0, 1));
  EXPECT_TRUE(g.interferes(0, 2));   // both live before execution
  EXPECT_FALSE(g.interferes(1, 2));  // [-1,-1] vs [0,1]
}

TEST(Interference, RejectsEmptyOrPreExecutionLifespans) {
  for (const auto& [def, last] : {std::pair{3, 2}, std::pair{-2, 0},
                                  std::pair{-2, -2}}) {
    std::vector<TensorEntity> v = three_entities();
    v.push_back(make_entity(3, TensorSource::kInput, 10, def, last));
    try {
      InterferenceGraph g(std::move(v));
      ADD_FAILURE() << "[" << def << ", " << last << "]: expected an OptionError";
    } catch (const resil::OptionError& e) {
      EXPECT_EQ(e.code(), resil::Code::kBadArgument);
      EXPECT_EQ(e.pass(), "pass.interference");
      EXPECT_EQ(e.entity(), "layer 3 if");
    }
  }
}

TEST(Interference, MatchesIntervalsAndFalseEdges) {
  // Random lifespans (some live before execution) and random false edges:
  // interferes() is exactly "lifespans overlap or a false edge was added",
  // whatever the query order, and num_edges() is the brute-force count.
  util::Rng rng(25);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 1 + rng.next_below(24);
    std::vector<TensorEntity> v;
    for (std::size_t i = 0; i < n; ++i) {
      const int def = static_cast<int>(rng.next_int(kBeforeExecution, 12));
      const int last = def + static_cast<int>(rng.next_below(5));
      v.push_back(make_entity(static_cast<int>(i), TensorSource::kInput, 8, def,
                              last));
    }
    InterferenceGraph g(v);
    std::vector<std::vector<bool>> added(n, std::vector<bool>(n, false));
    const std::size_t adds = n >= 2 ? rng.next_below(2 * n) : 0;
    for (std::size_t k = 0; k < adds; ++k) {
      const std::size_t a = rng.next_below(n);
      const std::size_t b = rng.next_below(n);
      if (a == b) continue;
      const bool was = g.interferes(a, b);
      g.add_false_edge(a, b);
      g.add_false_edge(b, a);  // idempotent from either end
      EXPECT_TRUE(g.interferes(a, b));
      if (v[a].overlaps(v[b])) {
        EXPECT_TRUE(was);
        EXPECT_FALSE(g.is_false_edge(a, b));  // a real edge stays real
      } else {
        added[a][b] = added[b][a] = true;
      }
    }
    std::size_t edges = 0;
    std::size_t false_edges = 0;
    for (std::size_t a = 0; a < n; ++a) {
      EXPECT_TRUE(g.interferes(a, a));
      EXPECT_FALSE(g.is_false_edge(a, a));
      for (std::size_t b = 0; b < n; ++b) {
        if (a == b) continue;
        EXPECT_EQ(g.interferes(a, b), v[a].overlaps(v[b]) || added[a][b])
            << trial << ": " << a << "," << b;
        EXPECT_EQ(g.is_false_edge(a, b), added[a][b]) << trial;
        EXPECT_EQ(g.interferes(a, b), g.interferes(b, a));
        EXPECT_EQ(g.is_false_edge(a, b), g.is_false_edge(b, a));
        if (a < b) {
          edges += g.interferes(a, b);
          false_edges += added[a][b];
        }
      }
    }
    EXPECT_EQ(g.num_edges(), edges) << trial;
    EXPECT_EQ(g.num_false_edges(), false_edges) << trial;
  }
}

}  // namespace
}  // namespace lcmm::core
