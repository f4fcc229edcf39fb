#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "graph/antichain.hpp"
#include "graph/digraph.hpp"
#include "graph/matching.hpp"
#include "graph/paths.hpp"
#include "graph/topo.hpp"
#include "graph/transitive.hpp"
#include "support/assert.hpp"
#include "support/random.hpp"

namespace rs::graph {
namespace {

Digraph diamond() {
  Digraph g(4);
  g.add_edge(0, 1, 2);
  g.add_edge(0, 2, 3);
  g.add_edge(1, 3, 1);
  g.add_edge(2, 3, 1);
  return g;
}

TEST(Digraph, BasicAccessors) {
  Digraph g = diamond();
  EXPECT_EQ(g.node_count(), 4);
  EXPECT_EQ(g.edge_count(), 4);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(1, 0));
  EXPECT_EQ(g.out_edges(0).size(), 2u);
  EXPECT_EQ(g.in_edges(3).size(), 2u);
}

TEST(Digraph, ParallelArcsMaxLatency) {
  Digraph g(2);
  g.add_edge(0, 1, 2);
  g.add_edge(0, 1, 5);
  g.add_edge(0, 1, 3);
  EXPECT_EQ(g.max_latency(0, 1), 5);
  EXPECT_THROW(g.max_latency(1, 0), support::PreconditionError);
}

TEST(Digraph, OutOfRangeEdgeThrows) {
  Digraph g(2);
  EXPECT_THROW(g.add_edge(0, 5, 1), support::PreconditionError);
}

TEST(Topo, OrderRespectsArcs) {
  const Digraph g = diamond();
  const auto order = topo_order(g);
  ASSERT_TRUE(order.has_value());
  std::vector<int> pos(4);
  for (int i = 0; i < 4; ++i) pos[(*order)[i]] = i;
  for (const Edge& e : g.edges()) EXPECT_LT(pos[e.src], pos[e.dst]);
}

TEST(Topo, DetectsCycle) {
  Digraph g(3);
  g.add_edge(0, 1, 1);
  g.add_edge(1, 2, 1);
  g.add_edge(2, 0, 1);
  EXPECT_FALSE(topo_order(g).has_value());
  EXPECT_FALSE(is_dag(g));
}

TEST(Topo, PositiveCircuitDetection) {
  Digraph g(3);
  g.add_edge(0, 1, 1);
  g.add_edge(1, 0, -1);  // zero-weight circuit: schedulable
  EXPECT_FALSE(has_positive_circuit(g));
  g.add_edge(1, 2, 2);
  g.add_edge(2, 1, -1);  // +1 circuit: unschedulable
  EXPECT_TRUE(has_positive_circuit(g));
}

TEST(Topo, EmptyGraph) {
  Digraph g(0);
  EXPECT_TRUE(is_dag(g));
  EXPECT_FALSE(has_positive_circuit(g));
}

TEST(Paths, DiamondLongest) {
  const Digraph g = diamond();
  const LongestPaths lp(g);
  EXPECT_EQ(lp.lp(0, 3), 4);  // 0->2->3
  EXPECT_EQ(lp.lp(0, 1), 2);
  EXPECT_EQ(lp.lp(1, 2), kNoPath);
  EXPECT_FALSE(lp.reaches(3, 0));
  EXPECT_EQ(lp.lp(2, 2), 0);
  EXPECT_EQ(critical_path(g), 4);
}

TEST(Paths, AsapAlapConsistency) {
  const Digraph g = diamond();
  const auto to = longest_path_to(g);
  const auto from = longest_path_from(g);
  EXPECT_EQ(to[0], 0);
  EXPECT_EQ(to[3], 4);
  EXPECT_EQ(from[0], 4);
  EXPECT_EQ(from[3], 0);
  // For every node: to[u] + from[u] <= critical path.
  for (NodeId u = 0; u < 4; ++u) EXPECT_LE(to[u] + from[u], 4);
}

TEST(Paths, NonPositiveCircuitFallback) {
  Digraph g(3);
  g.add_edge(0, 1, 5);
  g.add_edge(1, 2, 0);
  g.add_edge(2, 1, 0);  // zero circuit
  const LongestPaths lp(g);
  EXPECT_EQ(lp.lp(0, 2), 5);
  EXPECT_EQ(lp.lp(0, 1), 5);
  const auto to = longest_path_to(g);
  EXPECT_EQ(to[2], 5);
}

TEST(Paths, DagRowsMatchBellmanFordReference) {
  // Random DAGs over a shuffled node order with mixed-sign latencies,
  // parallel arcs and some huge latencies, against a plain per-source
  // Bellman-Ford.
  support::Rng rng(321);
  for (int trial = 0; trial < 40; ++trial) {
    const int n = rng.next_int(1, 24);
    std::vector<NodeId> rank(n);
    for (int i = 0; i < n; ++i) rank[i] = i;
    for (int i = n - 1; i > 0; --i) std::swap(rank[i], rank[rng.next_int(0, i)]);
    Digraph g(n);
    for (int a = 0; a < n; ++a) {
      for (int b = a + 1; b < n; ++b) {
        for (int copies = rng.next_int(0, 1) * rng.next_int(1, 2); copies > 0;
             --copies) {
          g.add_edge(rank[a], rank[b], rng.next_int(-3, 6));
        }
      }
    }
    if (trial % 4 == 3 && n > 1) {
      // One huge latency: "no path" must not turn into a path through it.
      const int a = rng.next_int(0, n - 2);
      g.add_edge(rank[a], rank[rng.next_int(a + 1, n - 1)],
                 std::int64_t{1'200'000'000'000'000'000});
    }
    const LongestPaths lp(g);
    for (NodeId s = 0; s < n; ++s) {
      std::vector<std::int64_t> d(n, kNoPath);
      d[s] = 0;
      for (int round = 0; round < n; ++round) {
        for (const Edge& e : g.edges()) {
          if (d[e.src] == kNoPath) continue;
          d[e.dst] = std::max(d[e.dst], d[e.src] + e.latency);
        }
      }
      for (NodeId t = 0; t < n; ++t) {
        EXPECT_EQ(lp.lp(s, t), d[t]) << "trial " << trial << " " << s << "->" << t;
      }
    }
  }
}

TEST(Paths, PositiveCircuitRejected) {
  Digraph g(2);
  g.add_edge(0, 1, 1);
  g.add_edge(1, 0, 1);
  EXPECT_THROW(LongestPaths{g}, support::PreconditionError);
}

TEST(Transitive, ClosureOfChain) {
  Digraph g(4);
  g.add_edge(0, 1, 1);
  g.add_edge(1, 2, 1);
  g.add_edge(2, 3, 1);
  const TransitiveClosure tc(g);
  EXPECT_TRUE(tc.reaches(0, 3));
  EXPECT_TRUE(tc.reaches(1, 3));
  EXPECT_FALSE(tc.reaches(3, 0));
  EXPECT_FALSE(tc.reaches(0, 0));  // strict reachability
}

TEST(Transitive, RedundantEdges) {
  Digraph g(3);
  g.add_edge(0, 1, 1);
  g.add_edge(1, 2, 1);
  const EdgeId shortcut = g.add_edge(0, 2, 1);
  const auto redundant = transitively_redundant_edges(g);
  ASSERT_EQ(redundant.size(), 1u);
  EXPECT_EQ(redundant[0], shortcut);
}

TEST(Matching, PerfectMatchingSquare) {
  BipartiteMatching m(2, 2);
  m.add_edge(0, 0);
  m.add_edge(0, 1);
  m.add_edge(1, 0);
  EXPECT_EQ(m.solve(), 2);
  EXPECT_NE(m.match_of_left(0), m.match_of_left(1));
}

TEST(Matching, KonigCoverCoversEveryEdge) {
  support::Rng rng(123);
  for (int trial = 0; trial < 30; ++trial) {
    const int nl = rng.next_int(1, 8), nr = rng.next_int(1, 8);
    BipartiteMatching m(nl, nr);
    std::vector<std::pair<int, int>> edges;
    for (int l = 0; l < nl; ++l) {
      for (int r = 0; r < nr; ++r) {
        if (rng.next_bool(0.3)) {
          m.add_edge(l, r);
          edges.emplace_back(l, r);
        }
      }
    }
    const int matched = m.solve();
    const auto cover = m.min_vertex_cover();
    int cover_size = 0;
    for (const bool b : cover.left) cover_size += b;
    for (const bool b : cover.right) cover_size += b;
    EXPECT_EQ(cover_size, matched);  // König
    for (const auto& [l, r] : edges) {
      EXPECT_TRUE(cover.left[l] || cover.right[r]);
    }
  }
}

TEST(Matching, ResetMatchesFreshInstance) {
  // One matching reset and refilled per instance answers like a fresh one.
  support::Rng rng(99);
  BipartiteMatching reused(0, 0);
  for (int trial = 0; trial < 30; ++trial) {
    const int nl = rng.next_int(0, 9), nr = rng.next_int(0, 9);
    BipartiteMatching fresh(nl, nr);
    reused.reset(nl, nr);
    for (int l = 0; l < nl; ++l) {
      for (int r = 0; r < nr; ++r) {
        if (rng.next_bool(0.3)) {
          fresh.add_edge(l, r);
          reused.add_edge(l, r);
        }
      }
    }
    EXPECT_EQ(reused.solve(), fresh.solve());
    for (int l = 0; l < nl; ++l) {
      EXPECT_EQ(reused.match_of_left(l), fresh.match_of_left(l));
    }
  }
}

/// Brute-force maximum antichain for cross-checking (k <= ~16).
int brute_force_antichain(int k, const std::function<bool(int, int)>& before) {
  int best = 0;
  for (unsigned mask = 0; mask < (1u << k); ++mask) {
    bool ok = true;
    for (int i = 0; i < k && ok; ++i) {
      if (!(mask >> i & 1)) continue;
      for (int j = 0; j < k && ok; ++j) {
        if (i != j && (mask >> j & 1) && before(i, j)) ok = false;
      }
    }
    if (ok) best = std::max(best, __builtin_popcount(mask));
  }
  return best;
}

TEST(Antichain, ChainAndAntichainExtremes) {
  // Total order: antichain 1.
  auto total = [](int i, int j) { return i < j; };
  EXPECT_EQ(maximum_antichain(5, total).size, 1);
  // Empty order: everything.
  auto empty = [](int, int) { return false; };
  EXPECT_EQ(maximum_antichain(5, empty).size, 5);
}

TEST(Antichain, MatchesBruteForceOnRandomPosets) {
  support::Rng rng(77);
  for (int trial = 0; trial < 40; ++trial) {
    const int k = rng.next_int(2, 11);
    // Random DAG on 0..k-1 (i<j arcs), closed transitively.
    std::vector<std::vector<bool>> lt(k, std::vector<bool>(k, false));
    for (int i = 0; i < k; ++i) {
      for (int j = i + 1; j < k; ++j) lt[i][j] = rng.next_bool(0.3);
    }
    for (int a = 0; a < k; ++a) {
      for (int b = 0; b < k; ++b) {
        for (int c = 0; c < k; ++c) {
          if (lt[b][a] && lt[a][c]) lt[b][c] = true;
        }
      }
    }
    auto before = [&](int i, int j) { return lt[i][j]; };
    const AntichainResult got = maximum_antichain(k, before);
    EXPECT_EQ(got.size, brute_force_antichain(k, before));
    // Returned members are pairwise incomparable.
    for (const int i : got.members) {
      for (const int j : got.members) {
        if (i != j) EXPECT_FALSE(before(i, j));
      }
    }
  }
}

TEST(Antichain, DagWrapperWithElementSubset) {
  // 0 -> 1 -> 2, 3 isolated; elements {0, 2, 3}.
  Digraph g(4);
  g.add_edge(0, 1, 1);
  g.add_edge(1, 2, 1);
  const AntichainResult r = maximum_antichain_of_dag(g, {0, 2, 3});
  EXPECT_EQ(r.size, 2);  // {0,3} or {2,3}; 0 and 2 comparable through 1
  EXPECT_TRUE(std::find(r.members.begin(), r.members.end(), 3) !=
              r.members.end());
}

TEST(Antichain, FullDagWrapper) {
  const Digraph g = diamond();
  EXPECT_EQ(maximum_antichain_of_dag(g).size, 2);  // {1,2}
}

}  // namespace
}  // namespace rs::graph
