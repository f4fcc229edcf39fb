#include "graph/antichain.hpp"

#include <numeric>

#include "graph/matching.hpp"
#include "graph/transitive.hpp"
#include "support/assert.hpp"

namespace rs::graph {

AntichainResult maximum_antichain(BipartiteMatching& order) {
  // Fulkerson: min chain partition of the order = k - max matching in the
  // split bipartite graph with an edge (i_L, j_R) per comparable pair i<j.
  // By Dilworth, the max antichain has exactly that size; König's theorem
  // recovers one as the elements with both split copies uncovered.
  const int k = order.left_count();
  const int matched = order.solve();
  const auto cover = order.min_vertex_cover();

  AntichainResult result;
  for (int i = 0; i < k; ++i) {
    if (!cover.left[i] && !cover.right[i]) result.members.push_back(i);
  }
  result.size = static_cast<int>(result.members.size());
  RS_CHECK(result.size >= k - matched);
  return result;
}

AntichainResult maximum_antichain(int k,
                                  const std::function<bool(int, int)>& before) {
  RS_REQUIRE(k >= 0, "negative element count");
  BipartiteMatching matching(k, k);
  for (int i = 0; i < k; ++i) {
    for (int j = 0; j < k; ++j) {
      if (i != j && before(i, j)) matching.add_edge(i, j);
    }
  }
  return maximum_antichain(matching);
}

AntichainResult maximum_antichain_of_dag(const Digraph& g,
                                         const std::vector<NodeId>& elements) {
  TransitiveClosure tc(g);
  auto result = maximum_antichain(
      static_cast<int>(elements.size()),
      [&](int i, int j) { return tc.reaches(elements[i], elements[j]); });
  // Translate element indices back to node ids.
  for (int& m : result.members) m = elements[m];
  return result;
}

AntichainResult maximum_antichain_of_dag(const Digraph& g) {
  std::vector<NodeId> all(g.node_count());
  std::iota(all.begin(), all.end(), 0);
  return maximum_antichain_of_dag(g, all);
}

}  // namespace rs::graph
