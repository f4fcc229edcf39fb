// Hopcroft-Karp maximum bipartite matching with König minimum-vertex-cover
// extraction — the engine behind Dilworth maximum-antichain computation.
#pragma once

#include <vector>

namespace rs::graph {

/// Maximum matching in a bipartite graph with explicit left/right parts.
class BipartiteMatching {
 public:
  BipartiteMatching(int n_left, int n_right);

  /// Empties the graph and the matching and resizes both parts, keeping
  /// the allocated adjacency for reuse across many small instances.
  void reset(int n_left, int n_right);

  int left_count() const { return nl_; }

  void add_edge(int left, int right);

  /// Runs Hopcroft-Karp; returns matching cardinality. Idempotent.
  int solve();

  /// Partner of a left / right vertex after solve(), -1 when unmatched.
  int match_of_left(int left) const { return match_l_[left]; }
  int match_of_right(int right) const { return match_r_[right]; }

  /// König cover after solve(): (left_in_cover, right_in_cover) with
  /// |cover| == matching size and every edge covered.
  struct VertexCover {
    std::vector<bool> left;
    std::vector<bool> right;
  };
  VertexCover min_vertex_cover() const;

 private:
  bool bfs_layers();
  bool dfs_augment(int left);

  int nl_, nr_;
  std::vector<std::vector<int>> adj_;  // left -> rights
  std::vector<int> match_l_, match_r_;
  std::vector<int> layer_;
  std::vector<int> queue_;  // BFS queue, kept across phases and resets
  bool solved_ = false;
};

}  // namespace rs::graph
