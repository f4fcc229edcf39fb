// Longest-path computations. lp(u,v) is central to the paper: it prunes
// redundant scheduling arcs, defines potential killers, and decides when two
// values can never be simultaneously alive (section 3 optimizations).
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "graph/digraph.hpp"

namespace rs::graph {

/// Sentinel for "no path".
inline constexpr std::int64_t kNoPath = std::numeric_limits<std::int64_t>::min() / 4;

/// All-pairs longest paths over a graph without positive circuits.
/// Entry (u,v) is the maximum total latency over paths u->v, kNoPath if v is
/// unreachable from u, and 0 on the diagonal.
class LongestPaths {
 public:
  /// Requires: !has_positive_circuit(g). DAGs run in O(V*(V+E)) via one
  /// relaxation sweep per source in topological order, with no circuit
  /// check; graphs with non-positive circuits are checked, then fall back
  /// to Bellman-Ford per source.
  explicit LongestPaths(const Digraph& g);

  std::int64_t lp(NodeId u, NodeId v) const { return d_[u * n_ + v]; }
  bool reaches(NodeId u, NodeId v) const { return lp(u, v) != kNoPath; }

  int node_count() const { return n_; }

 private:
  int n_;
  std::vector<std::int64_t> d_;
};

/// Longest path from any source (node with indegree zero) to each node,
/// taking max(0, ...) so isolated nodes sit at time 0. This is the paper's
/// "as soon as possible" time sigma-underbar(u) = LongestPathTo(u).
std::vector<std::int64_t> longest_path_to(const Digraph& g);

/// Longest path from each node to any sink. sigma-overbar(u) =
/// T - LongestPathFrom(u) is the "as late as possible" time (section 3).
std::vector<std::int64_t> longest_path_from(const Digraph& g);

/// Critical path length: max over nodes of longest_path_to (equivalently
/// longest_path_from). Zero for empty graphs.
std::int64_t critical_path(const Digraph& g);

}  // namespace rs::graph
