// Killing functions and the disjoint-value DAG (Touati CC'01, recalled in
// the paper's sections 1 and 3).
//
// A killing function k maps each value u^t to one of its potential killers.
// The *killing-extended* graph G->k adds arcs (v' -> k(u)) with latency
// delta_r(v') - delta_r(k(u)) for every other potential killer v', forcing
// k(u) to be the last reader under every schedule of G->k. k is *valid*
// when G->k stays acyclic (guarantees both schedulability and a well-formed
// disjoint-value order).
//
// The disjoint-value DAG DV_k has an arc u -> v iff u's value is surely dead
// before v's is defined:  lp_{G->k}(k(u), v) >= delta_r(k(u)) - delta_w(v).
// Theorem [CC'01]: sets of values that can be simultaneously alive under
// schedules of G->k are exactly the antichains of DV_k's reachability
// order, so RN_k = maximum antichain, and RS = max over valid k of RN_k.
//
// Cost of one RN_k evaluation (V ops, E arcs, n values, q distinct
// killers): O(q*(V+E)) longest paths plus O(n^3/64) DV reachability plus
// Hopcroft-Karp on at most n^2 comparable pairs. The searches (rs_exact,
// greedy_k) evaluate thousands of killing functions on one context and
// keep one KillingWorkspace for all of them; the free functions below
// build a throwaway workspace per call.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/context.hpp"
#include "graph/digraph.hpp"
#include "graph/matching.hpp"
#include "sched/schedule.hpp"

namespace rs::core {

/// killer[i] = node chosen to kill value i, or -1 while unassigned.
struct KillingFunction {
  std::vector<ddg::NodeId> killer;

  explicit KillingFunction(int value_count = 0) : killer(value_count, -1) {}
  bool complete() const {
    for (const ddg::NodeId v : killer) {
      if (v < 0) return false;
    }
    return true;
  }
};

/// G->k for the assigned prefix of k (unassigned values contribute no
/// arcs). Arcs from other *potential killers* only — consumers outside
/// pkill are already forced to read no later than some pkill member.
graph::Digraph killing_extended_graph(const TypeContext& ctx,
                                      const KillingFunction& k);

/// True iff every assigned killer is in pkill(u) and G->k is acyclic.
bool is_valid_killing(const TypeContext& ctx, const KillingFunction& k);

/// DV_k over value indices for the assigned prefix of k. Returns nullopt
/// when k is invalid (extended graph cyclic or value order degenerate).
std::optional<graph::Digraph> disjoint_value_dag(const TypeContext& ctx,
                                                 const KillingFunction& k);

/// Register need of a killing function and a witness antichain.
struct KillingNeed {
  int need = 0;
  std::vector<int> antichain;  // value indices
};

/// RN_k = maximum antichain of DV_k's reachability order. nullopt when k
/// is invalid. For partial k this is an *upper bound* on any completion
/// (more assignments only add DV arcs).
std::optional<KillingNeed> killing_need(const TypeContext& ctx,
                                        const KillingFunction& k);

/// Reusable state for evaluating many killing functions of one context.
/// Sized once at construction and reused by every call, it never copies
/// the DDG:
///  * G->k is the context's out_arcs() plus a killer-arc overlay, rebuilt
///    per call in O(V + overlay);
///  * one Kahn sort of G->k both decides validity and orders the sweeps;
///  * single-source longest paths run from the distinct killers only, over
///    a graph already known to be acyclic (no circuit check);
///  * DV_k and its reachability are flat n x n bitsets, and Hopcroft-Karp
///    runs on a reused matching fed straight from the reachability bits.
/// Results equal the free functions' bit for bit, antichain members
/// included. The workspace borrows the context, which must outlive it;
/// one workspace serves one thread.
class KillingWorkspace {
 public:
  explicit KillingWorkspace(const TypeContext& ctx);

  /// Same as is_valid_killing(ctx, k).
  bool valid(const KillingFunction& k);
  /// Same as killing_need(ctx, k).
  std::optional<KillingNeed> need(const KillingFunction& k);
  /// Same as disjoint_value_dag(ctx, k).
  std::optional<graph::Digraph> dv_dag(const KillingFunction& k);

 private:
  /// Fills the DV_k arc rows; false when k is invalid.
  bool load(const KillingFunction& k);
  /// Kahn sort of G->k into order_/pos_; false on a circuit.
  bool sort_extended_graph(const KillingFunction& k);
  /// Longest paths from `killer` in G->k, written to out[value index].
  void sweep_from(ddg::NodeId killer, std::int64_t* out);

  std::uint64_t* row(std::vector<std::uint64_t>& rows, int i) {
    return rows.data() + static_cast<std::size_t>(i) * words_;
  }

  const TypeContext& ctx_;
  int nodes_;
  int values_;
  std::size_t words_;  // 64-bit words per DV bitset row
  // G->k overlay, grouped by source: arcs other -> k(u).
  std::vector<int> overlay_begin_;
  std::vector<TypeContext::Arc> overlay_;
  std::vector<int> indegree_;
  std::vector<ddg::NodeId> order_;  // topological order of G->k
  std::vector<int> pos_;            // node -> position in order_
  std::vector<std::int64_t> dist_;  // indexed by position
  std::vector<int> slot_;           // killer -> row of value_dist_, or -1
  std::vector<std::int64_t> value_dist_;
  std::vector<std::int64_t> delta_w_;  // per value
  std::vector<std::uint64_t> arcs_;    // DV_k arcs, n rows
  std::vector<std::uint64_t> reach_;   // DV_k reachability, n rows
  std::vector<int> dv_order_;
  graph::BipartiteMatching matching_;
};

/// Constructs the saturating-schedule certificate: a valid schedule of the
/// ORIGINAL DDG under which all antichain values are simultaneously alive
/// (adds pairwise arcs v -> k(u) with latency delta_w(v)-delta_r(k(u))+1 to
/// G->k, then takes ASAP). The returned schedule witnesses RN >= |antichain|.
sched::Schedule saturating_schedule(const TypeContext& ctx,
                                    const KillingFunction& k,
                                    const std::vector<int>& antichain);

}  // namespace rs::core
