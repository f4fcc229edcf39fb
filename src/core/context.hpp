// Per-(DDG, register type) analysis context: value indexing, consumer sets,
// longest paths, potential killers and a flat copy of the DDG's arcs, shared
// by every RS algorithm.
//
// A context is built once per (DDG, type) and read by every node of a
// search: the exact searches never copy the DDG per node, they walk
// out_arcs() and overlay their own arcs in a workspace (KillingWorkspace,
// extension_is_dag).
#pragma once

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "ddg/ddg.hpp"
#include "sched/schedule.hpp"
#include "graph/paths.hpp"

namespace rs::core {

/// Immutable precomputation for analyzing one register type of one DDG.
/// Construction cost: O(V*(V+E)) longest paths + O(V*E) pkill filtering.
/// The context borrows the DDG, which must outlive it.
class TypeContext {
 public:
  /// One arc of the DDG in flat out-adjacency form.
  struct Arc {
    ddg::NodeId dst;
    ddg::Latency latency;
  };

  TypeContext(const ddg::Ddg& ddg, ddg::RegType type);

  const ddg::Ddg& ddg() const { return *ddg_; }
  ddg::RegType type() const { return type_; }
  const ddg::ValueSet& values() const { return values_; }
  int value_count() const { return values_.count(); }
  const graph::LongestPaths& lp() const { return *lp_; }

  /// Cons(u^t) for value index i.
  const std::vector<ddg::NodeId>& cons(int value_index) const {
    return cons_[value_index];
  }
  /// pkill(u^t) for value index i: consumers not surely-read-before another
  /// consumer (the maximal elements of Cons under the forced-read order).
  const std::vector<ddg::NodeId>& pkill(int value_index) const {
    return pkill_[value_index];
  }

  /// Arcs leaving v (parallel arcs kept) and the number entering it: the
  /// base layer that per-node searches add their own arcs on top of.
  std::span<const Arc> out_arcs(ddg::NodeId v) const {
    return {arcs_.data() + arc_begin_[v], arcs_.data() + arc_begin_[v + 1]};
  }
  int in_degree(ddg::NodeId v) const { return in_degree_[v]; }

  /// Kill date of value i, defined at `def`, when each consumer v is
  /// scheduled at time_of(v): the latest time_of(v) + delta_r(v), or def
  /// when that is later (an empty lifetime ]def, def]). The searches pass
  /// the times of partial schedules; a full schedule gives
  /// sched::kill_date's value.
  template <typename TimeOf>
  sched::Time kill_date(int value_index, sched::Time def,
                        TimeOf&& time_of) const {
    for (const ddg::NodeId v : cons_[value_index]) {
      def = std::max(def, time_of(v) + ddg_->op(v).delta_r);
    }
    return def;
  }

  ddg::NodeId value_node(int value_index) const {
    return values_.nodes[value_index];
  }
  int index_of(ddg::NodeId v) const { return values_.index_of[v]; }

  /// True when value i is dead before value j is defined in *every*
  /// schedule: each consumer of i reads no later than j's write
  /// (lp(u', node_j) >= delta_r(u') - delta_w(node_j) for all u').
  /// This is the section-3 "never simultaneously alive" test direction.
  bool surely_dead_before(int i, int j) const;

 private:
  const ddg::Ddg* ddg_;
  ddg::RegType type_;
  ddg::ValueSet values_;
  std::shared_ptr<const graph::LongestPaths> lp_;
  std::vector<std::vector<ddg::NodeId>> cons_;
  std::vector<std::vector<ddg::NodeId>> pkill_;
  std::vector<Arc> arcs_;        // grouped by source
  std::vector<int> arc_begin_;   // node -> first arc, node_count()+1 entries
  std::vector<int> in_degree_;
};

}  // namespace rs::core
