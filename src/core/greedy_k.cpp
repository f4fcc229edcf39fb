#include "core/greedy_k.hpp"

#include <algorithm>

#include "graph/topo.hpp"
#include "graph/transitive.hpp"
#include "support/assert.hpp"
#include "support/metrics.hpp"

namespace rs::core {

namespace {

/// Downstream value footprint of choosing `killer`: how many value
/// definitions the killer reaches in the current extended graph. Fewer
/// reachable values means fewer forced value orderings (DV arcs).
int killer_footprint(const TypeContext& ctx, const graph::TransitiveClosure& tc,
                     ddg::NodeId killer) {
  int count = 0;
  for (int j = 0; j < ctx.value_count(); ++j) {
    if (tc.reaches(killer, ctx.value_node(j))) ++count;
  }
  return count;
}

}  // namespace

RsEstimate greedy_k(const TypeContext& ctx, const GreedyOptions& opts,
                    const support::SolveContext& solve) {
  RsEstimate est;
  const int nv = ctx.value_count();
  est.killing = KillingFunction(nv);
  if (nv == 0) {
    est.witness = sched::asap(ctx.ddg());
    return est;
  }

  // Topological positions of defining ops order the greedy scan.
  const auto order = graph::topo_order(ctx.ddg().graph());
  RS_CHECK(order.has_value());
  std::vector<int> topo_pos(ctx.ddg().graph().node_count(), 0);
  for (int p = 0; p < static_cast<int>(order->size()); ++p) {
    topo_pos[(*order)[p]] = p;
  }
  std::vector<int> value_order(nv);
  for (int i = 0; i < nv; ++i) value_order[i] = i;
  std::sort(value_order.begin(), value_order.end(), [&](int a, int b) {
    return topo_pos[ctx.value_node(a)] < topo_pos[ctx.value_node(b)];
  });

  // Phase 1: greedy construction.
  for (const int i : value_order) {
    const auto& candidates = ctx.pkill(i);
    if (candidates.empty()) continue;  // exit value on a non-normalized DDG
    if (candidates.size() == 1) {
      est.killing.killer[i] = candidates[0];
      continue;
    }
    const graph::Digraph ext = killing_extended_graph(ctx, est.killing);
    const graph::TransitiveClosure tc(ext);
    ddg::NodeId best = -1;
    int best_footprint = 0;
    for (const ddg::NodeId cand : candidates) {
      // Arcs (other -> cand) may not close a cycle: reject candidates that
      // some other potential killer is reachable *from*.
      bool cyclic = false;
      for (const ddg::NodeId other : candidates) {
        if (other != cand && tc.reaches(cand, other)) {
          cyclic = true;
          break;
        }
      }
      if (cyclic) continue;
      const int fp = killer_footprint(ctx, tc, cand);
      if (best < 0 || fp < best_footprint ||
          (fp == best_footprint && topo_pos[cand] > topo_pos[best])) {
        best = cand;
        best_footprint = fp;
      }
    }
    if (best < 0) {
      // Fallback: the topologically-last candidate only adds forward arcs.
      best = *std::max_element(
          candidates.begin(), candidates.end(),
          [&](ddg::NodeId a, ddg::NodeId b) { return topo_pos[a] < topo_pos[b]; });
    }
    est.killing.killer[i] = best;
  }
  KillingWorkspace workspace(ctx);
  RS_CHECK(workspace.valid(est.killing));
  auto need = workspace.need(est.killing);
  RS_CHECK(need.has_value());

  // Phase 2: steepest-ascent refinement, first-improvement per value. The
  // estimate is valid after any prefix of steps, so the context is polled
  // between trials and an interrupted ascent just returns early.
  long long trials = 0;
  bool interrupted = false;
  for (int pass = 0; pass < opts.refine_passes && !interrupted; ++pass) {
    bool improved = false;
    for (int i = 0; i < nv && !interrupted; ++i) {
      const ddg::NodeId current = est.killing.killer[i];
      for (const ddg::NodeId cand : ctx.pkill(i)) {
        if (solve.should_stop(trials++)) {
          interrupted = true;
          break;
        }
        if (cand == current) continue;
        est.killing.killer[i] = cand;
        auto trial = workspace.need(est.killing);
        if (trial.has_value() && trial->need > need->need) {
          need = std::move(trial);
          improved = true;
          break;  // keep cand
        }
        est.killing.killer[i] = current;
      }
    }
    ++est.stats.refine_passes;
    if (!improved) break;
  }

  est.stats.solves = 1;
  est.stats.stop = interrupted ? solve.cause_now(false) : support::StopCause::Proven;
  if (const support::SolverProfile* prof = solve.profile()) {
    prof->greedy_refine_passes->inc(
        static_cast<std::uint64_t>(est.stats.refine_passes));
    prof->greedy_trials->inc(static_cast<std::uint64_t>(trials));
  }
  solve.record(est.stats);
  est.rs = need->need;
  est.antichain = need->antichain;
  est.witness = saturating_schedule(ctx, est.killing, est.antichain);
  return est;
}

}  // namespace rs::core
