#include "core/reduce.hpp"

#include <algorithm>
#include <set>

#include "core/rs_exact.hpp"
#include "graph/paths.hpp"
#include "graph/topo.hpp"
#include "sched/lifetime.hpp"
#include "support/assert.hpp"
#include "support/metrics.hpp"

namespace rs::core {

namespace {

struct ArcSpec {
  ddg::NodeId src;
  ddg::NodeId dst;
  ddg::Latency latency;
};

ddg::Latency serialization_latency(const ddg::Ddg& ddg, ddg::NodeId reader,
                                   ddg::NodeId def, ArcLatencyMode mode) {
  const ddg::Latency general =
      ddg.op(reader).delta_r - ddg.op(def).delta_w;
  if (mode == ArcLatencyMode::PaperStrict &&
      ddg.op(reader).delta_r == 0 && ddg.op(def).delta_w == 0) {
    return 1;  // the paper's sequential-semantics latency for superscalar
  }
  return general;
}

/// Arcs forcing LT(value i) to precede LT(value j) in every schedule
/// (Theorem 4.2 proof): readers of i must read before j writes.
std::vector<ArcSpec> pair_serialization_arcs(const TypeContext& ctx, int i,
                                             int j, ArcLatencyMode mode) {
  const ddg::NodeId vj = ctx.value_node(j);
  std::vector<ArcSpec> arcs;
  for (const ddg::NodeId reader : ctx.cons(i)) {
    if (reader == vj) continue;  // the "v in Cons(u)" case skips v itself
    arcs.push_back(ArcSpec{reader, vj,
                           serialization_latency(ctx.ddg(), reader, vj, mode)});
  }
  return arcs;
}

/// True when the arc is already enforced by the original longest paths or
/// by an identical previously added arc (keeps reported arc counts honest).
bool arc_redundant(const TypeContext& ctx,
                   const std::set<std::pair<ddg::NodeId, ddg::NodeId>>& added,
                   const ArcSpec& a) {
  if (a.src == a.dst) return true;
  if (added.count({a.src, a.dst})) return true;
  return ctx.lp().reaches(a.src, a.dst) && ctx.lp().lp(a.src, a.dst) >= a.latency;
}

/// The lifetime pairs Theorem 4.2 serializes: LT(i) before LT(j) under
/// sigma (left-open: kill <= def suffices), with symmetric empty-interval
/// ties oriented one way only, by (def, index).
bool serialized_before(const std::vector<sched::Lifetime>& lts, int i, int j) {
  if (i == j || lts[i].kill > lts[j].def) return false;
  return !(lts[j].kill <= lts[i].def &&
           std::make_pair(lts[j].def, j) < std::make_pair(lts[i].def, i));
}

}  // namespace

ExtensionResult extend_by_schedule(const TypeContext& ctx,
                                   const sched::Schedule& sigma,
                                   ArcLatencyMode mode) {
  RS_REQUIRE(sched::is_valid(ctx.ddg(), sigma), "invalid schedule");
  const std::vector<sched::Lifetime> lts =
      sched::lifetimes(ctx.ddg(), ctx.type(), sigma);
  const int nv = ctx.value_count();

  ExtensionResult result{ctx.ddg(), 0, true};
  std::set<std::pair<ddg::NodeId, ddg::NodeId>> added;
  for (int i = 0; i < nv; ++i) {
    for (int j = 0; j < nv; ++j) {
      if (!serialized_before(lts, i, j)) continue;
      for (const ArcSpec& a : pair_serialization_arcs(ctx, i, j, mode)) {
        if (arc_redundant(ctx, added, a)) continue;
        result.extended.add_serial(a.src, a.dst, a.latency);
        added.insert({a.src, a.dst});
        ++result.arcs_added;
      }
    }
  }
  result.is_dag = graph::is_dag(result.extended.graph());
  return result;
}

bool extension_is_dag(const TypeContext& ctx, const sched::Schedule& sigma) {
  const ddg::Ddg& ddg = ctx.ddg();
  const int n = ddg.op_count();
  const int nv = ctx.value_count();
  RS_REQUIRE(sigma.op_count() == n, "schedule size mismatch");
  // sched::lifetimes() without rebuilding the value set and consumers.
  std::vector<sched::Lifetime> lts(nv);
  for (int i = 0; i < nv; ++i) {
    const ddg::NodeId u = ctx.value_node(i);
    lts[i].def = sigma.at(u) + ddg.op(u).delta_w;
    lts[i].kill = ctx.kill_date(i, lts[i].def,
                                [&](ddg::NodeId v) { return sigma.at(v); });
  }
  // The pairs and arcs of extend_by_schedule; an arc whose endpoints a
  // DDG path already joins (the self-arc included) cannot close a circuit.
  std::vector<std::pair<ddg::NodeId, ddg::NodeId>> extra;
  for (int i = 0; i < nv; ++i) {
    for (int j = 0; j < nv; ++j) {
      if (!serialized_before(lts, i, j)) continue;
      const ddg::NodeId vj = ctx.value_node(j);
      for (const ddg::NodeId reader : ctx.cons(i)) {
        if (!ctx.lp().reaches(reader, vj)) extra.emplace_back(reader, vj);
      }
    }
  }
  if (extra.empty()) return true;  // the DDG itself is a DAG

  // Extra arcs grouped by source (counting sort), then Kahn.
  std::vector<int> begin(n + 1, 0), indegree(n);
  std::vector<ddg::NodeId> dst(extra.size()), order;
  for (ddg::NodeId v = 0; v < n; ++v) indegree[v] = ctx.in_degree(v);
  for (const auto& [a, b] : extra) {
    ++begin[a];
    ++indegree[b];
  }
  for (ddg::NodeId v = 0; v < n; ++v) begin[v + 1] += begin[v];
  for (const auto& [a, b] : extra) dst[--begin[a]] = b;
  return graph::kahn_order(indegree, order, [&](ddg::NodeId u, auto&& release) {
    for (const TypeContext::Arc& a : ctx.out_arcs(u)) release(a.dst);
    for (int e = begin[u]; e < begin[u + 1]; ++e) release(dst[e]);
  });
}

ReduceResult reduce_optimal(const TypeContext& ctx, int R,
                            const ReduceOptions& opts,
                            const support::SolveContext& solve) {
  ReduceResult result;
  result.original_cp = graph::critical_path(ctx.ddg().graph());

  int rs_upper = opts.rs_upper;
  bool rs_proven = true;
  if (rs_upper < 0) {
    const RsExactResult rs = rs_exact(ctx, RsExactOptions{}, solve);
    result.stats.merge(rs.stats);
    rs_upper = rs.rs;
    rs_proven = rs.proven;
  }
  if (rs_proven && rs_upper <= R) {
    result.status = ReduceStatus::AlreadyFits;
    result.extended = ctx.ddg();
    result.achieved_rs = rs_upper;
    result.critical_path = result.original_cp;
    return result;
  }

  SrcOptions src = opts.src;
  const ArcLatencyMode mode = opts.arc_mode;
  // Paper (end of section 4): reject schedules whose extension would lose
  // the DAG property (only reachable with visible write offsets).
  src.leaf_filter = [&ctx](const sched::Schedule& s) {
    return extension_is_dag(ctx, s);
  };

  SrcSolver solver(ctx, R);
  const SrcResult r = solver.reduce_lexicographic(rs_upper, src, solve);
  result.nodes = r.nodes;
  result.stats.merge(r.stats);
  if (!r.feasible) {
    result.status = r.status == SrcStatus::Proven ? ReduceStatus::SpillNeeded
                                                  : ReduceStatus::LimitHit;
    return result;
  }
  ExtensionResult ext = extend_by_schedule(ctx, r.sigma, mode);
  RS_CHECK(ext.is_dag);
  result.status = ReduceStatus::Reduced;
  result.achieved_rs = r.rn;
  result.critical_path = graph::critical_path(ext.extended.graph());
  result.arcs_added = ext.arcs_added;
  result.extended = std::move(ext.extended);
  return result;
}

ReduceResult reduce_greedy(const TypeContext& ctx, int R,
                           const ReduceOptions& opts,
                           const support::SolveContext& solve) {
  ReduceResult result;
  result.original_cp = graph::critical_path(ctx.ddg().graph());

  ddg::Ddg current = ctx.ddg();
  int arcs_added = 0;
  long long rounds_run = 0;
  long long candidates_evaluated = 0;
  // Flushed once on every exit path, next to the result handoff.
  const auto flush_profile = [&] {
    if (const support::SolverProfile* prof = solve.profile()) {
      prof->reduce_rounds->inc(static_cast<std::uint64_t>(rounds_run));
      prof->reduce_candidates->inc(
          static_cast<std::uint64_t>(candidates_evaluated));
    }
  };
  for (int round = 0; round < opts.max_rounds; ++round) {
    if (solve.stop_requested()) {
      // Interrupted between serialization rounds: report the partially
      // reduced graph (valid, just not yet within the limit).
      result.status = ReduceStatus::LimitHit;
      result.stats.stop = support::worse_cause(result.stats.stop,
                                               solve.cause_now(false));
      result.critical_path = graph::critical_path(current.graph());
      result.arcs_added = arcs_added;
      result.extended = std::move(current);
      flush_profile();
      return result;
    }
    ++rounds_run;
    const TypeContext cur_ctx(current, ctx.type());
    const RsEstimate est = greedy_k(cur_ctx, opts.greedy, solve);
    result.stats.merge(est.stats);
    if (est.rs <= R) {
      result.status = round == 0 ? ReduceStatus::AlreadyFits
                                 : ReduceStatus::Reduced;
      result.achieved_rs = est.rs;
      result.critical_path = graph::critical_path(current.graph());
      result.arcs_added = arcs_added;
      result.extended = std::move(current);
      flush_profile();
      return result;
    }

    // Candidate serializations between saturating values; keep those that
    // preserve the DAG property, ranked by critical-path increase.
    struct Candidate {
      int i, j;
      sched::Time cp;
      int arcs;
    };
    std::vector<Candidate> candidates;
    for (const int i : est.antichain) {
      for (const int j : est.antichain) {
        if (i == j) continue;
        const auto arcs = pair_serialization_arcs(cur_ctx, i, j, opts.arc_mode);
        graph::Digraph trial(current.graph().node_count());
        for (const graph::Edge& e : current.graph().edges()) {
          trial.add_edge(e.src, e.dst, e.latency);
        }
        int added = 0;
        std::set<std::pair<ddg::NodeId, ddg::NodeId>> dedup;
        for (const ArcSpec& a : arcs) {
          if (arc_redundant(cur_ctx, dedup, a)) continue;
          trial.add_edge(a.src, a.dst, a.latency);
          dedup.insert({a.src, a.dst});
          ++added;
        }
        if (added == 0) continue;          // pair already ordered
        if (!graph::is_dag(trial)) continue;  // would lose the DAG property
        candidates.push_back(
            Candidate{i, j, graph::critical_path(trial), added});
      }
    }
    if (candidates.empty()) {
      result.status = ReduceStatus::SpillNeeded;
      result.achieved_rs = est.rs;
      result.critical_path = graph::critical_path(current.graph());
      result.arcs_added = arcs_added;
      result.extended = std::move(current);
      flush_profile();
      return result;
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& a, const Candidate& b) {
                if (a.cp != b.cp) return a.cp < b.cp;
                if (a.arcs != b.arcs) return a.arcs < b.arcs;
                return std::make_pair(a.i, a.j) < std::make_pair(b.i, b.j);
              });
    // Among the critical-path-minimal candidates, pick the one whose
    // application drops the heuristic saturation the most (evaluate a few).
    const sched::Time best_cp = candidates.front().cp;
    int evaluated = 0;
    int best_rs = -1;
    const Candidate* best = nullptr;
    for (const Candidate& c : candidates) {
      if (c.cp != best_cp || evaluated >= 8) break;
      ++evaluated;
      ddg::Ddg trial = current;
      std::set<std::pair<ddg::NodeId, ddg::NodeId>> dedup;
      for (const ArcSpec& a :
           pair_serialization_arcs(cur_ctx, c.i, c.j, opts.arc_mode)) {
        if (arc_redundant(cur_ctx, dedup, a)) continue;
        trial.add_serial(a.src, a.dst, a.latency);
        dedup.insert({a.src, a.dst});
      }
      const TypeContext trial_ctx(trial, ctx.type());
      const RsEstimate trial_est = greedy_k(trial_ctx, opts.greedy, solve);
      result.stats.merge(trial_est.stats);
      const int rs_after = trial_est.rs;
      if (best == nullptr || rs_after < best_rs) {
        best = &c;
        best_rs = rs_after;
      }
    }
    RS_CHECK(best != nullptr);
    candidates_evaluated += evaluated;
    std::set<std::pair<ddg::NodeId, ddg::NodeId>> dedup;
    for (const ArcSpec& a :
         pair_serialization_arcs(cur_ctx, best->i, best->j, opts.arc_mode)) {
      if (arc_redundant(cur_ctx, dedup, a)) continue;
      current.add_serial(a.src, a.dst, a.latency);
      dedup.insert({a.src, a.dst});
      ++arcs_added;
    }
  }
  result.status = ReduceStatus::LimitHit;
  result.stats.stop = support::worse_cause(result.stats.stop,
                                           support::StopCause::LimitHit);
  result.critical_path = graph::critical_path(current.graph());
  result.arcs_added = arcs_added;
  result.extended = std::move(current);
  flush_profile();
  return result;
}

}  // namespace rs::core
