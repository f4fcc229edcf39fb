#include "core/rs_exact.hpp"

#include <algorithm>

#include "support/assert.hpp"
#include "support/metrics.hpp"

namespace rs::core {

namespace {

struct Search {
  const TypeContext& ctx;
  const RsExactOptions& opts;
  const support::SolveContext& solve;

  std::vector<int> branch_values;  // value indices with >1 candidate
  KillingFunction current;
  KillingWorkspace workspace;
  RsExactResult best;
  bool complete = true;
  bool node_limit_hit = false;
  long nodes = 0;
  long long prunes = 0;
  // One per bound plus one per accepted leaf, which reuses its bound.
  long long expansions = 0;
  std::size_t max_depth = 0;

  Search(const TypeContext& c, const RsExactOptions& o,
         const support::SolveContext& s)
      : ctx(c), opts(o), solve(s), current(c.value_count()), workspace(c) {}

  bool limits_hit() {
    // Cancel flag every node, deadline clock coarsely (see SolveContext).
    if (solve.should_stop(nodes)) return true;
    if (opts.node_limit > 0 && nodes >= opts.node_limit) {
      node_limit_hit = true;
      return true;
    }
    return false;
  }

  /// A complete k's bound is its exact RN_k; the caller has checked that
  /// it beats the incumbent.
  void accept_leaf(KillingNeed&& need) {
    ++expansions;
    best.rs = need.need;
    best.killing = current;
    best.antichain = std::move(need.antichain);
  }

  void dfs(std::size_t depth) {
    if (limits_hit()) {
      complete = false;
      return;
    }
    ++nodes;
    max_depth = std::max(max_depth, depth);
    // Admissible bound: antichain of the partially constrained DV DAG.
    ++expansions;
    auto bound = workspace.need(current);
    if (!bound.has_value()) return;  // cyclic extension: prune subtree
    if (bound->need <= best.rs) {
      ++prunes;
      return;
    }

    if (depth == branch_values.size()) {
      accept_leaf(std::move(*bound));
      return;
    }
    const int i = branch_values[depth];
    for (const ddg::NodeId cand : ctx.pkill(i)) {
      current.killer[i] = cand;
      dfs(depth + 1);
      if (limits_hit()) {
        complete = false;
        break;
      }
    }
    current.killer[i] = -1;
  }
};

}  // namespace

RsExactResult rs_exact(const TypeContext& ctx, const RsExactOptions& opts,
                       const support::SolveContext& solve) {
  Search search(ctx, opts, solve);
  const int nv = ctx.value_count();
  if (nv == 0) {
    RsExactResult empty;
    empty.proven = true;
    empty.killing = KillingFunction(0);
    empty.witness = sched::asap(ctx.ddg());
    return empty;
  }

  // Forced assignments (single potential killer) are fixed up front;
  // branching happens only on genuinely free values, most constrained first.
  for (int i = 0; i < nv; ++i) {
    if (ctx.pkill(i).size() == 1) {
      search.current.killer[i] = ctx.pkill(i)[0];
    } else {
      search.branch_values.push_back(i);
    }
  }
  std::sort(search.branch_values.begin(), search.branch_values.end(),
            [&](int a, int b) { return ctx.pkill(a).size() < ctx.pkill(b).size(); });

  support::SolveStats greedy_stats;
  if (opts.warm_start) {
    const RsEstimate greedy = greedy_k(ctx, opts.greedy, solve);
    search.best.rs = greedy.rs;
    search.best.killing = greedy.killing;
    search.best.antichain = greedy.antichain;
    greedy_stats = greedy.stats;
  } else {
    search.best.rs = 0;
    search.best.killing = KillingFunction(nv);
  }

  search.dfs(0);

  RsExactResult result = std::move(search.best);
  result.proven = search.complete;
  result.nodes = search.nodes;
  result.stats.nodes = search.nodes;
  result.stats.prunes = search.prunes;
  result.stats.solves = 1;
  result.stats.stop = search.complete ? support::StopCause::Proven
                                      : solve.cause_now(search.node_limit_hit);
  if (const support::SolverProfile* prof = solve.profile()) {
    prof->exact_expansions->inc(static_cast<std::uint64_t>(search.expansions));
    prof->exact_max_depth->observe(static_cast<double>(search.max_depth));
  }
  solve.record(result.stats);
  result.stats.merge(greedy_stats);  // after record(): greedy recorded itself
  if (result.killing.complete()) {
    result.witness = saturating_schedule(ctx, result.killing, result.antichain);
  }
  return result;
}

}  // namespace rs::core
