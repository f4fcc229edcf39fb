// Exact solver for the SRC problem (Definition 4.3): does a schedule exist
// with register need <= R and total time <= P? — plus the two optimization
// modes the section-4 reduction needs:
//   * minimum makespan subject to RN <= R  (the intLP's "minimize sigma_bot");
//   * the paper's decrement loop, i.e. lexicographically maximize the
//     achieved register need (<= R), then minimize makespan.
//
// Search: depth-first assignment of issue times in a fixed topological
// order within [earliest-from-predecessors, P - LongestPathFrom] windows.
// Pruning uses a monotone lower bound on the register need of any
// completion: each already-defined value certainly lives until the larger
// of its already-scheduled reads and the earliest possible issue of its
// unscheduled consumers, and those forced intervals only grow as the
// schedule completes. For VLIW targets an optional leaf filter rejects
// schedules whose Theorem-4.2 arc set would create a circuit (the paper's
// topological-sort-existence requirement).
//
// Cost per DFS node: O(values + reads) plus a sweep of O(values) time
// steps or a sort of 2 x values events for the bounds (SrcBounds), plus
// the earliest-time propagation, whose undo entries go on one stack kept
// for the whole search. Nothing is allocated per node; a leaf copies the
// schedule into one reused buffer, and its register need is the lower
// bound already computed there.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "core/context.hpp"
#include "sched/schedule.hpp"
#include "support/solve_context.hpp"

namespace rs::core {

struct SrcOptions {
  long node_limit = 5000000;  // <= 0: unlimited
  /// Extra cycles beyond the critical path explored before giving up on
  /// feasibility (bounds the makespan search).
  sched::Time slack_limit = 64;
  /// Reject leaves whose induced extension would not admit a topological
  /// sort (only meaningful when delta_w offsets are visible — VLIW/EPIC).
  std::function<bool(const sched::Schedule&)> leaf_filter;
};

enum class SrcStatus {
  Proven,     // answer is exact
  LimitHit,   // budget exhausted; result is a bound / best-so-far
};

struct SrcResult {
  bool feasible = false;
  sched::Schedule sigma;       // witness when feasible
  sched::Time makespan = 0;    // sigma(⊥) of the witness
  int rn = 0;                  // register need of the witness
  SrcStatus status = SrcStatus::Proven;
  long nodes = 0;
  support::SolveStats stats;   // per-call search effort + stop cause
};

/// The DFS's two register-need bounds over a partial schedule of ctx's DDG
/// with makespan budget P. sigma[v] is v's issue time, or negative while v
/// is unscheduled; earliest[v] is the earliest issue its scheduled
/// predecessors still allow. Every time lies in [0, P]. Each bound is the
/// peak overlap of one left-open interval ]def, kill] per value, found
/// without allocation in buffers sized at construction. While P is at most
/// a small multiple of the value count, one difference-array sweep over the
/// horizon finds it in O(values + reads + P) with no sort; beyond that the
/// bounds sort the 2 x values interval events instead, so memory and time
/// per call stay independent of P. Both equal an event sort that takes -1
/// before +1 at equal times.
class SrcBounds {
 public:
  SrcBounds(const TypeContext& ctx, sched::Time P);

  /// Monotone lower bound on the register need of any completion: defined
  /// values certainly live from their write until max(assigned reads,
  /// earliest possible remaining reads); these only grow as times get
  /// fixed. Once every value and reader is scheduled it is the exact RN.
  int lower(std::span<const sched::Time> sigma,
            std::span<const sched::Time> earliest);

  /// Admissible upper bound on the register need any completion can still
  /// reach: every value gets its most optimistic interval — definition as
  /// early as still possible, kill as late as any unscheduled consumer
  /// could read (P - lpf[v], lpf = longest path to a sink) — and the bound
  /// is the peak overlap of those intervals.
  int upper(std::span<const sched::Time> sigma,
            std::span<const sched::Time> earliest,
            std::span<const std::int64_t> lpf);

 private:
  void add(sched::Time def, sched::Time kill);
  int peak();

  const TypeContext& ctx_;
  sched::Time P_;
  // Sweep mode: diff_ non-empty and all zero between calls.
  sched::Time base_ = 0;         // time of diff_[0]
  std::vector<int> diff_;
  std::size_t lo_ = 0, hi_ = 0;  // range add() touched; lo_ > hi_ when none
  // Sort mode (diff_ empty): (time, +1 | -1) events, empty between calls.
  std::vector<std::pair<sched::Time, int>> events_;
};

class SrcSolver {
 public:
  /// R: available registers of ctx's type.
  SrcSolver(const TypeContext& ctx, int R);

  /// Is there sigma with RN <= R, sigma(⊥) <= P, and (if rn_target > 0)
  /// RN >= rn_target? Observes the context's deadline and cancel token
  /// (coarsely, every SolveContext::kPollInterval DFS nodes).
  SrcResult feasible(sched::Time P, int rn_target, const SrcOptions& opts,
                     const support::SolveContext& solve = {});

  /// Minimum sigma(⊥) subject to RN <= R; searches P upward from the
  /// critical path to CP + slack_limit. One context budgets the whole sweep.
  SrcResult minimize_makespan(const SrcOptions& opts,
                              const support::SolveContext& solve = {});

  /// Paper's decrement loop: largest achievable RN <= R (starting from
  /// rs_upper), then minimum makespan at that RN.
  SrcResult reduce_lexicographic(int rs_upper, const SrcOptions& opts,
                                 const support::SolveContext& solve = {});

 private:
  const TypeContext& ctx_;
  int R_;
};

}  // namespace rs::core
