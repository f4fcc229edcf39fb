// Session: one ordered response stream of the line protocol
// (service/protocol.hpp) over a shared AnalysisEngine — the one
// implementation behind `rsat batch` (a session over stdin/stdout) and
// `rsat serve` (a session per TCP connection).
//
// feed() parses a line and queues its response slot: a submission's
// future, a parse-error line, a cancel ack (the cancel acts at once), a
// drain ack, or a stats/metrics render deferred to emission time, so the
// snapshot reflects at least every earlier line. Slots are emitted strictly
// in request order. The session stops accepting lines at kMaxPending
// unanswered slots, and after a drain line until its `drained` ack has been
// emitted: drain is a barrier on this stream only. Emitting a response
// stamps encode_ms/bytes on its trace span, writes the span and the
// solve-log record to the hub's sinks, and does the --slo-ms and --slow-ms
// accounting.
//
// Threading: the session locks internally. One thread feeds and one thread
// emits (possibly the same one). A poll loop feeds only while accepting()
// and emits without waiting; a reader/printer thread pair lets feed() and
// emit() block instead.
#pragma once

#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <string>

#include "service/engine.hpp"
#include "service/protocol.hpp"
#include "service/trace.hpp"
#include "support/metrics.hpp"
#include "support/mutex.hpp"
#include "support/thread_annotations.hpp"

namespace rs::service {

struct SessionConfig {
  ProtocolOptions protocol;
  /// When non-empty, enables engine trace spans and streams one JSONL
  /// event per request to this file (service/trace.hpp).
  std::string trace_file;
  /// When non-empty, enables engine solve-log records and streams one JSONL
  /// record per request to this file (SolveLogRecord, service/trace.hpp).
  std::string solve_log_file;
  /// > 0 logs every response slower than this (wall-clock submit->respond)
  /// to stderr and counts it in Emitted::slow.
  double slow_ms = 0;
  /// > 0 enables per-operation latency objectives: every emitted response
  /// counts as slo.<op>.ok or slo.<op>.breach (millis vs this bound), and
  /// the `stats` verb gains slo_ms/slo.<op>.* error-budget fields.
  double slo_ms = 0;
};

/// What every Session of one process shares: the engine, one request-id
/// sequence (an unset id= takes the next number, so ids are unique across
/// sessions and a cancel id= reaches a request on any session), the sinks,
/// and the SLO counters.
class SessionHub {
 public:
  /// Builds the engine, with trace/solve-log collection on when the
  /// matching file is configured, and opens the sinks (throws
  /// support::PreconditionError when one cannot be created).
  SessionHub(EngineConfig engine, const SessionConfig& cfg);

  AnalysisEngine& engine() { return engine_; }
  /// Null unless the matching file is configured; flushed when the hub is
  /// destroyed.
  const TraceSink* trace_sink() const { return trace_sink_.get(); }
  const TraceSink* solve_log_sink() const { return solve_log_sink_.get(); }

 private:
  friend class Session;

  void record_slo(const Response& resp) RSAT_EXCLUDES(slo_mu_);
  /// " slo_ms=... slo.<op>.ok=... slo.<op>.breach=... slo.<op>.breach_rate=..."
  /// (name-sorted), appended to the stats line when --slo-ms is set.
  std::string render_slo_fields() const RSAT_EXCLUDES(slo_mu_);

  const SessionConfig cfg_;
  AnalysisEngine engine_;
  std::unique_ptr<TraceSink> trace_sink_;
  std::unique_ptr<TraceSink> solve_log_sink_;

  /// Held across a line's parse and dispatch, so taking an id and advancing
  /// the sequence are one step whichever thread feeds.
  support::Mutex id_mu_;
  std::uint64_t next_id_ RSAT_GUARDED_BY(id_mu_) = 1;

  struct SloMetrics {
    support::Counter* ok = nullptr;
    support::Counter* breach = nullptr;
  };
  mutable support::Mutex slo_mu_;
  /// Registered lazily on an op's first emitted response; the counters
  /// live in the engine registry, so stats and metrics snapshots see them.
  std::map<std::string, SloMetrics> slo_ RSAT_GUARDED_BY(slo_mu_);
};

/// What feed() did with one line.
enum class LineKind {
  Skipped,    // blank or comment: no slot
  Submitted,  // an operation request went to the engine
  Control,    // cancel/drain/stats/metrics
  Error,      // malformed: a status=error result line
};

/// What one emit call rendered.
struct Emitted {
  std::size_t lines = 0;  // slots emitted (a metrics body counts once)
  std::size_t slow = 0;   // responses over SessionConfig::slow_ms
  /// ok responses whose solve stopped early, by cause. Counted per emitted
  /// line, so a cache hit or a coalesced waiter sharing an early-stopped
  /// payload counts again.
  std::size_t cancelled = 0;
  std::size_t timed_out = 0;
};

class Session {
 public:
  static constexpr std::size_t kMaxPending = 256;

  explicit Session(SessionHub& hub) : hub_(hub) {}

  /// Below the slot cap and not held behind a drain barrier.
  bool accepting() const RSAT_EXCLUDES(mu_);

  /// Waits until accepting(), then parses one line (a trailing CR is
  /// dropped) and queues its slot. Every line, blank ones included,
  /// advances the line number error lines report.
  LineKind feed(std::string line) RSAT_EXCLUDES(mu_);

  /// Counts a line the caller refused to parse (e.g. an oversized one) and
  /// queues a status=error result line carrying `msg`.
  void reject(const std::string& msg) RSAT_EXCLUDES(mu_);

  /// Appends every ready slot, in order, to *out (newline-terminated),
  /// stopping at the first unresolved request. With `wait`, first waits
  /// for a slot and its response; it then returns no lines only once
  /// close() was called and every slot has been emitted.
  Emitted emit(std::string* out, bool wait) RSAT_EXCLUDES(mu_);

  /// No more lines will be fed; wakes a waiting emit().
  void close() RSAT_EXCLUDES(mu_);

  /// No slot awaits emission.
  bool idle() const RSAT_EXCLUDES(mu_);

 private:
  struct Slot {
    enum class Kind { Line, Drain, Stats, Metrics, Response };
    Kind kind = Kind::Line;
    std::string line;  // Line and Drain: the pre-rendered line
    std::future<Response> fut;
  };

  std::string error_line(std::uint64_t id, const std::string& msg) const;
  void push(Slot slot) RSAT_EXCLUDES(mu_);
  /// Pops the front slot once its response (if any) has resolved. With
  /// `wait`, waits for that; otherwise returns false when it is not ready.
  /// Also false when the session is empty (waiting: empty and closed).
  bool pop_front(Slot* slot, bool wait) RSAT_EXCLUDES(mu_);
  void render(Slot& slot, std::string* out, Emitted* emitted);
  bool accepting_locked() const RSAT_REQUIRES(mu_);

  SessionHub& hub_;
  int lineno_ = 0;  // touched only by the feeding thread

  mutable support::Mutex mu_;
  support::CondVar cv_;
  std::deque<Slot> slots_ RSAT_GUARDED_BY(mu_);
  bool barrier_ RSAT_GUARDED_BY(mu_) = false;  // a drain slot is queued
  bool closed_ RSAT_GUARDED_BY(mu_) = false;
};

}  // namespace rs::service
