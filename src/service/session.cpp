#include "service/session.hpp"

#include <chrono>
#include <cstdio>
#include <utility>

#include "support/timer.hpp"

namespace rs::service {

SessionHub::SessionHub(EngineConfig engine, const SessionConfig& cfg)
    : cfg_(cfg), engine_([&] {
        engine.trace = engine.trace || !cfg.trace_file.empty();
        engine.solve_log = engine.solve_log || !cfg.solve_log_file.empty();
        return engine;
      }()) {
  if (!cfg_.trace_file.empty()) {
    trace_sink_ = std::make_unique<TraceSink>(cfg_.trace_file);
  }
  if (!cfg_.solve_log_file.empty()) {
    solve_log_sink_ = std::make_unique<TraceSink>(cfg_.solve_log_file);
  }
}

void SessionHub::record_slo(const Response& resp) {
  // Error payloads that never resolved an operation have nowhere to count.
  if (resp.payload == nullptr || resp.payload->op == nullptr) return;
  const std::string name(resp.payload->op->name());
  support::LockGuard lock(slo_mu_);
  auto it = slo_.find(name);
  if (it == slo_.end()) {
    const std::string prefix = "slo." + name + ".";
    support::MetricsRegistry& m = engine_.metrics();
    it = slo_.emplace(name, SloMetrics{&m.counter(prefix + "ok"),
                                       &m.counter(prefix + "breach")})
             .first;
  }
  (resp.millis > cfg_.slo_ms ? it->second.breach : it->second.ok)->inc();
}

std::string SessionHub::render_slo_fields() const {
  char buf[96];
  std::snprintf(buf, sizeof buf, " slo_ms=%.3f", cfg_.slo_ms);
  std::string out = buf;
  support::LockGuard lock(slo_mu_);
  for (const auto& [name, m] : slo_) {  // std::map: name-sorted
    const std::uint64_t ok = m.ok->value();
    const std::uint64_t breach = m.breach->value();
    const double rate =
        ok + breach == 0
            ? 0.0
            : static_cast<double>(breach) / static_cast<double>(ok + breach);
    std::snprintf(buf, sizeof buf,
                  " slo.%s.ok=%llu slo.%s.breach=%llu slo.%s.breach_rate=%.3f",
                  name.c_str(), static_cast<unsigned long long>(ok),
                  name.c_str(), static_cast<unsigned long long>(breach),
                  name.c_str(), rate);
    out += buf;
  }
  return out;
}

bool Session::accepting_locked() const {
  return !barrier_ && slots_.size() < kMaxPending;
}

bool Session::accepting() const {
  support::LockGuard lock(mu_);
  return accepting_locked();
}

std::string Session::error_line(std::uint64_t id,
                                const std::string& msg) const {
  return "result id=" + std::to_string(id) + " status=error name=line" +
         std::to_string(lineno_) + " msg=" + escape_field(msg);
}

LineKind Session::feed(std::string line) {
  {
    support::UniqueLock lock(mu_);
    while (!accepting_locked()) cv_.wait(lock);
  }
  ++lineno_;
  if (!line.empty() && line.back() == '\r') line.pop_back();
  if (is_blank_or_comment(line)) return LineKind::Skipped;
  AnalysisEngine& engine = hub_.engine_;
  Slot slot;
  LineKind kind = LineKind::Control;
  {
    support::LockGuard ids(hub_.id_mu_);
    try {
      const support::Timer parse;
      Command cmd =
          parse_command_line(line, hub_.next_id_, hub_.cfg_.protocol);
      switch (cmd.kind) {
        case CommandKind::Submit:
          ++hub_.next_id_;
          cmd.request.parse_ms = parse.millis();
          slot.kind = Slot::Kind::Response;
          slot.fut = engine.submit(std::move(cmd.request));
          kind = LineKind::Submitted;
          break;
        case CommandKind::Cancel:
          slot.line =
              render_cancel_ack(cmd.cancel_id, engine.cancel(cmd.cancel_id));
          break;
        case CommandKind::Drain:
          slot.kind = Slot::Kind::Drain;
          slot.line = render_drain_ack();
          break;
        case CommandKind::Stats:
          slot.kind = Slot::Kind::Stats;
          break;
        case CommandKind::Metrics:
          slot.kind = Slot::Kind::Metrics;
          break;
      }
    } catch (const std::exception& e) {
      slot.line = error_line(hub_.next_id_++, e.what());
      kind = LineKind::Error;
    }
  }
  push(std::move(slot));
  return kind;
}

void Session::reject(const std::string& msg) {
  ++lineno_;
  Slot slot;
  {
    support::LockGuard ids(hub_.id_mu_);
    slot.line = error_line(hub_.next_id_++, msg);
  }
  push(std::move(slot));
}

void Session::push(Slot slot) {
  {
    support::LockGuard lock(mu_);
    if (slot.kind == Slot::Kind::Drain) barrier_ = true;
    slots_.push_back(std::move(slot));
  }
  cv_.notify_all();
}

bool Session::pop_front(Slot* slot, bool wait) {
  support::UniqueLock lock(mu_);
  while (wait && slots_.empty() && !closed_) cv_.wait(lock);
  if (slots_.empty()) return false;
  Slot& front = slots_.front();
  if (front.kind == Slot::Kind::Response) {
    if (wait) {
      // Wait unlocked so the feeder can keep queueing. Only the emitting
      // thread pops, and std::deque::push_back keeps references to
      // existing elements valid, so `front` stays put meanwhile.
      lock.unlock();
      front.fut.wait();
      lock.lock();
    } else if (front.fut.wait_for(std::chrono::seconds(0)) !=
               std::future_status::ready) {
      return false;
    }
  }
  *slot = std::move(slots_.front());
  slots_.pop_front();
  if (slot->kind == Slot::Kind::Drain) barrier_ = false;
  lock.unlock();
  cv_.notify_all();  // wake a feeder held by the cap or the barrier
  return true;
}

void Session::render(Slot& slot, std::string* out, Emitted* emitted) {
  ++emitted->lines;
  switch (slot.kind) {
    case Slot::Kind::Line:
    case Slot::Kind::Drain:
      out->append(slot.line).push_back('\n');
      return;
    case Slot::Kind::Stats:
      *out += render_stats_line(hub_.engine_.stats());
      if (hub_.cfg_.slo_ms > 0) *out += hub_.render_slo_fields();
      *out += '\n';
      return;
    case Slot::Kind::Metrics:
      // Multi-line body, framed by its terminating "# EOF\n" line.
      *out += hub_.engine_.metrics().to_prometheus();
      return;
    case Slot::Kind::Response:
      break;
  }
  const Response resp = slot.fut.get();
  const support::Timer encode;
  const std::string line = render_response(resp);
  const double encode_ms = encode.millis();
  out->append(line).push_back('\n');
  if (resp.payload->ok) {
    switch (resp.payload->stats.stop) {
      case support::StopCause::Cancelled: ++emitted->cancelled; break;
      case support::StopCause::TimedOut: ++emitted->timed_out; break;
      default: break;
    }
  }
  const SessionConfig& cfg = hub_.cfg_;
  if (cfg.slow_ms > 0 && resp.millis >= cfg.slow_ms) {
    ++emitted->slow;
    std::fprintf(stderr,
                 "rsat serve: slow request id=%llu name=%s ms=%.3f "
                 "cached=%d\n",
                 static_cast<unsigned long long>(resp.id), resp.name.c_str(),
                 resp.millis, resp.cache_hit ? 1 : 0);
  }
  if (resp.trace != nullptr && hub_.trace_sink_ != nullptr) {
    resp.trace->encode_ms = encode_ms;
    resp.trace->bytes = line.size() + 1;  // + '\n'
    hub_.trace_sink_->write(*resp.trace);
  }
  if (resp.solve_log != nullptr && hub_.solve_log_sink_ != nullptr) {
    hub_.solve_log_sink_->write_line(
        render_solve_log_json(*resp.solve_log, support::unix_now_seconds()));
  }
  if (cfg.slo_ms > 0) hub_.record_slo(resp);
}

Emitted Session::emit(std::string* out, bool wait) {
  Emitted emitted;
  Slot slot;
  for (bool got = pop_front(&slot, wait); got;
       got = pop_front(&slot, false)) {
    render(slot, out, &emitted);
  }
  return emitted;
}

void Session::close() {
  {
    support::LockGuard lock(mu_);
    closed_ = true;
  }
  cv_.notify_all();
}

bool Session::idle() const {
  support::LockGuard lock(mu_);
  return slots_.empty();
}

}  // namespace rs::service
