// Session: one ordered response stream over a shared engine — request-order
// emission, parse-error lines, control verbs (cancel, the drain barrier,
// stats, metrics), the slot cap, sink writes, and SLO accounting. The
// front ends (`rsat batch`, `rsat serve`) only move bytes in and out of a
// Session, so these tests pin the contract both of them serve.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "ddg/generators.hpp"
#include "ddg/io.hpp"
#include "service/protocol.hpp"
#include "service/session.hpp"
#include "support/fs.hpp"
#include "support/random.hpp"
#include "support/timer.hpp"

namespace rs {
namespace {

using service::Emitted;
using service::LineKind;
using service::Session;
using service::SessionConfig;
using service::SessionHub;

service::EngineConfig two_threads() {
  service::EngineConfig cfg;
  cfg.threads = 2;
  return cfg;
}

/// An analyze line whose exact solve runs for many seconds unbudgeted (a
/// dense layered DAG): it stays in flight until cancelled.
std::string slow_analyze_line() {
  support::Rng rng(11);
  ddg::LayeredDagParams p;
  p.layers = 6;
  p.min_width = 4;
  p.max_width = 6;
  p.edge_prob = 0.8;
  const ddg::Ddg slow =
      ddg::random_layered(rng, ddg::superscalar_model(), p);
  return "analyze ddg=" + service::escape_field(ddg::to_text(slow));
}

/// Reads a session's output one line at a time, waiting for more output
/// once the lines emitted so far are used up ("" after close()).
class LineReader {
 public:
  explicit LineReader(Session& session) : session_(session) {}

  std::string next() {
    std::size_t nl;
    while ((nl = buf_.find('\n')) == std::string::npos) {
      if (session_.emit(&buf_, true).lines == 0) return "";
    }
    std::string line = buf_.substr(0, nl);
    buf_.erase(0, nl + 1);
    return line;
  }

 private:
  Session& session_;
  std::string buf_;
};

/// Emits without waiting until `want` slots are out (or 30 s pass).
Emitted emit_until(Session& session, std::size_t want, std::string* out) {
  Emitted total;
  const support::Timer t;
  while (total.lines < want && t.seconds() < 30) {
    const Emitted e = session.emit(out, false);
    total.lines += e.lines;
    total.slow += e.slow;
    total.cancelled += e.cancelled;
    total.timed_out += e.timed_out;
    if (total.lines < want) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  return total;
}

TEST(Session, EmitsInRequestOrderWhenALaterRequestCompletesFirst) {
  SessionHub hub(two_threads(), {});
  Session session(hub);
  LineReader lines(session);
  EXPECT_EQ(session.feed(slow_analyze_line()), LineKind::Submitted);
  EXPECT_EQ(session.feed("analyze kernel=fir8"), LineKind::Submitted);

  // fir8 completes while the slow solve is still running...
  const support::Timer waited;
  while (hub.engine().stats().completed < 1 && waited.seconds() < 60) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(hub.engine().stats().completed, 1u);
  // ...but nothing may be emitted ahead of the first request.
  std::string out;
  EXPECT_EQ(session.emit(&out, false).lines, 0u);
  EXPECT_TRUE(out.empty());

  EXPECT_EQ(session.feed("cancel 1"), LineKind::Control);
  const auto first = service::parse_fields(lines.next());
  EXPECT_EQ(first.at("id"), "1");
  EXPECT_EQ(first.at("stop"), "cancelled");
  const auto second = service::parse_fields(lines.next());
  EXPECT_EQ(second.at("id"), "2");
  EXPECT_EQ(second.at("name"), "fir8");
  EXPECT_EQ(lines.next(), "cancelled id=1 found=1");
  EXPECT_TRUE(session.idle());
}

TEST(Session, ParseErrorLineHasItsByteForm) {
  SessionHub hub(two_threads(), {});
  Session session(hub);
  EXPECT_EQ(session.feed("# a comment"), LineKind::Skipped);
  EXPECT_EQ(session.feed(""), LineKind::Skipped);
  EXPECT_EQ(session.feed("frobnicate kernel=fir8"), LineKind::Error);
  std::string out;
  EXPECT_EQ(session.emit(&out, false).lines, 1u);
  // The error takes an id from the sequence and names its line number
  // (comments and blank lines count); the message is one escaped token.
  const std::string prefix = "result id=1 status=error name=line3 msg=";
  ASSERT_EQ(out.compare(0, prefix.size(), prefix), 0) << out;
  ASSERT_EQ(out.back(), '\n');
  const std::string msg =
      out.substr(prefix.size(), out.size() - 1 - prefix.size());
  EXPECT_FALSE(msg.empty());
  EXPECT_EQ(msg.find(' '), std::string::npos) << msg;
  EXPECT_EQ(msg, service::escape_field(service::unescape_field(msg)));

  // One id sequence across the hub: the next submission on another
  // session continues it.
  Session other(hub);
  LineReader other_lines(other);
  EXPECT_EQ(other.feed("analyze kernel=fir8"), LineKind::Submitted);
  EXPECT_EQ(service::parse_fields(other_lines.next()).at("id"), "2");
}

TEST(Session, CancelActsWhenFedAndAcksInOrder) {
  SessionHub hub(two_threads(), {});
  Session session(hub);
  LineReader lines(session);
  session.feed(slow_analyze_line() + " id=7");
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  session.feed("cancel 7");
  // The cancel reached the running solve at feed time: its result arrives
  // long before the 30 s default budget, ahead of the ack.
  const support::Timer t;
  const auto result = service::parse_fields(lines.next());
  EXPECT_EQ(result.at("id"), "7");
  EXPECT_EQ(result.at("stop"), "cancelled");
  EXPECT_LT(t.seconds(), 20.0);
  EXPECT_EQ(lines.next(), "cancelled id=7 found=1");
}

TEST(Session, DrainIsABarrierOnItsOwnStream) {
  SessionHub hub(two_threads(), {});
  Session session(hub);
  Session bystander(hub);
  LineReader lines(session);
  session.feed("analyze kernel=lin-ddot");
  EXPECT_TRUE(session.accepting());
  EXPECT_EQ(session.feed("drain"), LineKind::Control);
  EXPECT_FALSE(session.accepting());  // held until the ack is emitted
  EXPECT_TRUE(bystander.accepting());  // other streams are not stalled

  // A feeder blocks behind the barrier until the printer emits the ack.
  std::thread feeder([&] { session.feed("cancel 1"); });
  EXPECT_EQ(service::parse_fields(lines.next()).at("status"), "ok");
  EXPECT_EQ(lines.next(), "drained");
  feeder.join();
  // Everything before the drain had resolved when the cancel was parsed,
  // so there was nothing left to cancel.
  EXPECT_EQ(lines.next(), "cancelled id=1 found=0");
  EXPECT_TRUE(session.accepting());
}

TEST(Session, EarlyStopsCountOncePerEmittedResponse) {
  // A timed-out payload is shared by a coalesced duplicate and served
  // again from memory: each of the three result lines counts.
  SessionHub hub(two_threads(), {});
  Session session(hub);
  const std::string line =
      "analyze kernel=complex-mul2 engine=ilp budget=0.1";
  session.feed(line);
  session.feed(line);
  session.feed("drain");
  std::string out;
  Emitted total = emit_until(session, 3, &out);
  session.feed(line);
  const Emitted hit = emit_until(session, 1, &out);
  EXPECT_EQ(total.lines + hit.lines, 4u) << out;
  EXPECT_EQ(total.timed_out + hit.timed_out, 3u) << out;
  EXPECT_EQ(total.cancelled + hit.cancelled, 0u);
}

TEST(Session, StatsReflectsEveryEarlierLine) {
  SessionHub hub(two_threads(), {});
  Session session(hub);
  LineReader lines(session);
  session.feed("analyze kernel=lin-ddot");
  session.feed("analyze kernel=fir8");
  EXPECT_EQ(session.feed("frobnicate"), LineKind::Error);
  EXPECT_EQ(session.feed("stats"), LineKind::Control);
  for (int i = 0; i < 3; ++i) lines.next();
  const auto stats = service::parse_fields(lines.next());
  EXPECT_EQ(stats.at(""), "stats");
  EXPECT_EQ(stats.at("submitted"), "2");
  EXPECT_EQ(stats.at("completed"), "2");
  EXPECT_EQ(stats.at("op.analyze.submitted"), "2");
  EXPECT_EQ(stats.at("errors"), "0");  // the parse error never ran
  EXPECT_EQ(stats.count("slo_ms"), 0u);  // no objective configured
}

TEST(Session, MetricsBodyIsFramedByEof) {
  SessionHub hub(two_threads(), {});
  Session session(hub);
  session.feed("metrics");
  EXPECT_EQ(session.feed("stats\r"), LineKind::Control);  // CRLF input
  std::string out;
  // Verbs need no engine work: both slots are ready at once.
  ASSERT_EQ(session.emit(&out, false).lines, 2u);  // the body is one slot
  const std::size_t eof = out.find("# EOF\n");
  ASSERT_NE(eof, std::string::npos) << out;
  EXPECT_NE(out.rfind("# TYPE ", eof), std::string::npos);
  EXPECT_EQ(out.compare(eof + 6, 6, "stats "), 0) << out.substr(eof);
  EXPECT_EQ(out.back(), '\n');
}

TEST(Session, SlotCapStopsAcceptingUntilTheFrontIsEmitted) {
  SessionHub hub(two_threads(), {});
  Session session(hub);
  for (std::size_t i = 0; i < Session::kMaxPending; ++i) {
    ASSERT_TRUE(session.accepting()) << i;
    session.feed("cancel 999");
  }
  EXPECT_FALSE(session.accepting());
  std::string out;
  EXPECT_EQ(session.emit(&out, false).lines, Session::kMaxPending);
  EXPECT_TRUE(session.accepting());
  EXPECT_TRUE(session.idle());

  // close() ends a waiting emitter once the stream is empty.
  session.close();
  out.clear();
  EXPECT_EQ(session.emit(&out, true).lines, 0u);
  EXPECT_TRUE(out.empty());
}

TEST(Session, ReaderAndPrinterThreadsKeepOrderPastTheCap) {
  // The batch shape: one thread feeds (blocking at the cap), another
  // blocks on the front slot and prints.
  SessionHub hub(two_threads(), {});
  Session session(hub);
  constexpr int kLines = 600;
  std::vector<std::string> printed;
  std::thread printer([&] {
    LineReader lines(session);
    for (std::string l = lines.next(); !l.empty(); l = lines.next()) {
      printed.push_back(l);
    }
  });
  const std::string requests[] = {"analyze kernel=fir8",
                                  "analyze kernel=lin-ddot",
                                  "analyze kernel=horner8"};
  for (int i = 0; i < kLines; ++i) {
    session.feed(i % 100 == 99 ? "stats" : requests[i % 3]);
  }
  session.close();
  printer.join();
  ASSERT_EQ(printed.size(), static_cast<std::size_t>(kLines));
  int next_id = 1;
  for (int i = 0; i < kLines; ++i) {
    const auto f = service::parse_fields(printed[i]);
    if (i % 100 == 99) {
      EXPECT_EQ(f.at(""), "stats") << i;
      // Emitted behind every earlier request: all of them completed
      // (later ones may have completed too).
      EXPECT_GE(std::stoi(f.at("completed")), next_id - 1) << i;
      continue;
    }
    EXPECT_EQ(f.at("id"), std::to_string(next_id++)) << i;
  }
}

TEST(Session, EmissionStampsTraceSpansAndWritesSolveLog) {
  const auto dir = std::filesystem::temp_directory_path() / "rs_session_sinks";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  SessionConfig cfg;
  cfg.trace_file = (dir / "trace.jsonl").string();
  cfg.solve_log_file = (dir / "slog.jsonl").string();
  std::string line;
  {
    SessionHub hub(two_threads(), cfg);
    Session session(hub);
    LineReader lines(session);
    ASSERT_NE(hub.trace_sink(), nullptr);
    ASSERT_NE(hub.solve_log_sink(), nullptr);
    session.feed("analyze kernel=fir8");
    session.feed("stats");  // verbs write no events
    line = lines.next();
    lines.next();
    EXPECT_EQ(hub.trace_sink()->written(), 1u);
    EXPECT_EQ(hub.solve_log_sink()->written(), 1u);
  }  // the hub flushes its sinks
  std::string trace, slog;
  ASSERT_TRUE(
      support::read_file_to_string((dir / "trace.jsonl").string(), &trace));
  ASSERT_TRUE(
      support::read_file_to_string((dir / "slog.jsonl").string(), &slog));
  EXPECT_NE(trace.find("\"encode_ms\":"), std::string::npos) << trace;
  // bytes is the emitted line's length including its newline.
  EXPECT_NE(trace.find("\"bytes\":" + std::to_string(line.size() + 1)),
            std::string::npos)
      << trace;
  EXPECT_NE(slog.find("\"ev\":\"solve\""), std::string::npos) << slog;
  EXPECT_NE(slog.find("\"op\":\"analyze\""), std::string::npos) << slog;
  std::filesystem::remove_all(dir);
}

TEST(Session, SloObjectiveCountsOkAndBreach) {
  for (const bool meetable : {true, false}) {
    SessionConfig cfg;
    cfg.slo_ms = meetable ? 1e9 : 1e-6;
    cfg.slow_ms = meetable ? 0 : 1e-6;
    SessionHub hub(two_threads(), cfg);
    Session session(hub);
    session.feed("analyze kernel=fir8");
    session.feed("stats");
    std::string out;
    const Emitted emitted = emit_until(session, 2, &out);
    ASSERT_EQ(emitted.lines, 2u);
    EXPECT_EQ(emitted.slow, meetable ? 0u : 1u);
    const auto stats = service::parse_fields(out.substr(out.find("stats ")));
    EXPECT_EQ(stats.at("slo.analyze.ok"), meetable ? "1" : "0");
    EXPECT_EQ(stats.at("slo.analyze.breach"), meetable ? "0" : "1");
    EXPECT_EQ(stats.at("slo.analyze.breach_rate"),
              meetable ? "0.000" : "1.000");
  }
}

}  // namespace
}  // namespace rs
