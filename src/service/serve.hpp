// SocketServer: a poll-based TCP front end streaming the service line
// protocol (service/protocol.hpp) — the `rsat serve` subsystem.
//
// One network thread multiplexes the listener and every client connection
// with poll(2); solves run on the shared AnalysisEngine thread pool, so a
// slow peer never blocks compute and a long solve never blocks the
// network. Each connection is one service::Session (service/session.hpp),
// driven only through its non-blocking methods: it answers in request
// order as each future resolves, and a malformed line answers status=error
// while the connection stays up. Connections share one engine, store and
// id sequence, so a cancel id= reaches a request on any connection. A
// connection whose session stops accepting lines (the slot cap, or a drain
// not yet answered) leaves the poll set for input until responses flush.
//
// Shutdown (shutdown() from any thread, or the should_stop poll — wired
// to SIGINT by rsat serve): stop accepting, cooperatively cancel every
// in-flight solve, flush every pending result line (stop=cancelled), then
// close all connections and return from run(). Peers that stop reading
// are given kDrainGraceSeconds before their connection is dropped.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "service/engine.hpp"
#include "service/session.hpp"
#include "support/socket.hpp"

namespace rs::service {

struct ServeConfig {
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; SocketServer::port() reports the real one.
  int port = 0;
  EngineConfig engine;
  /// Protocol defaults, sinks and latency accounting shared by every
  /// connection's session; responses over session.slow_ms also count as
  /// serve.slow_requests.
  SessionConfig session;
  /// When non-empty, the bound port is written here (atomic write-rename)
  /// once the server is listening — scripts wait for this file instead of
  /// racing the log output.
  std::string port_file;
};

/// The serve.* registry counters the exit summary reports. Every serve.*
/// metric lives in the engine registry, so the metrics verb and
/// --metrics-json read the same values.
struct ServeStats {
  std::uint64_t connections = 0;   // accepted over the server's lifetime
  std::uint64_t requests = 0;      // analyze/reduce submissions
  std::uint64_t parse_errors = 0;  // lines answered with status=error
  std::uint64_t responses = 0;     // result/ack lines written
};

class SocketServer {
 public:
  /// Grace period for flushing pending results to unresponsive peers
  /// during shutdown.
  static constexpr double kDrainGraceSeconds = 5.0;

  /// Longest accepted request line (inline ddg= payloads included). A
  /// connection that exceeds it mid-line is answered with an error; its
  /// remaining input is read and discarded (so the error line arrives
  /// over an orderly close instead of being lost to a RST) — otherwise a
  /// newline-free byte stream would grow the input buffer without bound.
  static constexpr std::size_t kMaxLineBytes = std::size_t{8} << 20;

  /// Binds and listens immediately (throws support::PreconditionError on
  /// bind failure) and writes port_file if configured; run() starts
  /// serving.
  explicit SocketServer(const ServeConfig& cfg);
  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  int port() const { return listener_.port(); }
  AnalysisEngine& engine() { return hub_.engine(); }

  /// Serves until shutdown() is called or `should_stop` (polled every
  /// loop iteration, ~20 ms) returns true, then performs the
  /// cancel-drain-close sequence described above. Call from one thread.
  void run(const std::function<bool()>& should_stop = {});

  /// Thread-safe: makes run() begin its drain-and-exit sequence.
  void shutdown() { stop_.store(true); }

  ServeStats serve_stats() const;

  /// The engine, sinks and id sequence every connection's session shares.
  const SessionHub& hub() const { return hub_; }

 private:
  struct Conn;

  // Concurrency discipline: the server holds no mutex of its own. All
  // connection state (conns_, each Conn's buffers, accept_backoff_) is
  // owned by the single thread inside run(); the only cross-thread
  // channels are stop_ (an atomic flag set by shutdown()), the sessions
  // (which lock internally), and the lock-free metric references below.
  // Adding a second network thread means introducing support::Mutex +
  // RSAT_GUARDED_BY here first — do not reach for a bare std::mutex (lint
  // rule `bare-mutex`).

  void accept_new();
  void read_conn(Conn& c);
  void process_lines(Conn& c);
  void feed(Conn& c, std::string line);
  void flush_conn(Conn& c);

  ServeConfig cfg_;
  SessionHub hub_;
  support::ListenSocket listener_;
  std::atomic<bool> stop_{false};
  /// Loop iterations left to skip polling the listener after an accept
  /// failure that leaves the connection queued (e.g. fd exhaustion).
  int accept_backoff_ = 0;
  std::vector<std::unique_ptr<Conn>> conns_;

  // serve.* registry entries (registered in the engine's registry so the
  // whole process shares one metrics namespace). All owned by engine_'s
  // registry; cached here once at construction.
  support::Counter& connections_;
  support::Gauge& open_conns_;
  support::Counter& requests_;
  support::Counter& responses_;
  support::Counter& parse_errors_;
  support::Counter& bytes_in_;
  support::Counter& bytes_out_;
  support::Counter& backpressure_stalls_;
  support::Counter& slow_requests_;
};

}  // namespace rs::service
