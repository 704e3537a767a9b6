#ifndef PDM_SERVER_SERVER_H_
#define PDM_SERVER_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "broker/broker.h"
#include "common/status.h"
#include "metrics/metrics.h"
#include "server/net.h"
#include "server/wire.h"

/// \file
/// The TCP serving front end: a `TcpServer` exposes one `Broker` over the
/// `pdm.wire.v1` framed protocol (DESIGN.md §10).
///
/// Architecture: one event-loop thread multiplexes the listen socket and
/// every accepted connection through `poll`, with nonblocking I/O and
/// per-connection read/write buffers. Requests of one connection are
/// answered strictly in arrival order; different connections interleave
/// freely. There is no per-connection thread — the broker's contention story
/// (snapshot directory, per-session locks) already scales across callers, so
/// the server's job is purely to move frames, and a single loop keeps the
/// serving path allocation-light and trivially TSan-clean.
///
/// Every `kPostPrice` (or `kObserve`) frame is served through one
/// `Broker::PostPrices` (`Observes`) call, and pipelining is rewarded: when a
/// connection's read buffer holds a *run* of consecutive such frames, the
/// loop coalesces the run into one call — one session-lock acquisition per
/// run instead of one per request — then emits the per-frame responses
/// individually. A lone frame is a run of one. A client that pipelines N
/// requests gets batch-path throughput without ever speaking the batch
/// opcodes.
///
/// Shutdown drains gracefully: `Stop()` stops accepting, serves every frame
/// already buffered, flushes pending responses, and closes connections —
/// bounded by `ServerConfig::drain_timeout_ms` so a stalled peer cannot wedge
/// shutdown.

namespace pdm::server {

struct ServerConfig {
  /// IPv4 literal to bind.
  std::string host = "127.0.0.1";
  /// 0 picks an ephemeral port; read it back through `port()`.
  uint16_t port = 0;
  /// Upper bound on the Stop() drain (flushing responses to slow peers).
  int drain_timeout_ms = 2000;
  /// Second listen port serving the Prometheus text-exposition scrape
  /// (`GET /metrics` — any HTTP request gets the full registry). -1 disables
  /// the scrape endpoint, 0 picks an ephemeral port (read it back through
  /// `metrics_port()`).
  int metrics_port = -1;
  /// Registry backing the server's instruments, the scrape endpoint, and
  /// the `GetMetrics` opcode. Share it with the broker's `BrokerConfig::
  /// metrics` so one scrape covers both layers. Null: the server creates a
  /// private registry (server instruments only) — `stats()` and `GetMetrics`
  /// always read real cells, never sinks. Must outlive the server.
  metrics::MetricRegistry* metrics = nullptr;
  /// Overload protection (DESIGN.md §14): once a connection's unflushed
  /// response backlog exceeds this many bytes, its further frames are
  /// *shed* — each is answered with a small ResourceExhausted error frame
  /// instead of being served — until the peer drains its responses. Guards
  /// against a client that pipelines requests without ever reading. 0
  /// disables the cap.
  size_t max_buffered_bytes = size_t{4} << 20;
  /// Cap on complete frames served from one connection per read wakeup;
  /// frames beyond the cap are shed with ResourceExhausted. Bounds the time
  /// one pipelining client can monopolize the event loop. 0 disables.
  size_t max_inflight_frames = 4096;
  /// Idle-connection reaper: a wire connection with no inbound traffic for
  /// this long is sent a best-effort error frame and closed. 0 (default)
  /// never reaps. Scrape connections are exempt (they are one-shot);
  /// connections awaiting a final error-frame flush are not — a violating
  /// peer that never reads dies undrained once silent past the limit.
  int idle_timeout_ms = 0;
  /// Fixed SO_SNDBUF for accepted sockets, in bytes; setting it disables
  /// kernel send-buffer autotuning. 0 (default) keeps the kernel default.
  /// The chaos suite uses it to make write-backlog scenarios deterministic.
  int so_sndbuf = 0;
};

/// Monitoring counters, readable concurrently with the event loop; a
/// registry-backed view (the same cells the scrape endpoint renders).
/// Broker request totals and memory-engine occupancy live on
/// Broker::Stats(), and the `pdm_broker_*` instruments pull the same sums
/// at scrape time (DESIGN.md §13).
struct ServerStats {
  int64_t connections_accepted = 0;
  int64_t frames_served = 0;
  /// Frames answered through a coalesced PostPrices/Observes run (subset of
  /// frames_served) and the number of such runs (>= 2 frames each; a lone
  /// frame is a run of one and counts in neither).
  int64_t frames_coalesced = 0;
  int64_t coalesced_runs = 0;
  /// Connections dropped for framing violations (oversized/truncated
  /// frames, unknown opcodes decode to error responses, not drops). Since
  /// DESIGN.md §14 the violating connection is first sent a final error
  /// frame (opcode 0, id 0) so the peer can distinguish "you desynced" from
  /// a silent reset.
  int64_t protocol_errors = 0;
  /// Frames answered with ResourceExhausted by overload shedding
  /// (`max_buffered_bytes` / `max_inflight_frames`, DESIGN.md §14).
  int64_t shed_frames = 0;
  /// Connections closed by the idle reaper (`idle_timeout_ms`).
  int64_t idle_reaped = 0;
  /// Event-loop waits by how they ended (DESIGN.md §10): an fd was ready
  /// while the loop spun, or the loop blocked in poll().
  int64_t waits_spun = 0;
  int64_t waits_blocked = 0;
};

class TcpServer {
 public:
  /// `broker` must outlive the server and is shared with any in-process
  /// callers — the wire surface and the C++ surface hit the same sessions.
  TcpServer(broker::Broker* broker, const ServerConfig& config = {});
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Binds, listens, and starts the event-loop thread. Errors:
  /// FailedPrecondition (bind/listen failure), InvalidArgument (bad host).
  Status Start();

  /// Graceful drain: stop accepting, serve buffered frames, flush, close.
  /// Idempotent; returns once the loop thread has exited.
  void Stop();

  /// The bound port (valid after Start succeeded).
  uint16_t port() const { return port_; }
  /// The bound scrape port (valid after Start succeeded with
  /// `metrics_port >= 0`; 0 when the endpoint is disabled).
  uint16_t metrics_port() const { return metrics_port_; }
  bool running() const { return running_.load(std::memory_order_acquire); }

  ServerStats stats() const;

  /// The registry backing this server's instruments (the configured one, or
  /// the private fallback).
  metrics::MetricRegistry* registry() const { return registry_; }

 private:
  struct Connection;
  struct RunBuffers;

  void EventLoop();
  void AcceptNew(int listen_fd, bool scrape);
  /// Serves every complete frame in `conn`'s read buffer; returns false when
  /// the connection must be dropped. A framing violation buffers a final
  /// error frame (opcode 0, id 0, InvalidArgument) and schedules close-after-
  /// flush instead of dropping instantly (DESIGN.md §14); frames past the
  /// overload caps are shed with ResourceExhausted error responses.
  bool ServeBufferedFrames(Connection* conn);
  /// Answers a buffered HTTP scrape request once its header is complete;
  /// the response is followed by close (HTTP/1.0, no keep-alive).
  void ServeScrape(Connection* conn);
  /// Decodes and answers one frame into `conn`'s write buffer — any frame
  /// except a decodable PostPrice/Observe frame, which ServeRun serves.
  void ServeFrame(Connection* conn, std::string_view payload);
  /// Serves the frame at `frames[at]`. A PostPrice (Observe) frame starts a
  /// run of consecutive decodable frames of its opcode, served by one
  /// Broker::PostPrices (Observes) call — a lone frame is a run of one;
  /// every other frame goes to ServeFrame. Returns the number of frames
  /// consumed (>= 1).
  size_t ServeRun(Connection* conn, const std::vector<std::string_view>& frames,
                  size_t at);
  /// Counts a served run's frames; runs of two or more also count as
  /// coalesced.
  void CountRun(uint8_t op, size_t frames);
  /// Nonblocking flush of `conn`'s write buffer; false on fatal write error.
  bool FlushWrites(Connection* conn);

  broker::Broker* broker_;
  ServerConfig config_;

  UniqueFd listen_fd_;
  UniqueFd metrics_listen_fd_;
  UniqueFd wake_read_, wake_write_;  ///< self-pipe: Stop() wakes poll()
  uint16_t port_ = 0;
  uint16_t metrics_port_ = 0;

  std::thread loop_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};

  std::vector<std::unique_ptr<Connection>> connections_;
  /// When the loop last served a frame: it spins before blocking only within
  /// `kSpinWindow` of it (DESIGN.md §10). Loop thread only.
  std::chrono::steady_clock::time_point last_served_{};

  /// Instrument handles, resolved once in the constructor (DESIGN.md §13).
  /// `frames_by_op[op]` covers opcodes 1..kGetMetrics; index 0 counts
  /// invalid-opcode frames. These cells ARE the stats() surface — the old
  /// per-server atomics were deleted rather than double-written.
  struct Instruments {
    metrics::Counter connections;
    metrics::Counter frames_by_op[static_cast<size_t>(Opcode::kGetMetrics) + 1];
    metrics::Counter frames_coalesced;
    metrics::Counter coalesced_runs;
    metrics::Counter protocol_errors;
    metrics::Counter shed_frames;
    metrics::Counter idle_reaped;
    metrics::Counter waits_spun;
    metrics::Counter waits_blocked;
    metrics::Gauge active_connections;
    metrics::Histogram request_ns;
  };

  metrics::MetricRegistry* registry_ = nullptr;
  std::unique_ptr<metrics::MetricRegistry> own_registry_;
  Instruments metrics_;
  /// ServeRun's buffers, reused run after run (defined in server.cc).
  std::unique_ptr<RunBuffers> run_;
};

}  // namespace pdm::server

#endif  // PDM_SERVER_SERVER_H_
