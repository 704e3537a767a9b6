#ifndef PDM_SERVER_CLIENT_H_
#define PDM_SERVER_CLIENT_H_

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "broker/broker.h"
#include "common/status.h"
#include "metrics/metrics.h"
#include "server/net.h"
#include "server/wire.h"

/// \file
/// Blocking `pdm.wire.v1` client (DESIGN.md §10).
///
/// Two surfaces over one connection:
///
///  * Synchronous calls (`Resolve`, `PostPrice`, `Observe`, ...) mirror the
///    `Broker` method signatures one-to-one: send one frame, wait for its
///    response, reconstruct the `pdm::Status`. A scenario driven through
///    these calls is bit-identical to driving the broker in-process
///    (tests/server_test.cc).
///
///  * Pipelined calls (`QueuePostPrice`/`QueueObserve` + `Flush` +
///    `ReadResponse`) queue many frames before writing, letting the server
///    coalesce the run into batched broker calls; `ReadResponse` decodes
///    responses in server order (which is request order). The load
///    generator and the coalescing tests live on this surface.
///
/// A `Client` is single-threaded by contract — one connection, one request
/// stream. Concurrency is modeled as one Client per thread (the server
/// multiplexes).
///
/// Resilience (DESIGN.md §14): a `ClientConfig` adds per-call deadlines
/// (bounded response waits), transparent reconnect with decorrelated-jitter
/// backoff, and automatic retry of *idempotent* calls (Ping, Resolve,
/// EstimateValue, GetMetrics) on transient transport failures. Mutating
/// calls (PostPrice, Observe, and the batch ops) are at-most-once: a
/// transport failure surfaces as `Unavailable` and is never resent — the
/// caller cannot know whether the broker executed the request, so replaying
/// it could double-issue a ticket or double-apply feedback.

namespace pdm::server {

/// Knobs for deadlines, retries, and reconnect backoff. The defaults are
/// the pre-§14 behavior: block forever, never retry.
struct ClientConfig {
  /// Per-call bound on each response wait, enforced with poll() before
  /// every blocking read; the spin before it counts against the bound. On
  /// expiry the call returns DeadlineExceeded and the connection is dropped
  /// (the stream is desynced — a late response would be mis-matched to the
  /// next request). 0: wait forever.
  int deadline_ms = 0;
  /// Extra attempts for idempotent calls after a transient (`Unavailable`)
  /// transport failure; each retry reconnects first. 0: no retries.
  int max_retries = 0;
  /// Decorrelated-jitter backoff between retry attempts:
  /// sleep = uniform(base, min(cap, 3 * previous_sleep)).
  int backoff_base_ms = 10;
  int backoff_cap_ms = 2000;
  /// Seed for the backoff jitter stream (deterministic tests).
  uint64_t jitter_seed = 0x853c49e6748fea9bULL;
};

/// One decoded response frame (union-style: the fields that matter depend
/// on `op`; `status` is always meaningful).
struct Response {
  Opcode op = Opcode::kPing;
  uint64_t id = 0;
  Status status;
  broker::Quote quote;                 ///< kPostPrice
  broker::ProductHandle handle;        ///< kResolve
  ValueInterval interval;              ///< kEstimateValue
  std::vector<broker::Quote> quotes;   ///< kPostPrices
  std::vector<StatusCode> codes;       ///< kObserves
  metrics::MetricsDump metrics;        ///< kGetMetrics
};

class Client {
 public:
  Client() = default;
  explicit Client(const ClientConfig& config) : config_(config) {}
  ~Client() = default;

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connects to `host:port` (TCP_NODELAY). Errors: FailedPrecondition.
  /// The endpoint is remembered for `Reconnect`.
  Status Connect(const std::string& host, uint16_t port);
  void Disconnect();
  bool connected() const { return fd_.valid(); }

  /// Drops the current connection (discarding queued and pending bytes) and
  /// dials the endpoint from the last `Connect`. Errors: FailedPrecondition
  /// when `Connect` was never called, Unavailable when the dial fails.
  Status Reconnect();

  /// Idempotent-call retries performed (each preceded by a backoff sleep).
  int64_t retries() const { return retries_; }
  /// Successful re-dials, both explicit and automatic.
  int64_t reconnects() const { return reconnects_; }
  /// Response waits by how they ended (DESIGN.md §10): bytes arrived while
  /// spinning, or the spin window closed and the wait fell through to a
  /// blocking recv (or, under a deadline, poll).
  int64_t waits_spun() const { return waits_spun_; }
  int64_t waits_blocked() const { return waits_blocked_; }

  // ------------------------------------------------- synchronous calls

  /// Round-trip liveness probe.
  Status Ping();

  Status Resolve(std::string_view product, broker::ProductHandle* handle);
  Status PostPrice(broker::ProductHandle handle, std::span<const double> features,
                   double reserve, broker::Quote* quote);
  Status Observe(uint64_t ticket, bool accepted);
  Status EstimateValue(broker::ProductHandle handle, std::span<const double> features,
                       ValueInterval* out);

  /// Fetches the server's metric registry as a decoded `pdm.metrics.v1`
  /// dump — the wire-native alternative to scraping the HTTP metrics port.
  Status GetMetrics(metrics::MetricsDump* out);

  /// Wire batch ops (one frame each; mirror the Broker batch semantics:
  /// per-item codes plus first-error Status).
  Status PostPrices(std::span<const broker::HandleRequest> requests,
                    std::span<broker::Quote> quotes);
  Status Observes(std::span<const broker::FeedbackRequest> feedback,
                  std::span<StatusCode> codes = {});

  // -------------------------------------------------- pipelined surface

  /// Queues one request frame without writing; returns its request id.
  uint64_t QueuePostPrice(broker::ProductHandle handle,
                          std::span<const double> features, double reserve);
  uint64_t QueueObserve(uint64_t ticket, bool accepted);
  uint64_t QueuePing();

  /// Writes every queued frame to the socket (one send stream — the server
  /// sees the whole run at once and can coalesce it).
  Status Flush();

  /// Blocking-reads and decodes the next response frame. Responses arrive
  /// in request order. `out->status` carries the op's outcome; the returned
  /// Status reports transport/decode failures only.
  Status ReadResponse(Response* out);

 private:
  uint64_t NextId() { return next_id_++; }
  /// Reads until `pending_` holds one complete frame; yields its payload as
  /// a view into `pending_` and the frame's length there, which the caller
  /// erases once it has decoded the payload. Honors `config_.deadline_ms`;
  /// transport failures poison the connection.
  Status ReadFrame(std::string_view* payload, size_t* frame_bytes);
  /// Decodes one response payload into `*out`. A connection-level error
  /// frame drops the connection after its message is read.
  Status DecodeResponse(std::string_view payload, Response* out);
  /// One wait for response bytes, appended to `pending_`: a nonblocking recv
  /// retried for up to `kSpinWindow` (never past `deadline` when `bounded`),
  /// then a blocking one. Expiry and transport failures poison the
  /// connection.
  Status Receive(bool bounded, std::chrono::steady_clock::time_point deadline);
  /// One request/response exchange for the synchronous surface. Reconnects
  /// a dropped connection before sending; when `idempotent`, retries
  /// Unavailable transport failures up to `config_.max_retries` times with
  /// backoff. Non-idempotent frames are sent at most once.
  Status Transact(bool idempotent, std::string_view frame, Response* resp);
  /// Sleeps the next decorrelated-jitter backoff interval.
  void BackoffSleep();

  ClientConfig config_;
  UniqueFd fd_;
  std::string host_;  ///< endpoint from the last Connect ("" = never dialed)
  uint16_t port_ = 0;
  uint64_t next_id_ = 1;
  std::string queued_;   ///< frames queued and not yet written
  std::string pending_;  ///< bytes read and not yet decoded
  uint64_t jitter_state_ = 0;
  int prev_backoff_ms_ = 0;
  int64_t retries_ = 0;
  int64_t reconnects_ = 0;
  int64_t waits_spun_ = 0;
  int64_t waits_blocked_ = 0;
};

}  // namespace pdm::server

#endif  // PDM_SERVER_CLIENT_H_
