#include "server/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <iterator>

#include "common/fault.h"
#include "common/status.h"

namespace pdm::server {
namespace {

using pdm::broker::FeedbackRequest;
using pdm::broker::HandleRequest;
using pdm::broker::ProductHandle;
using pdm::broker::Quote;

/// Fixed request/response header: u8 opcode + u64 request id.
constexpr size_t kHeaderBytes = 1 + 8;

/// Compact the consumed prefix of a read buffer once it crosses this size
/// (compacting on every frame would make buffered pipelining O(n^2)).
constexpr size_t kCompactThreshold = size_t{64} << 10;

uint8_t QuoteFlags(const Quote& q) {
  uint8_t flags = 0;
  if (q.exploratory) flags |= kQuoteExploratory;
  if (q.certain_no_sale) flags |= kQuoteCertainNoSale;
  return flags;
}

/// Single-op error response: header + message string.
void WriteError(std::string* out, Opcode op, uint64_t id, StatusCode code,
                std::string_view message) {
  ByteWriter w(out);
  size_t frame = w.BeginLength();
  PutResponseHeader(&w, op, id, code);
  w.PutString(message);
  w.EndLength(frame);
}

/// Single kPostPrice OK response.
void WriteQuote(std::string* out, uint64_t id, const Quote& q) {
  ByteWriter w(out);
  size_t frame = w.BeginLength();
  PutResponseHeader(&w, Opcode::kPostPrice, id, StatusCode::kOk);
  w.PutU64(q.ticket);
  w.PutF64(q.price);
  w.PutU8(QuoteFlags(q));
  w.EndLength(frame);
}

/// Decoded single price request (the coalescable op). `features` indexes
/// into the caller's scratch, resolved to spans once the scratch is final.
struct PriceFrame {
  uint64_t id = 0;
  ProductHandle handle;
  double reserve = 0.0;
  size_t features_at = 0;
  size_t features_len = 0;
};

/// Decodes the body of one kPostPrice request, appending features to
/// `*scratch`. False on a malformed body.
bool DecodePriceBody(ByteReader* r, std::vector<double>* scratch, PriceFrame* out) {
  uint32_t n;
  if (!r->GetU32(&out->handle.index)) return false;
  if (!r->GetU32(&out->handle.generation)) return false;
  if (!r->GetF64(&out->reserve)) return false;
  if (!r->GetU32(&n)) return false;
  if (r->remaining() < size_t{n} * 8) return false;
  out->features_at = scratch->size();
  out->features_len = n;
  for (uint32_t i = 0; i < n; ++i) {
    double v = 0.0;
    r->GetF64(&v);
    scratch->push_back(v);
  }
  return r->AtEnd();
}

/// The error message of one failed item of a PostPrice/Observe run. A lone
/// frame answers with the broker's own message; items of a coalesced run
/// only know their status code.
std::string RunErrorMessage(size_t run_size, const Status& status, StatusCode code) {
  if (run_size == 1) return status.message();
  return std::string("batched request failed: ") + StatusCodeName(code);
}

struct ObserveFrame {
  uint64_t id = 0;
  FeedbackRequest feedback;
};

bool DecodeObserveBody(ByteReader* r, ObserveFrame* out) {
  uint8_t accepted;
  if (!r->GetU64(&out->feedback.ticket)) return false;
  if (!r->GetU8(&accepted)) return false;
  out->feedback.accepted = accepted != 0;
  return r->AtEnd();
}

}  // namespace

/// One accepted connection: nonblocking socket plus buffered frame I/O.
struct TcpServer::Connection {
  UniqueFd fd;
  std::string in;
  size_t in_offset = 0;  ///< consumed prefix of `in`
  std::string out;
  size_t out_offset = 0;  ///< flushed prefix of `out`
  bool peer_closed = false;
  bool dead = false;
  /// Accepted on the metrics port: speaks HTTP, not pdm.wire.v1.
  bool scrape = false;
  /// Response fully buffered; close once the write buffer drains. Also set
  /// after a framing violation: the final error frame is the last thing the
  /// peer gets, and further input is discarded rather than parsed.
  bool close_after_flush = false;
  /// Last inbound traffic (or accept), for the idle reaper (§14).
  std::chrono::steady_clock::time_point last_activity;

  bool output_pending() const { return out_offset < out.size(); }
};

/// ServeBufferedFrames' frame list and ServeRun's decode and broker-call
/// buffers. Only the event loop serves frames, so one set is cleared and
/// reused wakeup after wakeup: steady-state runs allocate nothing.
struct TcpServer::RunBuffers {
  std::vector<std::string_view> frames;
  std::vector<double> features;
  std::vector<PriceFrame> prices;
  std::vector<HandleRequest> requests;
  std::vector<Quote> quotes;
  std::vector<ObserveFrame> observes;
  std::vector<FeedbackRequest> feedback;
  std::vector<StatusCode> codes;
};

TcpServer::TcpServer(broker::Broker* broker, const ServerConfig& config)
    : broker_(broker), config_(config), run_(std::make_unique<RunBuffers>()) {
  registry_ = config_.metrics;
  if (registry_ == nullptr) {
    // Private fallback: stats() and GetMetrics must always read real cells,
    // so the server never wires against sinks even when the process didn't
    // provide a registry.
    own_registry_ = std::make_unique<metrics::MetricRegistry>();
    registry_ = own_registry_.get();
  }
  metrics::MetricRegistry& gw = *registry_;
  metrics_.connections = gw.GetCounter("pdm_server_connections_total",
                                       "pdm.wire.v1 connections accepted.");
  static constexpr const char* kOpcodeNames[] = {
      "invalid",     "resolve",  "post_price", "observe", "estimate_value",
      "post_prices", "observes", "ping",       "get_metrics"};
  static_assert(std::size(kOpcodeNames) ==
                static_cast<size_t>(Opcode::kGetMetrics) + 1);
  for (size_t op = 0; op < std::size(kOpcodeNames); ++op) {
    metrics_.frames_by_op[op] =
        gw.GetCounter("pdm_server_frames_total", "Request frames served, by opcode.",
                      {{"opcode", kOpcodeNames[op]}});
  }
  metrics_.frames_coalesced = gw.GetCounter(
      "pdm_server_frames_coalesced_total",
      "Frames answered through a coalesced PostPrices/Observes run.");
  metrics_.coalesced_runs =
      gw.GetCounter("pdm_server_coalesced_runs_total",
                    "Pipelined runs coalesced into one batched broker call.");
  metrics_.protocol_errors = gw.GetCounter(
      "pdm_server_protocol_errors_total",
      "Connections dropped for framing violations.");
  metrics_.shed_frames = gw.GetCounter(
      "pdm_server_shed_frames_total",
      "Frames answered with ResourceExhausted by overload shedding.");
  metrics_.idle_reaped = gw.GetCounter(
      "pdm_server_idle_reaped_total",
      "Connections closed by the idle reaper.");
  static constexpr const char* kWaitsHelp =
      "Event-loop waits, by how they ended: an fd was ready while the loop "
      "spun, or the loop blocked in poll.";
  metrics_.waits_spun =
      gw.GetCounter("pdm_server_waits_total", kWaitsHelp, {{"outcome", "spun"}});
  metrics_.waits_blocked =
      gw.GetCounter("pdm_server_waits_total", kWaitsHelp, {{"outcome", "blocked"}});
  metrics_.active_connections = gw.GetGauge(
      "pdm_server_active_connections",
      "Connections currently held by the event loop (wire and scrape).");
  metrics_.request_ns = gw.GetHistogram(
      "pdm_server_request_ns",
      "Serving latency per run: decode, broker call(s), response encode "
      "(nanoseconds; one sample per run, coalesced or single).");
}

TcpServer::~TcpServer() { Stop(); }

Status TcpServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("server already running");
  }
  Status s = ListenTcp(config_.host, config_.port, &listen_fd_, &port_);
  if (!s.ok()) return s;
  s = SetNonBlocking(listen_fd_.get());
  if (!s.ok()) return s;

  if (config_.metrics_port >= 0) {
    s = ListenTcp(config_.host, static_cast<uint16_t>(config_.metrics_port),
                  &metrics_listen_fd_, &metrics_port_);
    if (!s.ok()) return s;
    s = SetNonBlocking(metrics_listen_fd_.get());
    if (!s.ok()) return s;
  }

  int pipefd[2];
  if (::pipe(pipefd) != 0) {
    return Status::FailedPrecondition(std::string("pipe: ") + std::strerror(errno));
  }
  wake_read_ = UniqueFd(pipefd[0]);
  wake_write_ = UniqueFd(pipefd[1]);
  (void)SetNonBlocking(wake_read_.get());
  (void)SetNonBlocking(wake_write_.get());

  stop_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  loop_ = std::thread(&TcpServer::EventLoop, this);
  return Status::Ok();
}

void TcpServer::Stop() {
  if (!stop_.exchange(true, std::memory_order_acq_rel)) {
    char byte = 1;
    if (wake_write_.valid()) {
      [[maybe_unused]] ssize_t n = ::write(wake_write_.get(), &byte, 1);
    }
  }
  if (loop_.joinable()) loop_.join();
  running_.store(false, std::memory_order_release);
}

ServerStats TcpServer::stats() const {
  // Reads the same registry cells the scrape endpoint renders — there is no
  // second set of counters to drift out of sync.
  ServerStats s;
  s.connections_accepted = static_cast<int64_t>(metrics_.connections.value());
  uint64_t frames = 0;
  for (const metrics::Counter& c : metrics_.frames_by_op) frames += c.value();
  s.frames_served = static_cast<int64_t>(frames);
  s.frames_coalesced = static_cast<int64_t>(metrics_.frames_coalesced.value());
  s.coalesced_runs = static_cast<int64_t>(metrics_.coalesced_runs.value());
  s.protocol_errors = static_cast<int64_t>(metrics_.protocol_errors.value());
  s.shed_frames = static_cast<int64_t>(metrics_.shed_frames.value());
  s.idle_reaped = static_cast<int64_t>(metrics_.idle_reaped.value());
  s.waits_spun = static_cast<int64_t>(metrics_.waits_spun.value());
  s.waits_blocked = static_cast<int64_t>(metrics_.waits_blocked.value());
  return s;
}

void TcpServer::EventLoop() {
  std::vector<pollfd> fds;
  bool draining = false;
  std::chrono::steady_clock::time_point drain_deadline{};

  for (;;) {
    if (!draining && stop_.load(std::memory_order_acquire)) {
      // Drain entry: stop accepting, serve everything already buffered, and
      // give slow peers a bounded window to take their responses.
      draining = true;
      listen_fd_.Reset();
      metrics_listen_fd_.Reset();
      for (auto& conn : connections_) {
        if (conn->dead) continue;
        if (conn->scrape) {
          ServeScrape(conn.get());
          if (!FlushWrites(conn.get())) conn->dead = true;
          continue;
        }
        if (!ServeBufferedFrames(conn.get()) || !FlushWrites(conn.get())) {
          conn->dead = true;
        }
      }
      drain_deadline = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(config_.drain_timeout_ms);
    }

    // Idle reaper (§14): a wire connection silent past the timeout gets a
    // best-effort error frame, one flush attempt, and dies. Scrapes are
    // exempt (one-shot by construction). Connections already scheduled to
    // close (close_after_flush) are NOT exempt: a peer that triggered a
    // framing violation and then never reads its socket would otherwise pin
    // its fd, buffers, and poll slot forever — silent past the limit, it
    // dies with the error frame undrained.
    if (!draining && config_.idle_timeout_ms > 0) {
      const auto now = std::chrono::steady_clock::now();
      const auto limit = std::chrono::milliseconds(config_.idle_timeout_ms);
      for (auto& conn : connections_) {
        if (conn->dead || conn->scrape) continue;
        if (now - conn->last_activity < limit) continue;
        if (!conn->close_after_flush) {
          WriteError(&conn->out, static_cast<Opcode>(0), 0,
                     StatusCode::kUnavailable, "connection closed: idle timeout");
          (void)FlushWrites(conn.get());
        }
        conn->dead = true;
        metrics_.idle_reaped.Increment();
      }
    }

    // Reap connections that are done: dead, fully flushed while the peer
    // (or the drain) has no more input for us, or an answered scrape.
    const size_t conns_before_reap = connections_.size();
    std::erase_if(connections_, [draining](const std::unique_ptr<Connection>& c) {
      return c->dead || ((c->peer_closed || draining) && !c->output_pending()) ||
             (c->close_after_flush && !c->output_pending());
    });
    metrics_.active_connections.Sub(
        static_cast<double>(conns_before_reap - connections_.size()));

    if (draining &&
        (connections_.empty() || std::chrono::steady_clock::now() >= drain_deadline)) {
      break;
    }

    fds.clear();
    if (!draining) {
      fds.push_back({listen_fd_.get(), POLLIN, 0});
      if (metrics_listen_fd_.valid()) {
        fds.push_back({metrics_listen_fd_.get(), POLLIN, 0});
      }
    }
    fds.push_back({wake_read_.get(), POLLIN, 0});
    const size_t first_conn = fds.size();
    const size_t num_conns = connections_.size();
    for (size_t i = 0; i < num_conns; ++i) {
      Connection* conn = connections_[i].get();
      // A violated connection is write-only: its final error frame drains,
      // further input is never parsed.
      short events = (draining || conn->close_after_flush) ? 0 : POLLIN;
      if (conn->output_pending()) events |= POLLOUT;
      fds.push_back({conn->fd.get(), events, 0});
    }

    int timeout_ms = -1;
    if (!draining && config_.idle_timeout_ms > 0) {
      // Coarse tick so idle connections are reaped even when no fd fires.
      timeout_ms = config_.idle_timeout_ms;
    }
    if (draining) {
      auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          drain_deadline - std::chrono::steady_clock::now());
      timeout_ms = static_cast<int>(std::max<int64_t>(0, left.count()));
    }
    // The waiting rule (DESIGN.md §10): within kSpinWindow of the last
    // served frame the peer's next request is likely in flight, so the loop
    // re-polls without blocking until an fd is ready or the window closes,
    // and only then blocks. An idle or draining loop never spins.
    const nfds_t nfds = static_cast<nfds_t>(fds.size());
    const auto spin_end = last_served_ + kSpinWindow;
    int ready = 0;
    if (!draining) {
      while (std::chrono::steady_clock::now() < spin_end &&
             (ready = ::poll(fds.data(), nfds, 0)) == 0) {
      }
    }
    if (ready == 0) {
      metrics_.waits_blocked.Increment();
      ready = ::poll(fds.data(), nfds, timeout_ms);
    } else if (ready > 0) {
      metrics_.waits_spun.Increment();
    }
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;  // poll failure is unrecoverable for the loop
    }

    size_t at = 0;
    if (!draining) {
      if (fds[at].revents & POLLIN) AcceptNew(listen_fd_.get(), /*scrape=*/false);
      ++at;
      if (metrics_listen_fd_.valid()) {
        if (fds[at].revents & POLLIN) {
          AcceptNew(metrics_listen_fd_.get(), /*scrape=*/true);
        }
        ++at;
      }
    }
    if (fds[at].revents & POLLIN) {
      char sink[64];
      while (::read(wake_read_.get(), sink, sizeof sink) > 0) {
      }
    }

    for (size_t i = 0; i < num_conns; ++i) {
      Connection* conn = connections_[i].get();
      short revents = fds[first_conn + i].revents;
      if (revents == 0 || conn->dead) continue;

      if (revents & POLLOUT) {
        if (!FlushWrites(conn)) {
          conn->dead = true;
          continue;
        }
      }
      if (!draining && !conn->close_after_flush &&
          (revents & (POLLIN | POLLHUP | POLLERR))) {
        if (fault::ShouldFail("server.recv_stall")) continue;  // starve a round
        // Read everything available, then serve the buffered frames.
        char chunk[16 << 10];
        for (;;) {
          ssize_t n = ::recv(conn->fd.get(), chunk, sizeof chunk, 0);
          if (n > 0) {
            if (fault::ShouldFail("server.recv_reset")) {
              conn->dead = true;  // simulated mid-frame ECONNRESET
              break;
            }
            conn->in.append(chunk, static_cast<size_t>(n));
            conn->last_activity = std::chrono::steady_clock::now();
            // A short read emptied the socket: what arrives later, a FIN
            // included, is the next poll's readable event.
            if (static_cast<size_t>(n) < sizeof chunk) break;
            continue;
          }
          if (n == 0) {
            conn->peer_closed = true;  // half-close: still flush responses
            break;
          }
          if (errno == EAGAIN || errno == EWOULDBLOCK) break;
          if (errno == EINTR) continue;
          conn->dead = true;
          break;
        }
        if (conn->dead) continue;
        if (conn->scrape) {
          ServeScrape(conn);
          if (!FlushWrites(conn)) conn->dead = true;
          continue;
        }
        if (!ServeBufferedFrames(conn) || !FlushWrites(conn)) conn->dead = true;
      }
    }
  }

  metrics_.active_connections.Sub(static_cast<double>(connections_.size()));
  connections_.clear();
  listen_fd_.Reset();
  metrics_listen_fd_.Reset();
}

void TcpServer::AcceptNew(int listen_fd, bool scrape) {
  for (;;) {
    int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
      return;  // transient accept errors: retry on the next poll round
    }
    UniqueFd owned(fd);
    if (fault::ShouldFail("server.accept")) continue;  // drops `owned`
    if (!SetNonBlocking(fd).ok()) continue;  // drops `owned`
    SetNoDelay(fd);
    if (config_.so_sndbuf > 0) {
      int v = config_.so_sndbuf;
      (void)::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &v, sizeof v);
    }
    auto conn = std::make_unique<Connection>();
    conn->fd = std::move(owned);
    conn->scrape = scrape;
    conn->last_activity = std::chrono::steady_clock::now();
    connections_.push_back(std::move(conn));
    metrics_.active_connections.Add(1.0);
    if (!scrape) metrics_.connections.Increment();
  }
}

void TcpServer::ServeScrape(Connection* conn) {
  if (conn->close_after_flush) return;  // already answered
  // Answer once the request header is complete (blank line). The request
  // line is ignored — every path serves the full registry, which is all a
  // Prometheus scraper (or curl) needs.
  if (conn->in.find("\r\n\r\n") == std::string::npos &&
      conn->in.find("\n\n") == std::string::npos) {
    if (conn->peer_closed) conn->dead = true;  // header never completed
    return;
  }
  std::string body;
  registry_->RenderPrometheus(&body);
  conn->out += "HTTP/1.0 200 OK\r\n";
  conn->out += "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n";
  conn->out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  conn->out += "Connection: close\r\n\r\n";
  conn->out += body;
  conn->close_after_flush = true;
}

bool TcpServer::ServeBufferedFrames(Connection* conn) {
  // Framing violations end the connection, but with a courtesy: the peer
  // gets a final connection-level error frame (opcode 0, id 0 — no request
  // frame can legitimately carry opcode 0) before close, so a desynced
  // client sees *why* instead of a silent reset. Input past the violation
  // is garbage by definition and is discarded unparsed.
  auto violated = [&](std::string_view reason) {
    metrics_.protocol_errors.Increment();
    WriteError(&conn->out, static_cast<Opcode>(0), 0,
               StatusCode::kInvalidArgument, reason);
    conn->close_after_flush = true;
    conn->in.clear();
    conn->in_offset = 0;
    return true;  // the buffered error frame still needs a flush
  };

  // Split out every complete frame first: coalescing needs to see the whole
  // pipelined run, not one frame at a time.
  std::vector<std::string_view>& frames = run_->frames;
  frames.clear();
  size_t offset = conn->in_offset;
  for (;;) {
    std::string_view payload;
    size_t next;
    FrameResult r = NextFrame(conn->in, offset, &payload, &next);
    if (r == FrameResult::kMalformed) {
      return violated("framing violation: oversized frame length");
    }
    if (r == FrameResult::kNeedMore) break;
    frames.push_back(payload);
    offset = next;
  }

  size_t at = 0;
  while (at < frames.size()) {
    // A frame too short for the fixed header cannot be answered (there is
    // no id to echo) — that is a framing violation.
    if (frames[at].size() < kHeaderBytes) {
      return violated("framing violation: frame shorter than request header");
    }
    // Overload shedding (§14): past either cap, answer ResourceExhausted
    // without touching the broker. The error frame is a few dozen bytes, so
    // shedding shrinks the backlog even as it answers every frame.
    const bool over_backlog =
        config_.max_buffered_bytes != 0 &&
        conn->out.size() - conn->out_offset > config_.max_buffered_bytes;
    const bool over_inflight =
        config_.max_inflight_frames != 0 && at >= config_.max_inflight_frames;
    if (over_backlog || over_inflight) {
      ByteReader r(frames[at]);
      uint8_t op = 0;
      uint64_t id = 0;
      r.GetU8(&op);
      r.GetU64(&id);
      WriteError(&conn->out, static_cast<Opcode>(op), id,
                 StatusCode::kResourceExhausted,
                 over_backlog ? "server overloaded: response backlog over cap"
                              : "server overloaded: pipelined frames over cap");
      metrics_.shed_frames.Increment();
      ++at;
      continue;
    }
    const auto run_start = std::chrono::steady_clock::now();
    at += ServeRun(conn, frames, at);
    metrics_.request_ns.Record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - run_start)
            .count()));
  }
  if (!frames.empty()) last_served_ = std::chrono::steady_clock::now();

  conn->in_offset = offset;
  if (conn->in_offset == conn->in.size()) {
    conn->in.clear();
    conn->in_offset = 0;
  } else if (conn->in_offset > kCompactThreshold) {
    conn->in.erase(0, conn->in_offset);
    conn->in_offset = 0;
  }
  return true;
}

size_t TcpServer::ServeRun(Connection* conn, const std::vector<std::string_view>& frames,
                           size_t at) {
  const uint8_t op = static_cast<uint8_t>(frames[at][0]);
  RunBuffers& b = *run_;

  // A run of consecutive single-op kPostPrice (kObserve) frames becomes one
  // batched broker call — one session-lock acquisition per run; a lone frame
  // is a run of one. A frame of another opcode, a short header, or a
  // malformed body ends the run; a malformed first frame is answered by
  // ServeFrame.
  if (op == static_cast<uint8_t>(Opcode::kPostPrice)) {
    b.features.clear();
    b.prices.clear();
    size_t taken = at;
    while (taken < frames.size() && frames[taken].size() >= kHeaderBytes &&
           static_cast<uint8_t>(frames[taken][0]) == op) {
      ByteReader r(frames[taken]);
      uint8_t opcode;
      PriceFrame pf;
      r.GetU8(&opcode);
      r.GetU64(&pf.id);
      if (!DecodePriceBody(&r, &b.features, &pf)) break;
      b.prices.push_back(pf);
      ++taken;
    }
    const size_t n = b.prices.size();
    if (n != 0) {
      b.requests.resize(n);
      b.quotes.assign(n, Quote{});
      for (size_t i = 0; i < n; ++i) {
        b.requests[i].handle = b.prices[i].handle;
        b.requests[i].reserve = b.prices[i].reserve;
        b.requests[i].features = std::span<const double>(
            b.features.data() + b.prices[i].features_at, b.prices[i].features_len);
      }
      const Status status = broker_->PostPrices(b.requests, b.quotes);
      for (size_t i = 0; i < n; ++i) {
        if (b.quotes[i].status == StatusCode::kOk) {
          WriteQuote(&conn->out, b.prices[i].id, b.quotes[i]);
        } else {
          WriteError(&conn->out, Opcode::kPostPrice, b.prices[i].id, b.quotes[i].status,
                     RunErrorMessage(n, status, b.quotes[i].status));
        }
      }
      CountRun(op, n);
      return n;
    }
  } else if (op == static_cast<uint8_t>(Opcode::kObserve)) {
    b.observes.clear();
    size_t taken = at;
    while (taken < frames.size() && frames[taken].size() >= kHeaderBytes &&
           static_cast<uint8_t>(frames[taken][0]) == op) {
      ByteReader r(frames[taken]);
      uint8_t opcode;
      ObserveFrame of;
      r.GetU8(&opcode);
      r.GetU64(&of.id);
      if (!DecodeObserveBody(&r, &of)) break;
      b.observes.push_back(of);
      ++taken;
    }
    const size_t n = b.observes.size();
    if (n != 0) {
      b.feedback.resize(n);
      b.codes.assign(n, StatusCode{});
      for (size_t i = 0; i < n; ++i) b.feedback[i] = b.observes[i].feedback;
      const Status status = broker_->Observes(b.feedback, b.codes);
      for (size_t i = 0; i < n; ++i) {
        if (b.codes[i] == StatusCode::kOk) {
          ByteWriter w(&conn->out);
          size_t frame = w.BeginLength();
          PutResponseHeader(&w, Opcode::kObserve, b.observes[i].id, StatusCode::kOk);
          w.EndLength(frame);
        } else {
          WriteError(&conn->out, Opcode::kObserve, b.observes[i].id, b.codes[i],
                     RunErrorMessage(n, status, b.codes[i]));
        }
      }
      CountRun(op, n);
      return n;
    }
  }

  ServeFrame(conn, frames[at]);
  return 1;
}

void TcpServer::CountRun(uint8_t op, size_t frames) {
  metrics_.frames_by_op[op].Add(frames);
  // Only runs of two or more were coalesced.
  if (frames >= 2) {
    metrics_.frames_coalesced.Add(frames);
    metrics_.coalesced_runs.Increment();
  }
}

void TcpServer::ServeFrame(Connection* conn, std::string_view payload) {
  ByteReader r(payload);
  uint8_t op_byte = 0;
  uint64_t id = 0;
  r.GetU8(&op_byte);
  r.GetU64(&id);
  metrics_.frames_by_op[ValidOpcode(op_byte) ? op_byte : 0].Increment();

  if (!ValidOpcode(op_byte)) {
    WriteError(&conn->out, static_cast<Opcode>(op_byte), id,
               StatusCode::kInvalidArgument,
               "unknown opcode " + std::to_string(op_byte));
    return;
  }
  const Opcode op = static_cast<Opcode>(op_byte);
  std::string* out = &conn->out;

  auto malformed = [&] {
    WriteError(out, op, id, StatusCode::kInvalidArgument, "malformed request body");
  };

  switch (op) {
    case Opcode::kPing: {
      ByteWriter w(out);
      size_t frame = w.BeginLength();
      PutResponseHeader(&w, op, id, StatusCode::kOk);
      w.EndLength(frame);
      return;
    }

    case Opcode::kGetMetrics: {
      if (!r.AtEnd()) return malformed();
      ByteWriter w(out);
      size_t frame = w.BeginLength();
      PutResponseHeader(&w, op, id, StatusCode::kOk);
      w.PutString(registry_->EncodeDump());
      w.EndLength(frame);
      return;
    }

    case Opcode::kResolve: {
      std::string_view product;
      if (!r.GetString(&product) || !r.AtEnd()) return malformed();
      ProductHandle handle;
      Status s = broker_->Resolve(product, &handle);
      if (!s.ok()) return WriteError(out, op, id, s.code(), s.message());
      ByteWriter w(out);
      size_t frame = w.BeginLength();
      PutResponseHeader(&w, op, id, StatusCode::kOk);
      w.PutU32(handle.index);
      w.PutU32(handle.generation);
      w.EndLength(frame);
      return;
    }

    case Opcode::kEstimateValue: {
      ProductHandle handle;
      std::vector<double> features;
      if (!r.GetU32(&handle.index) || !r.GetU32(&handle.generation) ||
          !r.GetF64Array(&features) || !r.AtEnd()) {
        return malformed();
      }
      ValueInterval interval;
      Status s = broker_->EstimateValue(handle, features, &interval);
      if (!s.ok()) return WriteError(out, op, id, s.code(), s.message());
      ByteWriter w(out);
      size_t frame = w.BeginLength();
      PutResponseHeader(&w, op, id, StatusCode::kOk);
      w.PutF64(interval.lower);
      w.PutF64(interval.upper);
      w.EndLength(frame);
      return;
    }

    case Opcode::kPostPrices: {
      // Batch responses always carry: message string, u32 count, then per
      // item (u64 ticket, f64 price, u8 flags, u8 status). A body decode
      // failure answers with count 0.
      uint32_t count;
      std::vector<double> scratch;
      std::vector<PriceFrame> items;
      bool ok = r.GetU32(&count);
      if (ok) {
        items.reserve(count);
        for (uint32_t i = 0; i < count; ++i) {
          PriceFrame pf;
          uint32_t n;
          if (!r.GetU32(&pf.handle.index) || !r.GetU32(&pf.handle.generation) ||
              !r.GetF64(&pf.reserve) || !r.GetU32(&n) ||
              r.remaining() < size_t{n} * 8) {
            ok = false;
            break;
          }
          pf.features_at = scratch.size();
          pf.features_len = n;
          for (uint32_t j = 0; j < n; ++j) {
            double v = 0.0;
            r.GetF64(&v);
            scratch.push_back(v);
          }
          items.push_back(pf);
        }
        if (ok && !r.AtEnd()) ok = false;
      }
      ByteWriter w(out);
      size_t frame = w.BeginLength();
      if (!ok) {
        PutResponseHeader(&w, op, id, StatusCode::kInvalidArgument);
        w.PutString("malformed batch body");
        w.PutU32(0);
        w.EndLength(frame);
        return;
      }
      std::vector<HandleRequest> requests(items.size());
      std::vector<Quote> quotes(items.size());
      for (size_t i = 0; i < items.size(); ++i) {
        requests[i].handle = items[i].handle;
        requests[i].reserve = items[i].reserve;
        requests[i].features = std::span<const double>(
            scratch.data() + items[i].features_at, items[i].features_len);
      }
      Status s = broker_->PostPrices(requests, quotes);
      PutResponseHeader(&w, op, id, s.code());
      w.PutString(s.message());
      w.PutU32(static_cast<uint32_t>(quotes.size()));
      for (const Quote& q : quotes) {
        w.PutU64(q.ticket);
        w.PutF64(q.price);
        w.PutU8(QuoteFlags(q));
        w.PutU8(StatusCodeToWire(q.status));
      }
      w.EndLength(frame);
      return;
    }

    case Opcode::kObserves: {
      // Batch responses: message string, u32 count, then per item u8 status.
      uint32_t count;
      std::vector<FeedbackRequest> feedback;
      bool ok = r.GetU32(&count) && r.remaining() == size_t{count} * 9;
      if (ok) {
        feedback.resize(count);
        for (uint32_t i = 0; i < count; ++i) {
          uint8_t accepted = 0;
          r.GetU64(&feedback[i].ticket);
          r.GetU8(&accepted);
          feedback[i].accepted = accepted != 0;
        }
      }
      ByteWriter w(out);
      size_t frame = w.BeginLength();
      if (!ok) {
        PutResponseHeader(&w, op, id, StatusCode::kInvalidArgument);
        w.PutString("malformed batch body");
        w.PutU32(0);
        w.EndLength(frame);
        return;
      }
      std::vector<StatusCode> codes(feedback.size());
      Status s = broker_->Observes(feedback, codes);
      PutResponseHeader(&w, op, id, s.code());
      w.PutString(s.message());
      w.PutU32(static_cast<uint32_t>(codes.size()));
      for (StatusCode code : codes) w.PutU8(StatusCodeToWire(code));
      w.EndLength(frame);
      return;
    }

    // ServeRun answers every decodable PostPrice/Observe frame, so one that
    // reaches here has a malformed body.
    case Opcode::kPostPrice:
    case Opcode::kObserve:
      return malformed();
  }
}

bool TcpServer::FlushWrites(Connection* conn) {
  while (conn->output_pending()) {
    ssize_t n = ::send(conn->fd.get(), conn->out.data() + conn->out_offset,
                       conn->out.size() - conn->out_offset, MSG_NOSIGNAL);
    if (n > 0) {
      conn->out_offset += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  conn->out.clear();
  conn->out_offset = 0;
  return true;
}

}  // namespace pdm::server
