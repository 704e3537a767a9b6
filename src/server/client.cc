#include "server/client.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

namespace pdm::server {
namespace {

using pdm::broker::FeedbackRequest;
using pdm::broker::HandleRequest;
using pdm::broker::ProductHandle;
using pdm::broker::Quote;

/// splitmix64 step: the backoff jitter stream.
uint64_t NextRandom(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Status Client::Connect(const std::string& host, uint16_t port) {
  Disconnect();
  host_ = host;
  port_ = port;
  jitter_state_ = config_.jitter_seed;
  prev_backoff_ms_ = std::max(1, config_.backoff_base_ms);
  return ConnectTcp(host, port, &fd_);
}

void Client::Disconnect() {
  fd_.Reset();
  queued_.clear();
  pending_.clear();
}

Status Client::Reconnect() {
  if (host_.empty()) return Status::FailedPrecondition("client not connected");
  Disconnect();
  Status s = ConnectTcp(host_, port_, &fd_);
  if (!s.ok()) {
    // The dial failure is transient by assumption (the retry loops key on
    // Unavailable); the endpoint itself was validated by the first Connect.
    return Status::Unavailable(std::string("reconnect: ") +
                               std::string(s.message()));
  }
  ++reconnects_;
  return Status::Ok();
}

void Client::BackoffSleep() {
  // Decorrelated jitter: sleep = uniform(base, min(cap, 3 * previous)).
  // Independent clients desynchronize instead of thundering back in step.
  const int base = std::max(1, config_.backoff_base_ms);
  const int cap = std::max(base, config_.backoff_cap_ms);
  const int hi = std::max(base, std::min<int>(cap, prev_backoff_ms_ * 3));
  const int span = hi - base + 1;
  const int sleep_ms =
      base + static_cast<int>(NextRandom(&jitter_state_) %
                              static_cast<uint64_t>(span));
  prev_backoff_ms_ = sleep_ms;
  std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
}

// ----------------------------------------------------------- pipelining

uint64_t Client::QueuePostPrice(ProductHandle handle, std::span<const double> features,
                                double reserve) {
  uint64_t id = NextId();
  ByteWriter w(&queued_);
  size_t frame = w.BeginLength();
  PutRequestHeader(&w, Opcode::kPostPrice, id);
  w.PutU32(handle.index);
  w.PutU32(handle.generation);
  w.PutF64(reserve);
  w.PutF64Array(features);
  w.EndLength(frame);
  return id;
}

uint64_t Client::QueueObserve(uint64_t ticket, bool accepted) {
  uint64_t id = NextId();
  ByteWriter w(&queued_);
  size_t frame = w.BeginLength();
  PutRequestHeader(&w, Opcode::kObserve, id);
  w.PutU64(ticket);
  w.PutU8(accepted ? 1 : 0);
  w.EndLength(frame);
  return id;
}

uint64_t Client::QueuePing() {
  uint64_t id = NextId();
  ByteWriter w(&queued_);
  size_t frame = w.BeginLength();
  PutRequestHeader(&w, Opcode::kPing, id);
  w.EndLength(frame);
  return id;
}

Status Client::Flush() {
  if (!fd_.valid()) return Status::FailedPrecondition("client not connected");
  size_t sent = 0;
  while (sent < queued_.size()) {
    ssize_t n = ::send(fd_.get(), queued_.data() + sent, queued_.size() - sent,
                       MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    int saved = errno;
    Disconnect();  // the stream position is unknown — poison the connection
    return Status::Unavailable(std::string("send: ") + std::strerror(saved));
  }
  queued_.clear();
  return Status::Ok();
}

Status Client::ReadFrame(std::string_view* payload, size_t* frame_bytes) {
  const bool bounded = config_.deadline_ms > 0;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(config_.deadline_ms);
  for (;;) {
    std::string_view view;
    size_t next;
    FrameResult r = NextFrame(pending_, 0, &view, &next);
    if (r == FrameResult::kMalformed) {
      Disconnect();
      return Status::FailedPrecondition("oversized response frame");
    }
    if (r == FrameResult::kFrame) {
      *payload = view;
      *frame_bytes = next;
      return Status::Ok();
    }
    Status s = Receive(bounded, deadline);
    if (!s.ok()) return s;
  }
}

Status Client::Receive(bool bounded, std::chrono::steady_clock::time_point deadline) {
  using Clock = std::chrono::steady_clock;
  char chunk[16 << 10];
  // Spin first (DESIGN.md §10): a reply that lands inside the window is read
  // without paying a blocked thread's wake-up. The window ends at the
  // deadline, so the spin counts against it.
  Clock::time_point spin_end = Clock::now() + kSpinWindow;
  if (bounded) spin_end = std::min(spin_end, deadline);
  ssize_t n;
  bool would_block;
  do {
    n = ::recv(fd_.get(), chunk, sizeof chunk, MSG_DONTWAIT);
    would_block = n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR);
  } while (would_block && Clock::now() < spin_end);

  if (!would_block) {
    ++waits_spun_;
  } else {
    ++waits_blocked_;
    for (;;) {
      if (bounded) {
        // Bounded wait. On expiry the connection is dropped, not kept: the
        // response may still arrive later, and reading it against the *next*
        // request would hand the caller someone else's answer. The call
        // expires only once the deadline has passed, and the poll timeout
        // rounds up: truncated, under 1 ms left would expire without waiting.
        const Clock::time_point now = Clock::now();
        if (now > deadline) {
          Disconnect();
          return Status::DeadlineExceeded("response deadline exceeded");
        }
        pollfd p{fd_.get(), POLLIN, 0};
        const auto left = std::chrono::ceil<std::chrono::milliseconds>(deadline - now);
        int ready = ::poll(&p, 1, static_cast<int>(left.count()));
        if (ready == 0 || (ready < 0 && errno == EINTR)) continue;
        if (ready < 0) {
          int saved = errno;
          Disconnect();
          return Status::Unavailable(std::string("poll: ") + std::strerror(saved));
        }
      }
      n = ::recv(fd_.get(), chunk, sizeof chunk, 0);
      if (n >= 0 || errno != EINTR) break;
    }
  }

  if (n > 0) {
    pending_.append(chunk, static_cast<size_t>(n));
    return Status::Ok();
  }
  if (n == 0) {
    Disconnect();
    return Status::Unavailable("connection closed by server");
  }
  int saved = errno;
  Disconnect();
  return Status::Unavailable(std::string("recv: ") + std::strerror(saved));
}

Status Client::ReadResponse(Response* out) {
  if (!fd_.valid()) return Status::FailedPrecondition("client not connected");
  // Decoded in place: a steady-state response copies nothing out of
  // `pending_` and allocates nothing.
  std::string_view payload;
  size_t frame_bytes = 0;
  Status s = ReadFrame(&payload, &frame_bytes);
  if (!s.ok()) return s;
  s = DecodeResponse(payload, out);
  // A no-op when an error frame dropped the connection (and `pending_`).
  pending_.erase(0, frame_bytes);
  return s;
}

Status Client::DecodeResponse(std::string_view payload, Response* out) {
  ByteReader r(payload);
  uint8_t op_byte, code_byte;
  if (!r.GetU8(&op_byte) || !r.GetU64(&out->id) || !r.GetU8(&code_byte)) {
    return Status::FailedPrecondition("truncated response header");
  }
  out->op = static_cast<Opcode>(op_byte);
  StatusCode code = StatusCodeFromWire(code_byte);
  out->quotes.clear();
  out->codes.clear();

  auto decode_error = [] { return Status::FailedPrecondition("malformed response body"); };

  // Connection-level error frame (opcode 0, id 0): the server's last word
  // before it closes the connection — framing violation, idle reap. It does
  // not answer any request, so it surfaces on the transport channel (the
  // returned Status), not as an op outcome, and the connection is dropped.
  if (op_byte == 0) {
    std::string_view message;
    Status error = r.GetString(&message)
                       ? Status(code, std::string("server error frame: ") +
                                          std::string(message))
                       : decode_error();
    Disconnect();
    return error;
  }

  // Batch ops always carry message + per-item results regardless of status.
  if (out->op == Opcode::kPostPrices) {
    std::string_view message;
    uint32_t count;
    if (!r.GetString(&message) || !r.GetU32(&count)) return decode_error();
    out->status = code == StatusCode::kOk ? Status::Ok()
                                          : Status(code, std::string(message));
    out->quotes.resize(count);
    for (uint32_t i = 0; i < count; ++i) {
      uint8_t flags, item_code;
      if (!r.GetU64(&out->quotes[i].ticket) || !r.GetF64(&out->quotes[i].price) ||
          !r.GetU8(&flags) || !r.GetU8(&item_code)) {
        return decode_error();
      }
      out->quotes[i].exploratory = (flags & kQuoteExploratory) != 0;
      out->quotes[i].certain_no_sale = (flags & kQuoteCertainNoSale) != 0;
      out->quotes[i].status = StatusCodeFromWire(item_code);
    }
    return Status::Ok();
  }
  if (out->op == Opcode::kObserves) {
    std::string_view message;
    uint32_t count;
    if (!r.GetString(&message) || !r.GetU32(&count)) return decode_error();
    out->status = code == StatusCode::kOk ? Status::Ok()
                                          : Status(code, std::string(message));
    out->codes.resize(count);
    for (uint32_t i = 0; i < count; ++i) {
      uint8_t item_code;
      if (!r.GetU8(&item_code)) return decode_error();
      out->codes[i] = StatusCodeFromWire(item_code);
    }
    return Status::Ok();
  }

  // Single ops: non-OK carries the message; OK carries the op body.
  if (code != StatusCode::kOk) {
    std::string_view message;
    if (!r.GetString(&message)) return decode_error();
    out->status = Status(code, std::string(message));
    return Status::Ok();
  }
  out->status = Status::Ok();
  switch (out->op) {
    case Opcode::kPing:
    case Opcode::kObserve:
      return r.AtEnd() ? Status::Ok() : decode_error();
    case Opcode::kGetMetrics: {
      std::string_view dump;
      if (!r.GetString(&dump) || !r.AtEnd()) return decode_error();
      Status decoded = metrics::DecodeMetricsDump(dump, &out->metrics);
      if (!decoded.ok()) return decoded;
      return Status::Ok();
    }
    case Opcode::kResolve:
      if (!r.GetU32(&out->handle.index) || !r.GetU32(&out->handle.generation)) {
        return decode_error();
      }
      return Status::Ok();
    case Opcode::kPostPrice: {
      uint8_t flags;
      if (!r.GetU64(&out->quote.ticket) || !r.GetF64(&out->quote.price) ||
          !r.GetU8(&flags)) {
        return decode_error();
      }
      out->quote.exploratory = (flags & kQuoteExploratory) != 0;
      out->quote.certain_no_sale = (flags & kQuoteCertainNoSale) != 0;
      out->quote.status = StatusCode::kOk;
      return Status::Ok();
    }
    case Opcode::kEstimateValue:
      if (!r.GetF64(&out->interval.lower) || !r.GetF64(&out->interval.upper)) {
        return decode_error();
      }
      return Status::Ok();
    default:
      return decode_error();
  }
}

// ----------------------------------------------------- synchronous calls

Status Client::Transact(bool idempotent, std::string_view frame, Response* resp) {
  // At-most-once for mutating ops: one send, transport failures surface as
  // Unavailable and the frame is never replayed (a lost PostPrice response
  // may have issued a ticket server-side). Idempotent ops retry transparently
  // — every retry reconnects, because any transport failure poisoned the
  // connection (the stream position is unknown).
  const int attempts = idempotent ? config_.max_retries + 1 : 1;
  Status last = Status::Unavailable("no attempt made");
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      BackoffSleep();
      ++retries_;
    }
    if (!fd_.valid()) {
      if (host_.empty()) return Status::FailedPrecondition("client not connected");
      Status rc = Reconnect();
      if (!rc.ok()) {
        last = rc;
        continue;
      }
    }
    queued_.append(frame);
    Status s = Flush();
    if (s.ok()) s = ReadResponse(resp);
    if (s.ok()) return s;
    if (s.code() != StatusCode::kUnavailable) return s;  // deadline, protocol
    last = s;  // transport failure: the connection is already dropped
  }
  return last;
}

Status Client::Ping() {
  std::string frame;
  {
    ByteWriter w(&frame);
    size_t f = w.BeginLength();
    PutRequestHeader(&w, Opcode::kPing, NextId());
    w.EndLength(f);
  }
  Response resp;
  Status s = Transact(/*idempotent=*/true, frame, &resp);
  if (!s.ok()) return s;
  return resp.status;
}

Status Client::Resolve(std::string_view product, ProductHandle* handle) {
  std::string frame;
  {
    ByteWriter w(&frame);
    size_t f = w.BeginLength();
    PutRequestHeader(&w, Opcode::kResolve, NextId());
    w.PutString(product);
    w.EndLength(f);
  }
  Response resp;
  Status s = Transact(/*idempotent=*/true, frame, &resp);
  if (!s.ok()) return s;
  if (resp.status.ok() && handle != nullptr) *handle = resp.handle;
  return resp.status;
}

Status Client::PostPrice(ProductHandle handle, std::span<const double> features,
                         double reserve, Quote* quote) {
  std::string frame;
  {
    ByteWriter w(&frame);
    size_t f = w.BeginLength();
    PutRequestHeader(&w, Opcode::kPostPrice, NextId());
    w.PutU32(handle.index);
    w.PutU32(handle.generation);
    w.PutF64(reserve);
    w.PutF64Array(features);
    w.EndLength(f);
  }
  Response resp;
  Status s = Transact(/*idempotent=*/false, frame, &resp);
  if (!s.ok()) return s;
  if (quote != nullptr) {
    *quote = resp.quote;
    if (!resp.status.ok()) {
      quote->ticket = 0;
      quote->status = resp.status.code();
    }
  }
  return resp.status;
}

Status Client::Observe(uint64_t ticket, bool accepted) {
  std::string frame;
  {
    ByteWriter w(&frame);
    size_t f = w.BeginLength();
    PutRequestHeader(&w, Opcode::kObserve, NextId());
    w.PutU64(ticket);
    w.PutU8(accepted ? 1 : 0);
    w.EndLength(f);
  }
  Response resp;
  Status s = Transact(/*idempotent=*/false, frame, &resp);
  if (!s.ok()) return s;
  return resp.status;
}

Status Client::GetMetrics(metrics::MetricsDump* out) {
  std::string frame;
  {
    ByteWriter w(&frame);
    size_t f = w.BeginLength();
    PutRequestHeader(&w, Opcode::kGetMetrics, NextId());
    w.EndLength(f);
  }
  Response resp;
  Status s = Transact(/*idempotent=*/true, frame, &resp);
  if (!s.ok()) return s;
  if (resp.status.ok() && out != nullptr) *out = std::move(resp.metrics);
  return resp.status;
}

Status Client::EstimateValue(ProductHandle handle, std::span<const double> features,
                             ValueInterval* out) {
  std::string frame;
  {
    ByteWriter w(&frame);
    size_t f = w.BeginLength();
    PutRequestHeader(&w, Opcode::kEstimateValue, NextId());
    w.PutU32(handle.index);
    w.PutU32(handle.generation);
    w.PutF64Array(features);
    w.EndLength(f);
  }
  Response resp;
  Status s = Transact(/*idempotent=*/true, frame, &resp);
  if (!s.ok()) return s;
  if (resp.status.ok() && out != nullptr) *out = resp.interval;
  return resp.status;
}

Status Client::PostPrices(std::span<const HandleRequest> requests,
                          std::span<Quote> quotes) {
  if (requests.size() != quotes.size()) {
    return Status::InvalidArgument("requests/quotes size mismatch");
  }
  std::string frame_bytes;
  {
    ByteWriter w(&frame_bytes);
    size_t f = w.BeginLength();
    PutRequestHeader(&w, Opcode::kPostPrices, NextId());
    w.PutU32(static_cast<uint32_t>(requests.size()));
    for (const HandleRequest& req : requests) {
      w.PutU32(req.handle.index);
      w.PutU32(req.handle.generation);
      w.PutF64(req.reserve);
      w.PutF64Array(req.features);
    }
    w.EndLength(f);
  }
  Response resp;
  Status s = Transact(/*idempotent=*/false, frame_bytes, &resp);
  if (!s.ok()) return s;
  if (resp.quotes.size() == quotes.size()) {
    for (size_t i = 0; i < quotes.size(); ++i) quotes[i] = resp.quotes[i];
  }
  return resp.status;
}

Status Client::Observes(std::span<const FeedbackRequest> feedback,
                        std::span<StatusCode> codes) {
  if (!codes.empty() && codes.size() != feedback.size()) {
    return Status::InvalidArgument("feedback/codes size mismatch");
  }
  std::string frame_bytes;
  {
    ByteWriter w(&frame_bytes);
    size_t f = w.BeginLength();
    PutRequestHeader(&w, Opcode::kObserves, NextId());
    w.PutU32(static_cast<uint32_t>(feedback.size()));
    for (const FeedbackRequest& fb : feedback) {
      w.PutU64(fb.ticket);
      w.PutU8(fb.accepted ? 1 : 0);
    }
    w.EndLength(f);
  }
  Response resp;
  Status s = Transact(/*idempotent=*/false, frame_bytes, &resp);
  if (!s.ok()) return s;
  if (!codes.empty() && resp.codes.size() == codes.size()) {
    for (size_t i = 0; i < codes.size(); ++i) codes[i] = resp.codes[i];
  }
  return resp.status;
}

}  // namespace pdm::server
