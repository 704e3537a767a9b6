#ifndef PDM_COMMON_STATUS_H_
#define PDM_COMMON_STATUS_H_

#include <string>
#include <utility>

/// \file
/// Lightweight recoverable-error value for client-facing APIs.
///
/// The simulation layers treat misuse as programmer error and abort
/// (`PDM_CHECK`), which is right for an algorithm driven by our own loop but
/// wrong for a serving surface where a malformed request must not take the
/// broker down. `pdm::Status` is the serving-side alternative: OK carries no
/// message and allocates nothing (so returning it from a hot path preserves
/// the zero-allocation steady state, DESIGN.md §6); error statuses carry a
/// code plus a human-readable message and may allocate — errors are off the
/// hot path by definition.

namespace pdm {

enum class StatusCode {
  kOk = 0,
  /// A request referenced something that does not exist (unknown product,
  /// unknown or already-resolved ticket).
  kNotFound,
  /// A request was malformed (dimension mismatch, size mismatch, empty name).
  kInvalidArgument,
  /// The target exists but is in a state that forbids the operation
  /// (duplicate product name, snapshot/engine family mismatch).
  kFailedPrecondition,
  /// The operation is not available on this engine (no snapshot support).
  kUnimplemented,
  /// A client-side deadline elapsed before the response arrived. The
  /// operation may or may not have executed server-side (at-most-once).
  kDeadlineExceeded,
  /// The server or transport is temporarily unable to serve the request
  /// (connection lost, injected transport fault). Idempotent operations are
  /// safe to retry; mutating operations may have executed (at-most-once).
  kUnavailable,
  /// The server shed the request under overload (per-connection buffered-
  /// bytes or in-flight-frame caps, DESIGN.md §14). Retryable after backoff.
  kResourceExhausted,
  /// Durable state backing the target was lost or corrupted: a spilled
  /// session's snapshot failed its checksum or no longer decodes, and the
  /// file has been quarantined. Not retryable — the session is gone.
  kDataLoss,
};

/// Human-readable code name ("ok", "not-found", ...).
const char* StatusCodeName(StatusCode code);

/// `[[nodiscard]]`: dropping a returned Status silently discards an error,
/// and the build treats that as an error (-Werror=unused-result).
class [[nodiscard]] Status {
 public:
  /// Default-constructed Status is OK; no allocation.
  Status() = default;
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status NotFound(std::string message) {
    return Status(StatusCode::kNotFound, std::move(message));
  }
  static Status InvalidArgument(std::string message) {
    return Status(StatusCode::kInvalidArgument, std::move(message));
  }
  static Status FailedPrecondition(std::string message) {
    return Status(StatusCode::kFailedPrecondition, std::move(message));
  }
  static Status Unimplemented(std::string message) {
    return Status(StatusCode::kUnimplemented, std::move(message));
  }
  static Status DeadlineExceeded(std::string message) {
    return Status(StatusCode::kDeadlineExceeded, std::move(message));
  }
  static Status Unavailable(std::string message) {
    return Status(StatusCode::kUnavailable, std::move(message));
  }
  static Status ResourceExhausted(std::string message) {
    return Status(StatusCode::kResourceExhausted, std::move(message));
  }
  static Status DataLoss(std::string message) {
    return Status(StatusCode::kDataLoss, std::move(message));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "ok" or "<code-name>: <message>" for logs and test failures.
  std::string ToString() const;

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

}  // namespace pdm

#endif  // PDM_COMMON_STATUS_H_
