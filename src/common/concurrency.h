#ifndef PDM_COMMON_CONCURRENCY_H_
#define PDM_COMMON_CONCURRENCY_H_

#include <atomic>
#include <cstddef>
#include <memory>
#include <vector>

/// \file
/// Shared-memory building blocks for the serving layers (DESIGN.md §9):
/// cache-line geometry constants, a read-mostly atomic-snapshot holder, and
/// a single-writer counter.
///
/// The broker's request hot path must never perform an atomic
/// read-modify-write on state shared across products — a single contended
/// cache line caps aggregate throughput no matter how many cores serve
/// independent sessions. These utilities encode the idioms that keep it
/// that way: pad per-session state to exclusive cache lines, publish
/// rarely-mutated shared structures (the product directory) as immutable
/// snapshots behind one atomic pointer so readers pay a plain acquire load,
/// and count per-session events where the session's lock holder can write
/// them without an RMW while a scrape reads them (DESIGN.md §13).

namespace pdm {

/// Destructive-interference granularity. Hard-coded rather than
/// `std::hardware_destructive_interference_size`: the language constant is
/// an ABI hazard (GCC warns whenever it leaks into a public header) and 64
/// bytes is correct for every x86-64 and the common AArch64 parts this
/// project targets.
inline constexpr std::size_t kCacheLineSize = 64;

/// Read-mostly snapshot publication (RCU-lite). One writer at a time (the
/// caller serializes writers — the broker's control-plane mutex) replaces an
/// immutable `const T` snapshot; any number of readers `Load()` the current
/// snapshot with a single acquire load — no reference counting, no locking,
/// no atomic RMW on the reader side.
///
/// Memory-reclamation rule: a replaced snapshot is *retired*, not freed —
/// it stays on an internal list until the holder is destroyed, because a
/// reader may still be dereferencing it (readers are invisible by design).
/// This is safe and bounded precisely because mutations are control-plane
/// operations: total retired memory is O(mutation count × snapshot size),
/// not O(traffic). Holders with unbounded mutation rates need a different
/// tool (epochs/hazard pointers) — see DESIGN.md §9.
template <typename T>
class SnapshotPtr {
 public:
  SnapshotPtr() = default;
  explicit SnapshotPtr(std::unique_ptr<const T> initial) {
    current_.store(initial.get(), std::memory_order_release);
    retired_.push_back(std::move(initial));
  }

  SnapshotPtr(const SnapshotPtr&) = delete;
  SnapshotPtr& operator=(const SnapshotPtr&) = delete;

  /// Reader side: the current snapshot, or nullptr before the first
  /// Publish. Plain acquire load — never an RMW. The pointer stays valid
  /// for the life of this holder (see the reclamation rule above).
  const T* Load() const { return current_.load(std::memory_order_acquire); }

  /// Writer side: atomically swings readers to `next` and retires the
  /// previous snapshot. Callers must serialize Publish externally.
  void Publish(std::unique_ptr<const T> next) {
    current_.store(next.get(), std::memory_order_release);
    retired_.push_back(std::move(next));
  }

  /// Snapshots retired so far (including the live one); test/monitoring
  /// surface for the reclamation bound.
  std::size_t retired_count() const { return retired_.size(); }

 private:
  std::atomic<const T*> current_{nullptr};
  /// Every snapshot ever published, in order; freed on destruction. Guarded
  /// by the caller's writer serialization.
  std::vector<std::unique_ptr<const T>> retired_;
};

/// A counter with one writer at a time (the caller serializes writers — the
/// broker's per-session lock) and lock-free readers on any thread. `Add` is
/// a relaxed load plus a relaxed store, never a read-modify-write, so it
/// costs what a plain `+=` costs; the atomic only makes the concurrent read
/// well-defined. Readers see some recent value, and since a writer only
/// ever adds non-negative amounts, successive reads never go backwards.
template <typename T>
class SingleWriterCounter {
 public:
  void Add(T delta) {
    value_.store(value_.load(std::memory_order_relaxed) + delta,
                 std::memory_order_relaxed);
  }
  T value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<T> value_{};
};

}  // namespace pdm

#endif  // PDM_COMMON_CONCURRENCY_H_
