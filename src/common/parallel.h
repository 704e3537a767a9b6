#ifndef PDM_COMMON_PARALLEL_H_
#define PDM_COMMON_PARALLEL_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <thread>
#include <type_traits>
#include <variant>
#include <vector>

/// \file
/// The one worker loop behind every parallel batch in the library: the
/// scenario runner, the broker batch driver and linear workload synthesis.
///
/// Work is a dense index range. Workers claim the next unclaimed index by
/// atomic ticket, so an index runs exactly once and a slow item never holds
/// up a queue behind it. Callers write results into per-index slots, which
/// keeps output order (and therefore every result) independent of the
/// worker count and of scheduling.

namespace pdm {

/// `requested` when positive, else std::thread::hardware_concurrency()
/// (at least 1).
inline int ResolveThreadCount(int requested) {
  if (requested > 0) return requested;
  const int hardware = static_cast<int>(std::thread::hardware_concurrency());
  return hardware > 0 ? hardware : 1;
}

/// Calls `body(i)` — or `body(i, &state)` when `State` is given — exactly
/// once for every i in [0, count), on min(ResolveThreadCount(threads),
/// count) workers. The calling thread is one of them; with a single worker
/// the indices run in order on the calling thread alone. Each worker owns
/// one default-constructed `State` for every index it claims (per-worker
/// scratch buffers).
///
/// Either way the caller sees the exception of the lowest failing index, as
/// a serial loop would: with several workers an exception thrown by `body`
/// is parked in its index's slot, the other indices still run, and the
/// lowest one is rethrown after every worker has joined.
template <typename State = std::monostate, typename Body>
void ParallelFor(size_t count, int threads, Body&& body) {
  auto run = [&body](size_t i, State* state) {
    if constexpr (std::is_invocable_v<Body&, size_t, State*>) {
      body(i, state);
    } else {
      body(i);
    }
  };
  const size_t workers =
      std::min(count, static_cast<size_t>(ResolveThreadCount(threads)));
  if (workers <= 1) {
    State state;
    for (size_t i = 0; i < count; ++i) run(i, &state);
    return;
  }

  std::vector<std::exception_ptr> errors(count);
  std::atomic<size_t> next{0};
  auto worker = [&] {
    State state;
    for (size_t i = next.fetch_add(1, std::memory_order_relaxed); i < count;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      try {
        run(i, &state);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  {
    // jthreads join on scope exit, including when starting one throws.
    std::vector<std::jthread> pool;
    pool.reserve(workers - 1);
    for (size_t w = 1; w < workers; ++w) pool.emplace_back(worker);
    worker();
  }
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace pdm

#endif  // PDM_COMMON_PARALLEL_H_
