#ifndef PDM_COMMON_FAULT_H_
#define PDM_COMMON_FAULT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

/// \file
/// Deterministic fault injection (DESIGN.md §14).
///
/// Production code asks `pdm::fault::ShouldFail("site")` at each injectable
/// failure point (spill I/O syscalls, server socket operations) and takes the
/// real error path when it returns true. Sites are plain string names; the
/// inventory lives in DESIGN.md §14 so tests, `--faults=` flags, and the
/// chaos CI job all speak the same vocabulary.
///
/// The injector is process-wide and **zero-cost when disarmed**: the check
/// compiles to one relaxed atomic load and a predicted-not-taken branch. When
/// armed, decisions are deterministic given the seed and the per-site hit
/// sequence — a site fires either with a configured probability (seeded
/// splitmix64 stream) or on scripted 1-based hit numbers (`TriggerOnHit`),
/// which is what the chaos tests use to place a fault at exactly the Nth
/// write or the first accept.
///
/// Thread safety: Arm/Disarm/configuration and armed-path decisions take an
/// internal mutex; every touched site keeps hit and fire counters for test
/// assertions. All injection sites sit on cold paths (eviction, fault-in,
/// accept, error handling), so the mutex never shows up in steady-state
/// serving profiles.

namespace pdm::fault {

class FaultInjector {
 public:
  /// The process-wide injector every `ShouldFail` call consults.
  static FaultInjector& Global();

  FaultInjector() = default;
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Starts firing configured sites. The seed (re)initializes the
  /// probability-draw stream so armed runs are reproducible.
  void Arm(uint64_t seed);
  /// Arms with the seed most recently given to Configure/Arm (default 1).
  void Arm();
  void Disarm();
  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  /// Site fires on each hit with probability `p` in [0, 1].
  void SetProbability(std::string_view site, double p);
  /// Site fires on exactly its `nth` hit (1-based). May be called multiple
  /// times to script several scheduled failures.
  void TriggerOnHit(std::string_view site, uint64_t nth);
  /// Runs `hook` on every hit of `site` while armed, before the decision
  /// and outside the injector's lock, so a test can act at an exact
  /// instant — e.g. copy a spill directory as a wave retires its first
  /// relocated record. The hook must not touch the injector.
  void SetHook(std::string_view site, std::function<void()> hook);

  /// Parses a `--faults=` spec: comma-separated `seed=<n>`,
  /// `<site>=<probability>`, and `<site>@<nth-hit>` entries, e.g.
  /// `"seed=7,spill.write=0.05,server.accept@3"`. Configures but does not
  /// arm. Returns InvalidArgument (leaving prior config intact) on a
  /// malformed entry.
  Status Configure(std::string_view spec);

  /// Disarms and clears all sites, counters, and the seed.
  void Reset();

  /// Armed-path decision; counts a hit on `site` and returns whether the
  /// site fires. Call through `pdm::fault::ShouldFail` so the disarmed case
  /// stays branch-cheap.
  bool ShouldFailArmed(std::string_view site);

  /// Times the site was consulted / times it fired (since Reset).
  uint64_t hits(std::string_view site) const;
  uint64_t fires(std::string_view site) const;

 private:
  struct Site {
    double probability = 0.0;
    std::vector<uint64_t> trigger_hits;
    std::function<void()> hook;
    uint64_t hits = 0;
    uint64_t fires = 0;
  };

  Site& SiteLocked(std::string_view site);

  mutable std::mutex mu_;
  std::map<std::string, Site, std::less<>> sites_;
  uint64_t seed_ = 1;
  uint64_t rng_state_ = 1;
  std::atomic<bool> armed_{false};
};

/// The hot-path check: one relaxed load when the injector is disarmed.
inline bool ShouldFail(std::string_view site) {
  FaultInjector& injector = FaultInjector::Global();
  if (!injector.armed()) return false;
  return injector.ShouldFailArmed(site);
}

}  // namespace pdm::fault

#endif  // PDM_COMMON_FAULT_H_
