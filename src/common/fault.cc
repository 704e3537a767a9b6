#include "common/fault.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

namespace pdm::fault {
namespace {

// splitmix64: tiny, seedable, and good enough for fault-draw streams.
uint64_t NextRandom(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

FaultInjector& FaultInjector::Global() {
  static FaultInjector* injector = new FaultInjector();
  return *injector;
}

void FaultInjector::Arm(uint64_t seed) {
  std::lock_guard<std::mutex> lock(mu_);
  seed_ = seed;
  rng_state_ = seed;
  armed_.store(true, std::memory_order_relaxed);
}

void FaultInjector::Arm() {
  std::lock_guard<std::mutex> lock(mu_);
  rng_state_ = seed_;
  armed_.store(true, std::memory_order_relaxed);
}

void FaultInjector::Disarm() {
  armed_.store(false, std::memory_order_relaxed);
}

FaultInjector::Site& FaultInjector::SiteLocked(std::string_view site) {
  auto it = sites_.find(site);
  if (it == sites_.end()) {
    it = sites_.emplace(std::string(site), Site{}).first;
  }
  return it->second;
}

void FaultInjector::SetProbability(std::string_view site, double p) {
  std::lock_guard<std::mutex> lock(mu_);
  SiteLocked(site).probability = std::clamp(p, 0.0, 1.0);
}

void FaultInjector::TriggerOnHit(std::string_view site, uint64_t nth) {
  std::lock_guard<std::mutex> lock(mu_);
  SiteLocked(site).trigger_hits.push_back(nth);
}

void FaultInjector::SetHook(std::string_view site, std::function<void()> hook) {
  std::lock_guard<std::mutex> lock(mu_);
  SiteLocked(site).hook = std::move(hook);
}

Status FaultInjector::Configure(std::string_view spec) {
  // Parse into a staging list first so a bad entry leaves config untouched.
  struct Entry {
    std::string site;
    bool scripted = false;
    double probability = 0.0;
    uint64_t nth = 0;
  };
  std::vector<Entry> entries;
  uint64_t seed = 0;
  bool have_seed = false;

  size_t pos = 0;
  while (pos <= spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string_view::npos) comma = spec.size();
    std::string_view token = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (token.empty()) continue;

    size_t at = token.find('@');
    size_t eq = token.find('=');
    if (at != std::string_view::npos) {
      std::string_view site = token.substr(0, at);
      std::string value(token.substr(at + 1));
      char* end = nullptr;
      uint64_t nth = std::strtoull(value.c_str(), &end, 10);
      if (site.empty() || value.empty() || *end != '\0' || nth == 0) {
        return Status::InvalidArgument("bad fault trigger entry: " +
                                       std::string(token));
      }
      entries.push_back({std::string(site), true, 0.0, nth});
    } else if (eq != std::string_view::npos) {
      std::string_view site = token.substr(0, eq);
      std::string value(token.substr(eq + 1));
      if (site.empty() || value.empty()) {
        return Status::InvalidArgument("bad fault entry: " +
                                       std::string(token));
      }
      if (site == "seed") {
        char* end = nullptr;
        seed = std::strtoull(value.c_str(), &end, 10);
        if (*end != '\0') {
          return Status::InvalidArgument("bad fault seed: " +
                                         std::string(token));
        }
        have_seed = true;
      } else {
        char* end = nullptr;
        double p = std::strtod(value.c_str(), &end);
        if (*end != '\0' || p < 0.0 || p > 1.0) {
          return Status::InvalidArgument("bad fault probability: " +
                                         std::string(token));
        }
        entries.push_back({std::string(site), false, p, 0});
      }
    } else {
      return Status::InvalidArgument(
          "fault entry needs <site>=<prob> or <site>@<nth>: " +
          std::string(token));
    }
  }

  std::lock_guard<std::mutex> lock(mu_);
  if (have_seed) {
    seed_ = seed;
    rng_state_ = seed;
  }
  for (const Entry& e : entries) {
    Site& site = SiteLocked(e.site);
    if (e.scripted) {
      site.trigger_hits.push_back(e.nth);
    } else {
      site.probability = e.probability;
    }
  }
  return Status::Ok();
}

void FaultInjector::Reset() {
  armed_.store(false, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  sites_.clear();
  seed_ = 1;
  rng_state_ = 1;
}

bool FaultInjector::ShouldFailArmed(std::string_view site_name) {
  std::function<void()> hook;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sites_.find(site_name);
    if (it != sites_.end()) hook = it->second.hook;
  }
  if (hook) hook();
  std::lock_guard<std::mutex> lock(mu_);
  Site& site = SiteLocked(site_name);
  ++site.hits;
  bool fire = false;
  if (std::find(site.trigger_hits.begin(), site.trigger_hits.end(),
                site.hits) != site.trigger_hits.end()) {
    fire = true;
  } else if (site.probability > 0.0) {
    // Map the top 53 bits to [0, 1) — enough resolution for any test p.
    double draw =
        static_cast<double>(NextRandom(&rng_state_) >> 11) * 0x1.0p-53;
    fire = draw < site.probability;
  }
  if (fire) ++site.fires;
  return fire;
}

uint64_t FaultInjector::hits(std::string_view site) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sites_.find(site);
  return it == sites_.end() ? 0 : it->second.hits;
}

uint64_t FaultInjector::fires(std::string_view site) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sites_.find(site);
  return it == sites_.end() ? 0 : it->second.fires;
}

}  // namespace pdm::fault
