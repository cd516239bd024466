#include "src/fault/fault.h"

#include <algorithm>
#include "src/analysis/lockdep.h"
#include "src/obs/metrics.h"

namespace cntr::fault {

namespace {

// The global catalogue of compiled-in injection points. Guarded by its own
// mutex because registration runs from static initializers across TUs.
struct Catalogue {
  analysis::CheckedMutex mu{"fault.catalogue"};
  std::vector<std::string> points;
};

Catalogue& catalogue() {
  static Catalogue* c = new Catalogue();  // leaked: outlives static dtors
  return *c;
}

}  // namespace

std::string_view RegisterFaultPoint(std::string_view point) {
  Catalogue& c = catalogue();
  std::lock_guard<analysis::CheckedMutex> lock(c.mu);
  auto it = std::find(c.points.begin(), c.points.end(), point);
  if (it == c.points.end()) {
    c.points.emplace_back(point);
  }
  return point;
}

std::vector<std::string> FaultRegistry::Points() {
  Catalogue& c = catalogue();
  std::lock_guard<analysis::CheckedMutex> lock(c.mu);
  std::vector<std::string> out = c.points;
  std::sort(out.begin(), out.end());
  return out;
}

FaultRegistry::FaultRegistry(uint64_t seed, obs::MetricsRegistry* metrics) : rng_(seed) {
  obs::MetricsRegistry& registry = metrics != nullptr ? *metrics : obs::MetricsRegistry::Global();
  total_hits_ = registry.GetCounter("cntr_fault_hits");
  total_fired_ = registry.GetCounter("cntr_fault_fired");
}

void FaultRegistry::Arm(std::string_view point, FaultSpec spec) {
  std::lock_guard<analysis::CheckedMutex> lock(mu_);
  auto it = entries_.find(point);
  if (it == entries_.end()) {
    entries_.emplace(std::string(point), Entry{spec, 0, 0});
    armed_.fetch_add(1, std::memory_order_relaxed);
  } else {
    it->second = Entry{spec, 0, 0};
  }
}

void FaultRegistry::Disarm(std::string_view point) {
  std::lock_guard<analysis::CheckedMutex> lock(mu_);
  auto it = entries_.find(point);
  if (it != entries_.end()) {
    entries_.erase(it);
    armed_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void FaultRegistry::DisarmAll() {
  std::lock_guard<analysis::CheckedMutex> lock(mu_);
  armed_.fetch_sub(entries_.size(), std::memory_order_relaxed);
  entries_.clear();
}

FaultHit FaultRegistry::Check(std::string_view point) {
  // Hot path: nothing armed anywhere — one relaxed load, no lock.
  if (armed_.load(std::memory_order_relaxed) == 0) {
    return FaultHit{};
  }
  std::lock_guard<analysis::CheckedMutex> lock(mu_);
  auto it = entries_.find(point);
  if (it == entries_.end()) {
    return FaultHit{};
  }
  Entry& e = it->second;
  ++e.hits;
  total_hits_->Add();
  bool eligible;
  if (e.spec.fail_at != 0) {
    eligible = e.hits == e.spec.fail_at;
  } else if (e.spec.fail_every != 0) {
    eligible = e.hits % e.spec.fail_every == 0;
  } else {
    eligible = true;
  }
  if (eligible && e.spec.probability < 1.0) {
    eligible = rng_.NextDouble() < e.spec.probability;
  }
  if (!eligible) {
    return FaultHit{};
  }
  ++e.fired;
  total_fired_->Add();
  FaultHit hit;
  hit.fired = true;
  hit.action = e.spec.action;
  hit.error = e.spec.error;
  hit.latency_ns = e.spec.latency_ns;
  if (e.spec.one_shot) {
    entries_.erase(it);
    armed_.fetch_sub(1, std::memory_order_relaxed);
  }
  return hit;
}

uint64_t FaultRegistry::Hits(std::string_view point) const {
  std::lock_guard<analysis::CheckedMutex> lock(mu_);
  auto it = entries_.find(point);
  return it == entries_.end() ? 0 : it->second.hits;
}

uint64_t FaultRegistry::Fired(std::string_view point) const {
  std::lock_guard<analysis::CheckedMutex> lock(mu_);
  auto it = entries_.find(point);
  return it == entries_.end() ? 0 : it->second.fired;
}

}  // namespace cntr::fault
