// Deterministic fault injection for the simulated kernel and the CNTR
// stack above it.
//
// A FaultRegistry holds named injection points ("kernel.splice",
// "cntrfs.dispatch", ...). Production code threads a registry pointer down
// to each point and calls Check() on the hot path; with nothing armed this
// is a single relaxed atomic load, so the hooks can stay compiled in (the
// bench suite guards the overhead at <=2%). Tests arm schedules —
// fail-at-op-N, fail-every-K, one-shot, probabilistic — with an error code
// and/or a virtual-latency penalty, then drive the workload and observe how
// the stack degrades.
//
// Determinism: schedules count hits, and the probabilistic mode draws from
// a seeded Rng, so a given (seed, schedule, workload) triple always fires
// at the same operations. Nothing here reads wall-clock time.
#ifndef CNTR_SRC_FAULT_FAULT_H_
#define CNTR_SRC_FAULT_FAULT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/rng.h"
#include "src/analysis/lockdep.h"

namespace cntr::obs {
class Counter;
class MetricsRegistry;
}  // namespace cntr::obs

namespace cntr::fault {

enum class FaultAction {
  kFail,  // the operation returns spec.error
  kKill,  // the executing worker dies (caller-defined: thread exits its loop)
  kDrop,  // the result is silently discarded (a reply that never arrives)
};

// One armed schedule. `fail_at` fires on the Nth hit only (1-based);
// `fail_every` fires on every Kth hit; both zero fires on every hit.
// `probability` gates each eligible hit through a seeded Bernoulli draw.
struct FaultSpec {
  FaultAction action = FaultAction::kFail;
  int error = EIO;
  uint64_t latency_ns = 0;  // virtual latency the point charges when firing
  uint64_t fail_at = 0;     // 1-based hit index; 0 = not used
  uint64_t fail_every = 0;  // every Kth hit; 0 = not used
  bool one_shot = false;    // disarm after the first fire
  double probability = 1.0; // applied to eligible hits
};

// What Check() tells the injection point to do. Evaluates false when the
// point should proceed normally.
struct FaultHit {
  bool fired = false;
  FaultAction action = FaultAction::kFail;
  int error = 0;
  uint64_t latency_ns = 0;

  explicit operator bool() const { return fired; }
};

class FaultRegistry {
 public:
  static constexpr uint64_t kDefaultSeed = 0x5eedbeefULL;

  // Hits and fires of every point count into `metrics` as
  // cntr_fault_{hits,fired}; null falls back to MetricsRegistry::Global().
  explicit FaultRegistry(uint64_t seed = kDefaultSeed, obs::MetricsRegistry* metrics = nullptr);

  FaultRegistry(const FaultRegistry&) = delete;
  FaultRegistry& operator=(const FaultRegistry&) = delete;

  // Arms `spec` at `point`, replacing any previous schedule there. The hit
  // counter restarts at zero so fail_at is relative to arming.
  void Arm(std::string_view point, FaultSpec spec);
  void Disarm(std::string_view point);
  void DisarmAll();

  // The hot-path probe. With nothing armed anywhere: one relaxed load.
  FaultHit Check(std::string_view point);

  // Operations observed at `point` since it was armed (0 when not armed).
  uint64_t Hits(std::string_view point) const;
  // Times the point actually fired.
  uint64_t Fired(std::string_view point) const;
  bool AnyArmed() const { return armed_.load(std::memory_order_relaxed) != 0; }

  // The catalogue of every injection point compiled into the stack, for
  // sweep tests that want to drive each one in turn. Registration is
  // idempotent and happens from static initializers in each layer.
  static std::vector<std::string> Points();

 private:
  struct Entry {
    FaultSpec spec;
    uint64_t hits = 0;
    uint64_t fired = 0;
  };

  // Count of armed points; the fast-path gate.
  std::atomic<uint64_t> armed_{0};
  mutable analysis::CheckedMutex mu_{"fault.registry"};
  std::map<std::string, Entry, std::less<>> entries_;
  Rng rng_;
  // Monotonic totals over every point ever armed (Hits/Fired above restart
  // on re-arm and vanish on disarm).
  obs::Counter* total_hits_;
  obs::Counter* total_fired_;
};

// Registers `point` in the static catalogue (used via CNTR_FAULT_POINT).
// Returns the name so it can initialize a constant.
std::string_view RegisterFaultPoint(std::string_view point);

// Declares one injection point: registers the name once at static-init time
// and yields a constant usable at the call site.
//   CNTR_FAULT_POINT(kSplicePoint, "kernel.splice");
//   ... if (auto hit = faults->Check(kSplicePoint)) ...
#define CNTR_FAULT_POINT(var, name) \
  static const std::string_view var = ::cntr::fault::RegisterFaultPoint(name)

}  // namespace cntr::fault

#endif  // CNTR_SRC_FAULT_FAULT_H_
