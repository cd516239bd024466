// The unified observability plane: a process-wide registry of named
// instruments (counters, gauges, log-scale latency histograms) that every
// subsystem writes through and every exposition surface reads from.
//
// Design constraints, in order:
//
//   1. Hot-path writes must be cheap and contention-free. Counters and
//      histograms shard their cells across cache-line-aligned slots keyed
//      by a thread-local shard id, and every increment is a relaxed atomic
//      RMW on the calling thread's own line — no locks, no fences, no
//      false sharing with a concurrent reader or a sibling thread.
//   2. Instrumentation must never perturb the simulation. Nothing in this
//      module reads or advances SimClock; values recorded *are* virtual-
//      time measurements taken by the caller, so compiling the plane in
//      leaves every benchmark panel bit-identical.
//   3. Reads are rare and may be slow. Snapshots sum the shards with
//      relaxed loads; RenderPrometheus()/SnapshotJson() take the registry
//      lock only to walk the (low-churn) name table.
//
// Instruments are registered once — GetCounter/GetGauge/GetHistogram return
// a stable pointer for the registry's lifetime, so subsystems resolve their
// instruments at construction and keep raw pointers on the hot path. Series
// identity is name + label set (Prometheus style); per-mount/per-tenant
// rollup keys ride in labels (e.g. mount="m0").
//
// The registry is the only counter store: subsystems count straight into
// their instruments, and a subsystem's Stats struct is a view over
// Value() reads. Exposition therefore only loads atomics under the
// registry mutex and never calls back into subsystem code, so rendering
// cannot join a lock-order cycle with the paths that record here.
#ifndef CNTR_SRC_OBS_METRICS_H_
#define CNTR_SRC_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>
#include "src/analysis/lockdep.h"

namespace cntr::obs {

// Stable small integer for the calling thread, assigned on first use.
// Instruments fold it onto their shard count; threads spread across shards
// so concurrent writers almost never share a cell.
size_t ThreadShardId();

// A label set, rendered in registration order (callers pass a canonical
// order so identical series get identical keys).
using Labels = std::vector<std::pair<std::string, std::string>>;

// Monotonic counter with per-shard cells. One relaxed fetch_add on the
// caller's own cache line per Add().
class Counter {
 public:
  static constexpr size_t kShards = 8;

  void Add(uint64_t v = 1) {
    cells_[ThreadShardId() & (kShards - 1)].v.fetch_add(v, std::memory_order_relaxed);
  }
  uint64_t Value() const {
    uint64_t total = 0;
    for (const Cell& c : cells_) {
      total += c.v.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(64) Cell {
    std::atomic<uint64_t> v{0};
  };
  std::array<Cell, kShards> cells_{};
};

// Point-in-time signed value (queue depths, in-flight counts).
class Gauge {
 public:
  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  int64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

// Fixed-bucket log-linear latency histogram (HdrHistogram-style): each
// power-of-two octave is split into kSub linear sub-buckets, so relative
// error is bounded at 1/kSub (~12.5%) across the whole range while the
// bucket count stays fixed and small. Values are virtual nanoseconds;
// the top bucket absorbs anything past ~2^41 ns (~37 virtual minutes).
//
// Cells are sharded like Counter's: Record() touches only the calling
// thread's shard (bucket line + sum/max line), all relaxed.
class Histogram {
 public:
  static constexpr size_t kSubBits = 2;
  static constexpr size_t kSub = size_t{1} << kSubBits;  // 4 sub-buckets/octave
  static constexpr size_t kBuckets = 160;                // covers [0, ~2^41) ns
  static constexpr size_t kShards = 4;

  // Index of the bucket containing `v`. Buckets 0..kSub-1 are exact small
  // values; past that, index = (octave << kSubBits) | sub where octave
  // grows with the MSB position and sub takes the kSubBits bits below it.
  // Monotonic and gapless: BucketIndex(v) <= BucketIndex(v+1).
  static size_t BucketIndex(uint64_t v);
  // Inclusive upper bound of bucket `idx` (the Prometheus `le` edge).
  static uint64_t BucketUpperBound(size_t idx);

  void Record(uint64_t v);

  struct Snapshot {
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t max = 0;
    std::array<uint64_t, kBuckets> buckets{};

    // Linear interpolation within the containing bucket; q in [0,1].
    // Returns 0 on an empty snapshot. Quantiles never exceed `max`.
    double Quantile(double q) const;
    double Mean() const { return count == 0 ? 0.0 : static_cast<double>(sum) / count; }
  };
  // Sums the shards with relaxed loads: a consistent-enough snapshot that
  // never blocks a writer.
  Snapshot Snap() const;

 private:
  struct alignas(64) Shard {
    std::array<std::atomic<uint64_t>, kBuckets> buckets{};
    std::atomic<uint64_t> sum{0};
    std::atomic<uint64_t> max{0};
  };
  std::array<Shard, kShards> shards_{};
};

// The instrument table. One per Kernel (every mount/subsystem of a
// simulated host shares it), plus a process-wide Global() fallback for
// raw transport users constructed without a kernel.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  static MetricsRegistry& Global();

  // Idempotent: the first call for a (name, labels) pair creates the
  // instrument, later calls return the same pointer. Pointers stay valid
  // for the registry's lifetime.
  Counter* GetCounter(std::string_view name, Labels labels = {});
  Gauge* GetGauge(std::string_view name, Labels labels = {});
  Histogram* GetHistogram(std::string_view name, Labels labels = {});

  // Monotonic id allocator for rollup scopes: AllocScope("mount") returns
  // 0, 1, 2, ... — callers label their instruments mount="m<id>" so every
  // mount of a kernel exports a distinct, stable series.
  uint64_t AllocScope(std::string_view kind);

  // Prometheus text exposition: # TYPE lines, one series per line,
  // histograms as cumulative le-buckets plus _sum/_count plus p50/p95/p99
  // quantile lines. Deterministic order (sorted by series key).
  std::string RenderPrometheus() const;
  // JSON snapshot: {"counters": {...}, "gauges": {...}, "histograms":
  // {series: {count, sum, mean, max, p50, p95, p99}}}. Same key space as
  // the text format; benches embed it in their --json artifacts.
  std::string SnapshotJson() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    std::string name;  // family name (key minus the label block)
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry* FindOrCreate(std::string_view name, const Labels& labels, Kind kind);

  mutable analysis::CheckedMutex mu_{"obs.metrics.registry"};
  // Keyed by the full series string name{k="v",...}; std::map keeps the
  // exposition deterministic.
  std::map<std::string, Entry> series_;
  std::map<std::string, uint64_t, std::less<>> scopes_;
};

// Builds the canonical series key name{k="v",...} (no braces when empty).
std::string SeriesKey(std::string_view name, const Labels& labels);

}  // namespace cntr::obs

#endif  // CNTR_SRC_OBS_METRICS_H_
