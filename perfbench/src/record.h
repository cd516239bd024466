// Measurement primitives of the benchmark: the seeded input generator, the
// per-client call recorder (virtual and host latency of every timed call,
// plus spans when tracing), and the layer probe that reads the stack's
// public stats() views and obs histograms as deltas around a round.
//
// Nothing here reaches inside src/: every number comes from timing calls
// into the layers' public functions or from their exported counters.
#ifndef PERFBENCH_SRC_RECORD_H_
#define PERFBENCH_SRC_RECORD_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/fuse/fuse_conn.h"
#include "src/fuse/fuse_server_pool.h"
#include "src/kernel/kernel.h"
#include "src/obs/metrics.h"
#include "src/util/sim_clock.h"

namespace perfbench {

// ---------------------------------------------------------------------------
// Seeded inputs. The generator is the benchmark's own (not src/util/rng.h),
// so a change to the program cannot change the inputs it is measured on.
// ---------------------------------------------------------------------------
uint64_t Mix64(uint64_t x);

class Prng {
 public:
  explicit Prng(uint64_t seed) : state_(seed) {}
  uint64_t Next() { return Mix64(state_ += 0x9e3779b97f4a7c15ULL); }
  uint64_t Below(uint64_t bound) { return Next() % bound; }
  bool Chance(uint64_t num, uint64_t den) { return Below(den) < num; }

 private:
  uint64_t state_;
};

// The byte stream of a generated file: byte `offset` of the stream named
// `content_seed`. Files, writes and reads are verified against it.
void FillContent(uint64_t content_seed, uint64_t offset, char* out, size_t len);

// ---------------------------------------------------------------------------
// The modelled machine, pinned here so a default changed in src/ cannot move
// a virtual metric.
// ---------------------------------------------------------------------------
cntr::kernel::Kernel::Config MachineConfig();
// FNV-1a over every Kernel::Config and CostModel value plus the mount
// options, printed next to the metrics.
std::string MachineFingerprint();

// ---------------------------------------------------------------------------
// Timed calls and spans.
// ---------------------------------------------------------------------------
enum class Op : uint8_t {
  kStat,
  kOpen,
  kGetdents,
  kRead,
  kWrite,
  kPread,
  kPwrite,
  kFsync,
  kClose,
  kExec,  // one AttachedSession::Execute command
  kCount,
};
const char* OpName(Op op);

using HostClock = std::chrono::steady_clock;
uint64_t HostNowNs();  // steady_clock ns since process start

struct Span {
  std::string name;
  int64_t parent = -1;  // index into the same span list, -1 = root
  uint32_t session = 0;
  uint32_t client = 0;
  uint64_t host_start_ns = 0;
  uint64_t host_end_ns = 0;
  uint64_t virt_start_ns = 0;
  uint64_t virt_end_ns = 0;
};

struct Sample {
  Op op;
  bool traced;
  uint64_t virt_ns;
  uint64_t host_ns;
};

// One client's record of its timed calls.
//
// Virtual time is read from the client's own SimClock lane: the time the
// client and the server work done on its behalf were charged. Work nobody
// waits for (FORGET handling, which carries no lane) lands on the shared
// timeline at a moment set by thread scheduling, so it stays out.
class Recorder {
 public:
  Recorder(cntr::SimClock::LanePtr lane, uint32_t client)
      : lane_(std::move(lane)), client_(client) {}

  // Times one call into the stack and returns its result. `key` identifies
  // the call's arguments (path, offset) for the call-sequence hash.
  template <typename F>
  auto Time(Op op, uint64_t key, F&& call) -> decltype(call()) {
    const uint64_t v0 = VirtNowNs();
    const uint64_t h0 = HostNowNs();
    auto result = call();
    Record(op, key, v0, VirtNowNs(), h0, HostNowNs());
    return result;
  }
  // Runs a step of the workload that is not a timed call (no sample, no
  // hash), recording it as a span when the round is traced.
  template <typename F>
  void Untimed(const char* name, F&& step) {
    const uint64_t v0 = VirtNowNs();
    const uint64_t h0 = HostNowNs();
    step();
    if (traced_) {
      AddSpan(name, v0, VirtNowNs(), h0, HostNowNs());
    }
  }
  // Every timed call's outcome passes through here exactly once.
  // `err` (an errno, 0 = none) is reported with the first failures.
  void Check(bool ok, int err = 0) {
    if (!ok) {
      Fail(err);
    }
  }
  // User bytes moved by the call just timed.
  void AddBytes(uint64_t n);

  // Round framing: a traced round opens a session span that parents the
  // round's call spans; every round leaves one RoundFigures entry.
  void BeginRound(uint32_t session, bool traced);
  void EndRound();
  // Freezes the call count and hash the prefix metrics are computed from.
  void MarkPrefix() {
    prefix_calls = samples_.size();
    prefix_hash = hash_;
  }
  uint64_t VirtNowNs() const { return lane_->local_ns.load(std::memory_order_relaxed); }

  struct RoundFigures {
    uint64_t virt_ns = 0;  // client virtual time the round took
    uint64_t calls = 0;
    uint64_t bytes = 0;
  };
  const std::vector<RoundFigures>& rounds() const { return rounds_; }
  const std::vector<Sample>& samples() const { return samples_; }
  const std::vector<Span>& spans() const { return spans_; }
  uint64_t attempted() const { return samples_.size(); }
  uint64_t failed() const { return failed_; }

  // Frozen at MarkPrefix().
  size_t prefix_calls = 0;
  uint64_t prefix_hash = 0;
  // Client virtual time and user bytes inside traced rounds.
  uint64_t traced_virt_ns = 0;
  uint64_t traced_bytes_read = 0;
  uint64_t traced_bytes_written = 0;

 private:
  void Record(Op op, uint64_t key, uint64_t v0, uint64_t v1, uint64_t h0, uint64_t h1);
  void Fail(int err);  // counts the failure, reports the first few on stderr
  void AddSpan(std::string name, uint64_t v0, uint64_t v1, uint64_t h0, uint64_t h1);

  cntr::SimClock::LanePtr lane_;
  uint32_t client_;
  std::vector<Sample> samples_;
  std::vector<Span> spans_;
  std::vector<RoundFigures> rounds_;
  uint64_t failed_ = 0;
  uint64_t bytes_ = 0;
  uint64_t hash_ = 0xcbf29ce484222325ULL;
  bool traced_ = false;
  Op last_op_ = Op::kCount;
  int64_t round_span_ = -1;
  uint32_t session_ = 0;
  RoundFigures round_start_;
};

// ---------------------------------------------------------------------------
// Layer counters, read through public stats() views and the obs registry.
// ---------------------------------------------------------------------------
struct HistDelta {
  cntr::obs::Histogram::Snapshot snap;
  void Add(const cntr::obs::Histogram::Snapshot& after,
           const cntr::obs::Histogram::Snapshot& before);
};

struct LayerCounters {
  std::map<std::string, double> counters;
  std::map<std::string, cntr::obs::Histogram::Snapshot> hists;
};

// Accumulated deltas of LayerCounters over the traced rounds.
struct LayerTotals {
  std::map<std::string, double> counters;
  std::map<std::string, HistDelta> hists;
  void AddDelta(const LayerCounters& after, const LayerCounters& before);
};

class LayerProbe {
 public:
  LayerProbe(cntr::kernel::Kernel* kernel, std::vector<cntr::fuse::FuseConn*> conns,
             cntr::fuse::FuseServerPool* pool);
  LayerCounters Read() const;

 private:
  cntr::kernel::Kernel* kernel_;
  std::vector<cntr::fuse::FuseConn*> conns_;
  cntr::fuse::FuseServerPool* pool_;
  // "<OP>/<phase>" -> one histogram per mount.
  std::map<std::string, std::vector<cntr::obs::Histogram*>> hists_;
  // "<OP>" -> outcome counters of every mount.
  std::map<std::string, std::vector<cntr::obs::Counter*>> requests_;
};

// Mid-distribution quantile of a sample list (0 when empty): the inverse of
// the CDF drawn through the midpoints of its jumps. Virtual latencies take
// few distinct values, so a plain order statistic reads the same cost
// constant whatever the mix; the mid-quantile interpolates between the two
// values around q by how much of the sample each holds, and so follows the
// mix. On continuous data it matches the usual quantile.
double Quantile(std::vector<uint64_t> values, double q);
double Median(std::vector<double> values);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_RECORD_H_
