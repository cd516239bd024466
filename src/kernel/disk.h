// Block-device model: authoritative byte storage per inode plus a cost model
// for transfers and durability barriers. Stands in for the paper's EBS GP2
// volume (SSD-backed, network attached).
//
// The store keeps whole-file byte vectors rather than raw blocks — block
// layout does not affect any result the paper reports, but per-operation and
// per-byte costs (and flush barriers) do, so those are modeled explicitly.
// The transfer counters live in the kernel's metrics registry (cntr_disk_*),
// so charging a transfer never takes the storage mutex.
#ifndef CNTR_SRC_KERNEL_DISK_H_
#define CNTR_SRC_KERNEL_DISK_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/kernel/types.h"
#include "src/obs/metrics.h"
#include "src/util/sim_clock.h"
#include "src/util/status.h"
#include "src/analysis/lockdep.h"

namespace cntr::kernel {

class DiskModel {
 public:
  DiskModel(SimClock* clock, const CostModel* costs, obs::MetricsRegistry& metrics,
            uint64_t capacity_bytes);

  // Charges the cost of reading `bytes` spread over `ops` device commands.
  void ChargeRead(uint64_t bytes, uint32_t ops);
  void ChargeWrite(uint64_t bytes, uint32_t ops);
  // Durability barrier (journal commit / FUA).
  void ChargeFlush();
  // Direct (O_DIRECT) transfers overlap at the device's effective queue
  // depth: network-attached volumes like EBS stripe across backends, so both
  // fixed and streaming costs divide by kDirectParallelism (AIO-Stress
  // §5.2.2).
  void ChargeDirectWrite(uint64_t bytes, uint32_t ops);

  // A view over the registry counters.
  struct Stats {
    uint64_t read_ops = 0;
    uint64_t write_ops = 0;
    uint64_t flushes = 0;
    uint64_t bytes_read = 0;
    uint64_t bytes_written = 0;
  };
  Stats stats() const {
    Stats s;
    s.read_ops = read_ops_->Value();
    s.write_ops = write_ops_->Value();
    s.flushes = flushes_->Value();
    s.bytes_read = bytes_read_->Value();
    s.bytes_written = bytes_written_->Value();
    return s;
  }

  uint64_t capacity_bytes() const { return capacity_bytes_; }

  // --- authoritative storage, keyed by inode number ---
  // Reads [off, off+len) into out; regions never written read as zeros.
  void ReadData(Ino ino, uint64_t off, uint64_t len, char* out) const;
  void WriteData(Ino ino, uint64_t off, uint64_t len, const char* src);
  void TruncateData(Ino ino, uint64_t new_size);
  void FreeData(Ino ino);
  uint64_t StoredBytes(Ino ino) const;
  uint64_t TotalStoredBytes() const;

 private:
  static constexpr uint32_t kDirectParallelism = 3;

  SimClock* clock_;
  const CostModel* costs_;
  uint64_t capacity_bytes_;
  obs::Counter* read_ops_;
  obs::Counter* write_ops_;
  obs::Counter* flushes_;
  obs::Counter* bytes_read_;
  obs::Counter* bytes_written_;

  mutable analysis::CheckedMutex mu_{"kernel.disk"};
  std::unordered_map<Ino, std::vector<char>> data_;
};

}  // namespace cntr::kernel

#endif  // CNTR_SRC_KERNEL_DISK_H_
