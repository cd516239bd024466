// Block-device model: authoritative byte storage per inode plus a cost model
// for transfers and durability barriers. Stands in for the paper's EBS GP2
// volume (SSD-backed, network attached).
//
// The store keeps each file as 4 KiB page blocks indexed by page number; a
// null block, or one past the end of the file's block list, is a hole and
// reads as zeros. The last block's bytes past the end of the file are zero
// too: a new block starts zeroed, writeback zeroes a partial page's tail,
// and truncation zeroes what it cuts off.
// Block layout does not affect any result the paper reports, but
// per-operation and per-byte costs (and flush barriers) do, so those are
// modeled explicitly.
//
// Blocks are shared with the page cache instead of copied into it: LendPage
// hands the cache a loan of a block (splice::LendFrame, a read-only view
// with a control block of its own), and StorePage adopts a whole page the
// cache's writeback hands over, whose frame the cache then keeps as a loan.
// A stored block is never written again, so a loan never sees its bytes
// change: a write replaces the block with a fresh one (copying the old
// bytes it keeps), and truncation replaces the block it cuts into. A
// replaced block lives on for as long as loans of it do, so a cached page
// keeps the bytes it was filled with, as the private copy it stands for
// would. Because no block is written in place, the store never has to ask
// whether a block is on loan, and a loan may be made outside the storage
// mutex (the page cache makes the one it keeps after a hand-off).
//
// The transfer counters live in the kernel's metrics registry (cntr_disk_*),
// so charging a transfer never takes the storage mutex.
#ifndef CNTR_SRC_KERNEL_DISK_H_
#define CNTR_SRC_KERNEL_DISK_H_

#include <cstdint>
#include <memory>
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
  // Reads [off, off+len) into out; holes read as zeros.
  void ReadData(Ino ino, uint64_t off, uint64_t len, char* out) const;
  // Writes [off, off+len), replacing each block it touches.
  void WriteData(Ino ino, uint64_t off, uint64_t len, const char* src);
  void TruncateData(Ino ino, uint64_t new_size);
  void FreeData(Ino ino);
  // Page `idx` as a full-page frame for the page cache: a loan of its block,
  // or a fresh zeroed frame over a hole. Copies nothing.
  std::shared_ptr<char[]> LendPage(Ino ino, uint64_t idx) const;
  // Keeps `frame`, a whole page nobody writes any more, as block `idx`.
  void StorePage(Ino ino, uint64_t idx, std::shared_ptr<char[]> frame);

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

  // A file's blocks by page index; null = hole.
  using Blocks = std::vector<std::shared_ptr<char[]>>;

  mutable analysis::CheckedMutex mu_{"kernel.disk"};
  std::unordered_map<Ino, Blocks> files_;
};

}  // namespace cntr::kernel

#endif  // CNTR_SRC_KERNEL_DISK_H_
