#include "src/kernel/disk.h"

#include <algorithm>
#include <cstring>
#include "src/analysis/lockdep.h"
#include "src/splice/page_ref.h"

namespace cntr::kernel {

DiskModel::DiskModel(SimClock* clock, const CostModel* costs, obs::MetricsRegistry& metrics,
                     uint64_t capacity_bytes)
    : clock_(clock),
      costs_(costs),
      capacity_bytes_(capacity_bytes),
      read_ops_(metrics.GetCounter("cntr_disk_read_ops")),
      write_ops_(metrics.GetCounter("cntr_disk_write_ops")),
      flushes_(metrics.GetCounter("cntr_disk_flushes")),
      bytes_read_(metrics.GetCounter("cntr_disk_bytes_read")),
      bytes_written_(metrics.GetCounter("cntr_disk_bytes_written")) {}

void DiskModel::ChargeRead(uint64_t bytes, uint32_t ops) {
  read_ops_->Add(ops);
  bytes_read_->Add(bytes);
  clock_->Advance(static_cast<uint64_t>(ops) * costs_->disk_op_ns +
                  bytes * costs_->disk_byte_ns_num / costs_->disk_byte_ns_den);
}

void DiskModel::ChargeWrite(uint64_t bytes, uint32_t ops) {
  write_ops_->Add(ops);
  bytes_written_->Add(bytes);
  clock_->Advance(static_cast<uint64_t>(ops) * costs_->disk_op_ns +
                  bytes * costs_->disk_byte_ns_num / costs_->disk_byte_ns_den);
}

void DiskModel::ChargeFlush() {
  flushes_->Add();
  clock_->Advance(costs_->disk_flush_ns);
}

void DiskModel::ChargeDirectWrite(uint64_t bytes, uint32_t ops) {
  write_ops_->Add(ops);
  bytes_written_->Add(bytes);
  clock_->Advance((static_cast<uint64_t>(ops) * costs_->disk_op_ns +
                   bytes * costs_->disk_byte_ns_num / costs_->disk_byte_ns_den) /
                  kDirectParallelism);
}

void DiskModel::ReadData(Ino ino, uint64_t off, uint64_t len, char* out) const {
  std::lock_guard<analysis::CheckedMutex> lock(mu_);
  auto it = files_.find(ino);
  for (uint64_t done = 0; done < len;) {
    uint64_t idx = (off + done) / kPageSize;
    uint64_t in = (off + done) % kPageSize;
    uint64_t take = std::min<uint64_t>(kPageSize - in, len - done);
    const char* block = nullptr;
    if (it != files_.end() && idx < it->second.size()) {
      block = it->second[idx].get();
    }
    if (block != nullptr) {
      std::memcpy(out + done, block + in, take);
    } else {
      std::memset(out + done, 0, take);
    }
    done += take;
  }
}

void DiskModel::WriteData(Ino ino, uint64_t off, uint64_t len, const char* src) {
  std::lock_guard<analysis::CheckedMutex> lock(mu_);
  Blocks& blocks = files_[ino];
  uint64_t end_page = (off + len + kPageSize - 1) / kPageSize;
  if (blocks.size() < end_page) {
    blocks.resize(end_page);
  }
  for (uint64_t done = 0; done < len;) {
    uint64_t idx = (off + done) / kPageSize;
    uint64_t in = (off + done) % kPageSize;
    uint64_t take = std::min<uint64_t>(kPageSize - in, len - done);
    // The old block may be on loan: the write lands in a fresh one.
    std::shared_ptr<char[]> fresh = std::make_shared_for_overwrite<char[]>(kPageSize);
    if (take < kPageSize) {
      if (blocks[idx] != nullptr) {
        std::memcpy(fresh.get(), blocks[idx].get(), kPageSize);
      } else {
        std::memset(fresh.get(), 0, kPageSize);
      }
    }
    std::memcpy(fresh.get() + in, src + done, take);
    blocks[idx] = std::move(fresh);
    done += take;
  }
}

void DiskModel::TruncateData(Ino ino, uint64_t new_size) {
  std::lock_guard<analysis::CheckedMutex> lock(mu_);
  auto it = files_.find(ino);
  if (it == files_.end()) {
    return;
  }
  Blocks& blocks = it->second;
  uint64_t keep_pages = (new_size + kPageSize - 1) / kPageSize;
  if (blocks.size() > keep_pages) {
    blocks.resize(keep_pages);
  }
  // Zero the cut-off tail of the boundary block, in a fresh block.
  uint64_t keep = new_size % kPageSize;
  if (keep != 0 && blocks.size() == keep_pages && blocks.back() != nullptr) {
    std::shared_ptr<char[]>& block = blocks.back();
    std::shared_ptr<char[]> fresh = std::make_shared_for_overwrite<char[]>(kPageSize);
    std::memcpy(fresh.get(), block.get(), keep);
    std::memset(fresh.get() + keep, 0, kPageSize - keep);
    block = std::move(fresh);
  }
}

void DiskModel::FreeData(Ino ino) {
  std::lock_guard<analysis::CheckedMutex> lock(mu_);
  files_.erase(ino);
}

std::shared_ptr<char[]> DiskModel::LendPage(Ino ino, uint64_t idx) const {
  {
    std::lock_guard<analysis::CheckedMutex> lock(mu_);
    auto it = files_.find(ino);
    if (it != files_.end() && idx < it->second.size() && it->second[idx] != nullptr) {
      return splice::LendFrame(it->second[idx]);
    }
  }
  return std::make_shared<char[]>(kPageSize);  // a hole
}

void DiskModel::StorePage(Ino ino, uint64_t idx, std::shared_ptr<char[]> frame) {
  std::lock_guard<analysis::CheckedMutex> lock(mu_);
  Blocks& blocks = files_[ino];
  if (blocks.size() <= idx) {
    blocks.resize(idx + 1);
  }
  blocks[idx] = std::move(frame);
}

}  // namespace cntr::kernel
