#include "perfbench/src/record.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "src/fuse/fuse_fs.h"
#include "src/fuse/fuse_proto.h"
#include "src/obs/trace.h"

namespace perfbench {

namespace kernel = cntr::kernel;
namespace obs = cntr::obs;

uint64_t Mix64(uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

void FillContent(uint64_t content_seed, uint64_t offset, char* out, size_t len) {
  // Eight bytes per word; the word index keys the mix so any offset can be
  // generated without producing the bytes before it.
  uint64_t word = offset / 8;
  size_t skip = offset % 8;
  size_t done = 0;
  while (done < len) {
    uint64_t v = Mix64(content_seed ^ (word * 0x9e3779b97f4a7c15ULL));
    char bytes[8];
    std::memcpy(bytes, &v, sizeof(v));
    size_t n = std::min(len - done, 8 - skip);
    std::memcpy(out + done, bytes + skip, n);
    done += n;
    skip = 0;
    ++word;
  }
}

kernel::Kernel::Config MachineConfig() {
  // A scaled EC2 m4.xlarge + EBS GP2 testbed: the values of
  // HarnessOptions::BenchKernelConfig() and the CostModel defaults at the
  // time this benchmark was defined, written out one by one.
  kernel::Kernel::Config config;
  cntr::CostModel& c = config.costs;
  c.syscall_entry_ns = 300;
  c.dcache_hit_ns = 150;
  c.fuse_round_trip_ns = 6000;
  c.fuse_thread_contention_ns = 350;
  c.fuse_ring_sqe_ns = 350;
  c.fuse_ring_cqe_ns = 300;
  c.fuse_ring_doorbell_ns = 2600;
  c.copy_page_ns = 400;
  c.splice_page_ns = 90;
  c.page_cache_hit_ns = 250;
  c.fs_lookup_ns = 1200;
  c.fs_inode_update_ns = 1500;
  c.fs_xattr_lookup_ns = 800;
  c.cntrfs_lookup_ns = 18'000;
  c.disk_op_ns = 90'000;
  c.disk_byte_ns_num = 6;
  c.disk_byte_ns_den = 1;
  c.disk_flush_ns = 150'000;
  config.page_cache_capacity = 96ull << 20;
  config.disk_capacity = 100ull << 30;
  config.ext_dirty_threshold = 8ull << 20;
  config.hostname = "host";
  return config;
}

std::string MachineFingerprint() {
  const kernel::Kernel::Config k = MachineConfig();
  const cntr::CostModel& c = k.costs;
  const cntr::fuse::FuseMountOptions m = cntr::fuse::FuseMountOptions::Optimized();
  char text[1024];
  std::snprintf(
      text, sizeof(text),
      "costs=%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,"
      "%llu,%llu;kernel=%llu,%llu,%llu,%s;mount=%d%d%d%d%d%d%d%d%d,%llu,%llu,%u,%u,%u,%u,%llu,"
      "%llu,%llu,%u,%u,%u,%d,%d,%u,%u",
      (unsigned long long)c.syscall_entry_ns, (unsigned long long)c.dcache_hit_ns,
      (unsigned long long)c.fuse_round_trip_ns, (unsigned long long)c.fuse_thread_contention_ns,
      (unsigned long long)c.fuse_ring_sqe_ns, (unsigned long long)c.fuse_ring_cqe_ns,
      (unsigned long long)c.fuse_ring_doorbell_ns, (unsigned long long)c.copy_page_ns,
      (unsigned long long)c.splice_page_ns, (unsigned long long)c.page_cache_hit_ns,
      (unsigned long long)c.fs_lookup_ns, (unsigned long long)c.fs_inode_update_ns,
      (unsigned long long)c.fs_xattr_lookup_ns, (unsigned long long)c.cntrfs_lookup_ns,
      (unsigned long long)c.disk_op_ns, (unsigned long long)c.disk_byte_ns_num,
      (unsigned long long)c.disk_byte_ns_den, (unsigned long long)c.disk_flush_ns,
      (unsigned long long)k.page_cache_capacity, (unsigned long long)k.disk_capacity,
      (unsigned long long)k.ext_dirty_threshold, k.hostname.c_str(), m.keep_cache,
      m.writeback_cache, m.parallel_dirops, m.async_read, m.splice_read, m.splice_write,
      m.splice_move, m.batch_forget, m.readdirplus, (unsigned long long)m.entry_ttl_ns,
      (unsigned long long)m.attr_ttl_ns, m.max_write, m.readahead_pages, m.readdirplus_batch,
      m.max_pages, (unsigned long long)m.dirty_soft_bytes, (unsigned long long)m.dirty_hard_bytes,
      (unsigned long long)m.per_inode_dirty_bytes, m.flusher_threads, m.num_channels,
      m.pipe_pages, m.lane_autosize, m.ring_enabled, m.ring_depth, m.ring_spin_budget);
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const char* p = text; *p != '\0'; ++p) {
    h = (h ^ static_cast<unsigned char>(*p)) * 0x100000001b3ULL;
  }
  char out[1200];
  std::snprintf(out, sizeof(out), "%016llx %s", (unsigned long long)h, text);
  return out;
}

const char* OpName(Op op) {
  switch (op) {
    case Op::kStat:
      return "stat";
    case Op::kOpen:
      return "open";
    case Op::kGetdents:
      return "getdents";
    case Op::kRead:
      return "read";
    case Op::kWrite:
      return "write";
    case Op::kPread:
      return "pread";
    case Op::kPwrite:
      return "pwrite";
    case Op::kFsync:
      return "fsync";
    case Op::kClose:
      return "close";
    case Op::kExec:
      return "exec";
    case Op::kCount:
      break;
  }
  return "?";
}

uint64_t HostNowNs() {
  static const HostClock::time_point start = HostClock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(HostClock::now() - start).count());
}

void Recorder::Record(Op op, uint64_t key, uint64_t v0, uint64_t v1, uint64_t h0, uint64_t h1) {
  samples_.push_back(Sample{op, traced_, v1 - v0, h1 - h0});
  last_op_ = op;
  hash_ = Mix64(hash_ ^ (static_cast<uint64_t>(op) << 56) ^ key);
  if (traced_) {
    AddSpan(op == Op::kExec ? "core.shell.exec" : std::string("kernel.") + OpName(op), v0, v1,
            h0, h1);
  }
}

void Recorder::AddSpan(std::string name, uint64_t v0, uint64_t v1, uint64_t h0, uint64_t h1) {
  Span span;
  span.name = std::move(name);
  span.parent = round_span_;
  span.session = session_;
  span.client = client_;
  span.host_start_ns = h0;
  span.host_end_ns = h1;
  span.virt_start_ns = v0;
  span.virt_end_ns = v1;
  spans_.push_back(std::move(span));
}

void Recorder::Fail(int err) {
  if (++failed_ <= 5) {
    std::fprintf(stderr, "perfbench: client %u: call %zu (%s) failed: errno %d\n", client_,
                 samples_.size(), OpName(last_op_), err);
  }
}

void Recorder::AddBytes(uint64_t n) {
  bytes_ += n;
  if (traced_) {
    const bool read = last_op_ == Op::kRead || last_op_ == Op::kPread;
    (read ? traced_bytes_read : traced_bytes_written) += n;
  }
}

void Recorder::BeginRound(uint32_t session, bool traced) {
  traced_ = traced;
  session_ = session;
  round_start_ = RoundFigures{VirtNowNs(), samples_.size(), bytes_};
  round_span_ = -1;
  if (traced) {
    Span span;
    span.name = "session";
    span.session = session;
    span.client = client_;
    span.host_start_ns = HostNowNs();
    span.virt_start_ns = round_start_.virt_ns;
    round_span_ = static_cast<int64_t>(spans_.size());
    spans_.push_back(std::move(span));
  }
}

void Recorder::EndRound() {
  const uint64_t now = VirtNowNs();
  rounds_.push_back(RoundFigures{now - round_start_.virt_ns, samples_.size() - round_start_.calls,
                                 bytes_ - round_start_.bytes});
  if (traced_) {
    traced_virt_ns += now - round_start_.virt_ns;
    Span& span = spans_[static_cast<size_t>(round_span_)];
    span.host_end_ns = HostNowNs();
    span.virt_end_ns = now;
  }
  traced_ = false;
  round_span_ = -1;
}

void HistDelta::Add(const obs::Histogram::Snapshot& after,
                    const obs::Histogram::Snapshot& before) {
  snap.count += after.count - before.count;
  snap.sum += after.sum - before.sum;
  snap.max = std::max(snap.max, after.max);
  for (size_t i = 0; i < obs::Histogram::kBuckets; ++i) {
    snap.buckets[i] += after.buckets[i] - before.buckets[i];
  }
}

void LayerTotals::AddDelta(const LayerCounters& after, const LayerCounters& before) {
  for (const auto& [name, value] : after.counters) {
    auto it = before.counters.find(name);
    counters[name] += value - (it == before.counters.end() ? 0.0 : it->second);
  }
  for (const auto& [name, snap] : after.hists) {
    auto it = before.hists.find(name);
    hists[name].Add(snap, it == before.hists.end() ? obs::Histogram::Snapshot{} : it->second);
  }
}

LayerProbe::LayerProbe(kernel::Kernel* kernel, std::vector<cntr::fuse::FuseConn*> conns,
                       cntr::fuse::FuseServerPool* pool)
    : kernel_(kernel), conns_(std::move(conns)), pool_(pool) {
  obs::MetricsRegistry& reg = kernel_->metrics();
  for (uint32_t code = 1; code < 64; ++code) {
    std::string op = cntr::fuse::FuseOpcodeName(static_cast<cntr::fuse::FuseOpcode>(code));
    if (op.empty() || op == "?") {
      continue;
    }
    for (cntr::fuse::FuseConn* conn : conns_) {
      for (const char* phase : {"total", "queue", "service", "transit"}) {
        hists_[op + "/" + phase].push_back(reg.GetHistogram(
            "cntr_fuse_request_ns",
            {{"mount", conn->mount_label()}, {"op", op}, {"phase", phase}}));
      }
      for (size_t i = 0; i < obs::kNumOutcomes; ++i) {
        requests_[op].push_back(reg.GetCounter(
            "cntr_fuse_requests_total",
            {{"mount", conn->mount_label()},
             {"op", op},
             {"outcome", obs::OutcomeName(static_cast<obs::Outcome>(i))}}));
      }
    }
  }
}

LayerCounters LayerProbe::Read() const {
  LayerCounters out;
  auto& c = out.counters;
  const auto dc = kernel_->dcache().stats();
  c["dcache.hits"] = static_cast<double>(dc.hits);
  c["dcache.misses"] = static_cast<double>(dc.misses);
  c["dcache.negative_hits"] = static_cast<double>(dc.negative_hits);
  const auto pc = kernel_->page_cache().stats();
  c["page_cache.hits"] = static_cast<double>(pc.hits);
  c["page_cache.misses"] = static_cast<double>(pc.misses);
  c["page_cache.evictions"] = static_cast<double>(pc.evictions);
  c["page_cache.ref_copies"] = static_cast<double>(pc.ref_copies);
  c["page_cache.cow_breaks"] = static_cast<double>(pc.cow_breaks);
  const auto disk = kernel_->disk().stats();
  c["disk.read_ops"] = static_cast<double>(disk.read_ops);
  c["disk.write_ops"] = static_cast<double>(disk.write_ops);
  c["disk.flushes"] = static_cast<double>(disk.flushes);
  c["disk.bytes_read"] = static_cast<double>(disk.bytes_read);
  c["disk.bytes_written"] = static_cast<double>(disk.bytes_written);
  for (cntr::fuse::FuseConn* conn : conns_) {
    const auto s = conn->stats();
    c["conn.requests"] += static_cast<double>(s.requests);
    c["conn.forgets"] += static_cast<double>(s.forgets);
    c["conn.spliced_bytes"] += static_cast<double>(s.spliced_bytes);
    c["conn.copied_bytes"] += static_cast<double>(s.copied_bytes);
    c["conn.splice_fallbacks"] += static_cast<double>(s.splice_fallbacks);
    c["conn.reaps"] += static_cast<double>(s.reaps);
    c["conn.reaped_requests"] += static_cast<double>(s.reaped_requests);
    c["conn.spin_parks"] += static_cast<double>(s.spin_parks);
  }
  if (pool_ != nullptr) {
    const auto p = pool_->stats();
    c["pool.dispatches"] = static_cast<double>(p.dispatches);
  }
  for (const auto& [op, counters] : requests_) {
    double total = 0;
    for (const obs::Counter* counter : counters) {
      total += static_cast<double>(counter->Value());
    }
    c["fuse." + op] = total;
  }
  for (const auto& [key, hists] : hists_) {
    obs::Histogram::Snapshot sum;
    for (const obs::Histogram* h : hists) {
      obs::Histogram::Snapshot s = h->Snap();
      sum.count += s.count;
      sum.sum += s.sum;
      sum.max = std::max(sum.max, s.max);
      for (size_t i = 0; i < obs::Histogram::kBuckets; ++i) {
        sum.buckets[i] += s.buckets[i];
      }
    }
    out.hists[key] = sum;
  }
  return out;
}

double Quantile(std::vector<uint64_t> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  // (value, mid-CDF) of each distinct value.
  const double n = static_cast<double>(values.size());
  std::vector<std::pair<double, double>> mids;
  for (size_t i = 0; i < values.size();) {
    size_t j = i;
    while (j < values.size() && values[j] == values[i]) {
      ++j;
    }
    mids.emplace_back(static_cast<double>(values[i]),
                      (static_cast<double>(i) + static_cast<double>(j - i) / 2.0) / n);
    i = j;
  }
  if (q <= mids.front().second) {
    return mids.front().first;
  }
  for (size_t k = 1; k < mids.size(); ++k) {
    if (q <= mids[k].second) {
      const auto& [x0, f0] = mids[k - 1];
      const auto& [x1, f1] = mids[k];
      return x0 + (x1 - x0) * (q - f0) / (f1 - f0);
    }
  }
  return mids.back().first;
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

}  // namespace perfbench
