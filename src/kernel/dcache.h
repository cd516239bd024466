// Kernel-wide dentry cache.
//
// Why it matters for the paper: native filesystems insert entries with
// infinite validity (invalidated on mutation), while FUSE mounts return a
// finite TTL. CntrFS lookups therefore go to the userspace server again and
// again on cold trees — one open() + one stat() on the server side per
// lookup — which is exactly the bottleneck the paper measures in
// compilebench-read (13.3x) and postmark (7.1x). READDIRPLUS (fuse_fs.h)
// attacks the round trips; this cache is also lock-striped into shards with
// per-shard LRU so concurrent lookups from many server/client threads do
// not serialize on one mutex (the Figure 4 scaling path). Its counters and
// the entry-count gauge live in the kernel's metrics registry
// (cntr_dcache_*).
#ifndef CNTR_SRC_KERNEL_DCACHE_H_
#define CNTR_SRC_KERNEL_DCACHE_H_

#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/kernel/inode.h"
#include "src/obs/metrics.h"
#include "src/util/hash.h"
#include "src/util/sim_clock.h"
#include "src/analysis/lockdep.h"

namespace cntr::kernel {

class DentryCache {
 public:
  DentryCache(SimClock* clock, const CostModel* costs, obs::MetricsRegistry& metrics,
              size_t max_entries = 1 << 16, size_t num_shards = 16);

  // Returns the cached child and charges the dcache-hit cost; null on miss,
  // expiry, or a cached-negative entry (use LookupEntry to tell the last
  // two apart).
  InodePtr Lookup(const Inode* dir, const std::string& name) {
    return LookupEntry(dir, name).value_or(nullptr);
  }

  // Tri-state lookup: nullopt = nothing cached (go ask the filesystem);
  // a null InodePtr = cached negative (the name is known absent — answer
  // ENOENT without a round trip); non-null = positive hit. Hits of either
  // polarity charge the dcache-hit cost and touch the LRU.
  std::optional<InodePtr> LookupEntry(const Inode* dir, const std::string& name);

  // `ttl_ns` == UINT64_MAX means valid until invalidated. At capacity the
  // shard evicts its least-recently-used entry.
  void Insert(const Inode* dir, const std::string& name, InodePtr child, uint64_t ttl_ns);

  // Caches "this name does not exist" (a FUSE negative dentry: the paper's
  // rust-fuse server cannot grant these, so CntrFS re-round-tripped every
  // repeated miss). Overwritten by any positive Insert and removed by
  // Invalidate, so local create/rename/unlink restore coherence.
  void InsertNegative(const Inode* dir, const std::string& name, uint64_t ttl_ns) {
    Insert(dir, name, nullptr, ttl_ns);
  }

  void Invalidate(const Inode* dir, const std::string& name);
  void InvalidateDir(const Inode* dir);
  void Clear();

  // Sweeps every shard (the reference the entry gauge must match).
  size_t size() const;
  size_t num_shards() const { return shards_.size(); }

  // A view over the registry counters: reading it never contends with
  // lookups.
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t expiries = 0;
    uint64_t evictions = 0;
    uint64_t negative_hits = 0;  // ENOENT answered from the cache
  };
  Stats stats() const {
    Stats s;
    s.hits = hits_->Value();
    s.misses = misses_->Value();
    s.expiries = expiries_->Value();
    s.evictions = evictions_->Value();
    s.negative_hits = negative_hits_->Value();
    return s;
  }

 private:
  struct Key {
    const Inode* dir;
    std::string name;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return HashCombine(HashMix64(reinterpret_cast<uintptr_t>(k.dir)),
                         std::hash<std::string>()(k.name));
    }
  };
  struct Entry {
    InodePtr child;
    uint64_t expiry_ns;  // UINT64_MAX = no expiry
    std::list<Key>::iterator lru_it;
  };

  // One lock stripe: its own map and LRU list, padded to a cache line so
  // neighbouring shard locks do not false-share.
  struct alignas(64) Shard {
    mutable analysis::CheckedMutex mu{"kernel.dcache.shard"};
    std::unordered_map<Key, Entry, KeyHash> entries;
    std::list<Key> lru;  // front = most recent
  };

  Shard& ShardFor(const Key& key) const {
    return shards_[KeyHash()(key) % shards_.size()];
  }

  SimClock* clock_;
  const CostModel* costs_;
  size_t max_per_shard_;
  mutable std::vector<Shard> shards_;

  obs::Counter* hits_;
  obs::Counter* misses_;
  obs::Counter* expiries_;
  obs::Counter* evictions_;
  obs::Counter* negative_hits_;
  // Cached entries across all shards, updated under the shard lock.
  obs::Gauge* entries_;
};

}  // namespace cntr::kernel

#endif  // CNTR_SRC_KERNEL_DCACHE_H_
