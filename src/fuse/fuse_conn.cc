#include "src/fuse/fuse_conn.h"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>
#include <type_traits>

#include "src/kernel/pipe.h"
#include "src/util/hash.h"
#include "src/analysis/lockdep.h"

namespace cntr::fuse {

namespace {

// Transport-layer injection points (see docs/robustness.md).
CNTR_FAULT_POINT(kFaultConnEnqueue, "fuse.conn.enqueue");
CNTR_FAULT_POINT(kFaultConnReply, "fuse.conn.reply");
CNTR_FAULT_POINT(kFaultLaneTransit, "fuse.lane.transit");
// Ring-transport points: an injected SQ overflow (kFail surfaces the error
// to the submitter, as if the ring were exhausted), a doorbell lost on the
// wire (any action: the wakeup is skipped; the bounded parks on both sides
// self-heal), and a poisoned reap pass (kFail/kDrop: the pass returns empty
// and the burst stays queued for the next one; kKill: the reaping worker
// treats it as a crash and aborts the connection).
CNTR_FAULT_POINT(kFaultSqOverflow, "fuse.conn.sq_overflow");
CNTR_FAULT_POINT(kFaultRingDoorbellLost, "fuse.ring.doorbell_lost");
CNTR_FAULT_POINT(kFaultRingReap, "fuse.ring.reap");

// Fixed-size head of one packed direntplus record; the name bytes follow.
struct PackedDirentPlus {
  uint64_t ino = 0;
  uint8_t type = 0;
  uint16_t name_len = 0;
  uint64_t nodeid = 0;
  uint64_t entry_ttl_ns = 0;
  uint64_t attr_ttl_ns = 0;
  kernel::InodeAttr attr;
};
static_assert(std::is_trivially_copyable_v<PackedDirentPlus>);

}  // namespace

std::vector<splice::PageRef> PackDirentsPlus(const std::vector<FuseDirentPlus>& entries) {
  std::string bytes;
  uint32_t count = static_cast<uint32_t>(entries.size());
  bytes.append(reinterpret_cast<const char*>(&count), sizeof(count));
  for (const FuseDirentPlus& dent : entries) {
    PackedDirentPlus rec;
    rec.ino = dent.dirent.ino;
    rec.type = static_cast<uint8_t>(dent.dirent.type);
    rec.name_len = static_cast<uint16_t>(dent.dirent.name.size());
    rec.nodeid = dent.entry.nodeid;
    rec.entry_ttl_ns = dent.entry.entry_ttl_ns;
    rec.attr_ttl_ns = dent.entry.attr_ttl_ns;
    rec.attr = dent.entry.attr;
    bytes.append(reinterpret_cast<const char*>(&rec), sizeof(rec));
    bytes.append(dent.dirent.name);
  }
  return splice::ChopIntoPages(bytes.data(), bytes.size());
}

std::vector<FuseDirentPlus> UnpackDirentsPlus(const std::vector<splice::PageRef>& pages,
                                              const std::string& flat) {
  std::string bytes;
  if (!pages.empty()) {
    for (const splice::PageRef& ref : pages) {
      bytes.append(ref.data(), ref.len);
    }
  } else {
    bytes = flat;
  }
  std::vector<FuseDirentPlus> out;
  size_t pos = 0;
  if (bytes.size() < sizeof(uint32_t)) {
    return out;
  }
  uint32_t count = 0;
  std::memcpy(&count, bytes.data(), sizeof(count));
  pos += sizeof(count);
  out.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    if (pos + sizeof(PackedDirentPlus) > bytes.size()) {
      break;  // truncated stream: serve what parsed cleanly
    }
    PackedDirentPlus rec;
    std::memcpy(&rec, bytes.data() + pos, sizeof(rec));
    pos += sizeof(rec);
    if (pos + rec.name_len > bytes.size()) {
      break;
    }
    FuseDirentPlus dent;
    dent.dirent.name.assign(bytes.data() + pos, rec.name_len);
    pos += rec.name_len;
    dent.dirent.ino = rec.ino;
    dent.dirent.type = static_cast<kernel::DType>(rec.type);
    dent.entry.nodeid = rec.nodeid;
    dent.entry.entry_ttl_ns = rec.entry_ttl_ns;
    dent.entry.attr_ttl_ns = rec.attr_ttl_ns;
    dent.entry.attr = rec.attr;
    out.push_back(std::move(dent));
  }
  return out;
}

const char* FuseOpcodeName(FuseOpcode op) {
  switch (op) {
    case FuseOpcode::kLookup:
      return "LOOKUP";
    case FuseOpcode::kForget:
      return "FORGET";
    case FuseOpcode::kGetattr:
      return "GETATTR";
    case FuseOpcode::kSetattr:
      return "SETATTR";
    case FuseOpcode::kReadlink:
      return "READLINK";
    case FuseOpcode::kSymlink:
      return "SYMLINK";
    case FuseOpcode::kMknod:
      return "MKNOD";
    case FuseOpcode::kMkdir:
      return "MKDIR";
    case FuseOpcode::kUnlink:
      return "UNLINK";
    case FuseOpcode::kRmdir:
      return "RMDIR";
    case FuseOpcode::kRename:
      return "RENAME";
    case FuseOpcode::kLink:
      return "LINK";
    case FuseOpcode::kOpen:
      return "OPEN";
    case FuseOpcode::kRead:
      return "READ";
    case FuseOpcode::kWrite:
      return "WRITE";
    case FuseOpcode::kStatfs:
      return "STATFS";
    case FuseOpcode::kRelease:
      return "RELEASE";
    case FuseOpcode::kFsync:
      return "FSYNC";
    case FuseOpcode::kSetxattr:
      return "SETXATTR";
    case FuseOpcode::kGetxattr:
      return "GETXATTR";
    case FuseOpcode::kListxattr:
      return "LISTXATTR";
    case FuseOpcode::kRemovexattr:
      return "REMOVEXATTR";
    case FuseOpcode::kFlush:
      return "FLUSH";
    case FuseOpcode::kInit:
      return "INIT";
    case FuseOpcode::kOpendir:
      return "OPENDIR";
    case FuseOpcode::kReaddir:
      return "READDIR";
    case FuseOpcode::kReleasedir:
      return "RELEASEDIR";
    case FuseOpcode::kAccess:
      return "ACCESS";
    case FuseOpcode::kCreate:
      return "CREATE";
    case FuseOpcode::kInterrupt:
      return "INTERRUPT";
    case FuseOpcode::kDestroy:
      return "DESTROY";
    case FuseOpcode::kBatchForget:
      return "BATCH_FORGET";
    case FuseOpcode::kReaddirPlus:
      return "READDIRPLUS";
  }
  return "?";
}

namespace {

// RequestMetrics lives below the fuse layer and labels series through this
// adapter (unknown opcodes render as "op<N>" on its side).
const char* OpcodeNameU32(uint32_t op) {
  return FuseOpcodeName(static_cast<FuseOpcode>(op));
}

}  // namespace

FuseConn::FuseConn(SimClock* clock, const CostModel* costs, size_t num_channels,
                   fault::FaultRegistry* faults, obs::MetricsRegistry* metrics)
    : clock_(clock),
      costs_(costs),
      faults_(faults),
      registry_(metrics != nullptr ? metrics : &obs::MetricsRegistry::Global()) {
  mount_label_ = "m" + std::to_string(registry_->AllocScope("mount"));
  const obs::Labels labels{{"mount", mount_label_}};
  auto counter = [&](const char* name) { return registry_->GetCounter(name, labels); };
  requests_ = counter("cntr_fuse_conn_requests_total");
  replies_ = counter("cntr_fuse_conn_replies_total");
  forgets_ = counter("cntr_fuse_conn_forgets_total");
  spliced_bytes_ = counter("cntr_fuse_conn_spliced_bytes_total");
  copied_bytes_ = counter("cntr_fuse_conn_copied_bytes_total");
  splice_fallbacks_ = counter("cntr_fuse_conn_splice_fallbacks_total");
  lane_growths_ = counter("cntr_fuse_conn_lane_growths_total");
  timeouts_ = counter("cntr_fuse_conn_timeouts_total");
  late_replies_ = counter("cntr_fuse_conn_late_replies_total");
  interrupts_ = counter("cntr_fuse_conn_interrupts_total");
  admission_waits_ = counter("cntr_fuse_conn_admission_waits_total");
  sheds_ = counter("cntr_fuse_conn_shed_total");
  req_metrics_ =
      std::make_unique<obs::RequestMetrics>(registry_, mount_label_, &OpcodeNameU32);
  std::lock_guard<analysis::CheckedMutex> lock(config_mu_);
  InstallChannels(std::clamp<size_t>(num_channels, 1, kMaxChannels), kDefaultRingDepth,
                  RingProfile::kPaper);
}

void FuseConn::RecordOutcome(FuseOpcode op, const obs::SpanPtr& span,
                             obs::Outcome outcome, bool spliced) {
  // Wake stamp: NowNs on the waiter's own timeline. Reads only — the
  // observability plane never advances the clock.
  req_metrics_->RecordRequest(static_cast<uint32_t>(op), span.get(), clock_->NowNs(),
                              outcome, spliced);
}

FuseConn::~FuseConn() { StopSweeper(); }

void FuseConn::InstallChannels(size_t n, size_t depth, RingProfile profile) {
  for (size_t i = 0; i < n; ++i) {
    owned_channels_.push_back(std::make_unique<FuseChannel>(depth, profile));
    channel_table_[i].store(owned_channels_.back().get(), std::memory_order_release);
  }
  num_channels_.store(n, std::memory_order_release);
}

bool FuseConn::Quiet() const {
  // Every queued or waiting request is counted in one of the two totals: a
  // pending completion slot belongs to a SendAndWait still in flight.
  return !aborted() && queued_total_.load() == 0 &&
         in_flight_.load(std::memory_order_acquire) == 0;
}

size_t FuseConn::ConfigureRing(size_t depth, uint32_t spin_budget, RingProfile profile) {
  if (depth == 0) {
    return 0;  // keep the current rings
  }
  // Exclusive acquisition proves no submitter holds a ring about to be
  // replaced (they hold reshape_mu_ shared from routing until their reply);
  // try_lock keeps a busy connection from blocking the caller.
  std::unique_lock<analysis::CheckedSharedMutex> reshape(reshape_mu_, std::try_to_lock);
  if (!reshape.owns_lock()) {
    return 0;
  }
  std::lock_guard<analysis::CheckedMutex> config(config_mu_);
  if (ring_profile() == RingProfile::kRing) {
    return ring_depth();  // the negotiated ring sticks for the connection's life
  }
  if (!Quiet()) {
    return 0;
  }
  // Round up to a power of two (the MPMC ring and the slot mask need it).
  const size_t d = std::clamp(depth, kMinRingDepth, kMaxRingDepth);
  size_t pow2 = kMinRingDepth;
  while (pow2 < d) {
    pow2 <<= 1;
  }
  ring_spin_budget_.store(std::max<uint32_t>(spin_budget, 1), std::memory_order_release);
  // Retired channels keep their old rings: nothing routes to them.
  for (size_t i = 0; i < num_channels(); ++i) {
    Channel(i).InstallRing(pow2, profile);
  }
  RecomputeSpinBudget();
  return pow2;
}

size_t FuseConn::ConfigureChannels(size_t requested) {
  size_t n = std::clamp<size_t>(requested, 1, kMaxChannels);
  // Exclusive acquisition proves no submitter is inside its route-to-wait
  // window (they hold reshape_mu_ shared for the whole send); try_lock keeps
  // the caller non-blocking — a busy connection just keeps its shape.
  std::unique_lock<analysis::CheckedSharedMutex> reshape(reshape_mu_, std::try_to_lock);
  if (!reshape.owns_lock()) {
    return num_channels();
  }
  std::lock_guard<analysis::CheckedMutex> config(config_mu_);
  // Queued uniques bake their channel index in, so traffic pins the shape.
  if (n == num_channels() || !Quiet()) {
    return num_channels();
  }
  size_t lane_cap = 0;
  for (const auto& ch : owned_channels_) {
    lane_cap = std::max(lane_cap, ch->lanes.capacity());
  }
  const RingState& ring = Channel(0).ring();
  InstallChannels(n, ring.depth, ring.profile);
  // Fresh channels are born at the construction-time lane default; carry the
  // negotiated (or autosized) capacity over so a reshape never shrinks the
  // payload window behind the mount's back.
  if (lane_cap > kDefaultLanePages * kernel::kPageSize) {
    for (size_t i = owned_channels_.size() - n; i < owned_channels_.size(); ++i) {
      (void)owned_channels_[i]->lanes.Resize(lane_cap);
    }
  }
  RecomputeSpinBudget();
  return num_channels();
}

size_t FuseConn::RouteChannel(kernel::Pid pid) const {
  return HashMix64(static_cast<uint64_t>(pid)) % num_channels();
}

namespace {

// Copy fallback shared by both gate directions: flattens page refs into a
// byte buffer, charging one copy per page.
uint64_t FlattenPages(std::vector<splice::PageRef>& pages, std::string& data, SimClock* clock,
                      const CostModel* costs) {
  uint64_t bytes = 0;
  for (const splice::PageRef& ref : pages) {
    data.append(ref.data(), ref.len);
    bytes += ref.len;
    clock->Advance(costs->copy_page_ns);
  }
  pages.clear();
  return bytes;
}

uint64_t PayloadBytes(const std::vector<splice::PageRef>& pages) {
  uint64_t bytes = 0;
  for (const splice::PageRef& ref : pages) {
    bytes += ref.len;
  }
  return bytes;
}

}  // namespace

std::optional<uint32_t> LaneLedger::Claim(Dir dir, uint64_t bytes) {
  std::lock_guard<analysis::CheckedMutex> lock(mu_);
  for (size_t i = 0; i < kLanePoolSize; ++i) {
    uint64_t& held = held_[dir][i];
    if (held + bytes <= capacity_) {
      held += bytes;
      return static_cast<uint32_t>(i);
    }
  }
  return std::nullopt;
}

void LaneLedger::Release(Dir dir, uint32_t idx, uint64_t bytes) {
  std::lock_guard<analysis::CheckedMutex> lock(mu_);
  uint64_t& held = held_[dir][idx % kLanePoolSize];
  held -= std::min(held, bytes);
}

StatusOr<size_t> LaneLedger::Resize(size_t bytes) {
  if (bytes == 0) {
    return Status::Error(EINVAL);
  }
  if (bytes > kernel::kPipeMaxCapacity) {
    return Status::Error(EPERM, "pipe size beyond pipe-max-size");
  }
  const size_t rounded = std::bit_ceil(std::max(bytes, kernel::kPipeMinCapacity));
  std::lock_guard<analysis::CheckedMutex> lock(mu_);
  for (const auto& lanes : held_) {
    if (*std::max_element(lanes.begin(), lanes.end()) > rounded) {
      return Status::Error(EBUSY, "lane holds more data than the requested size");
    }
  }
  capacity_ = rounded;
  return rounded;
}

void LaneLedger::Clear() {
  std::lock_guard<analysis::CheckedMutex> lock(mu_);
  held_ = {};
}

size_t LaneLedger::capacity() const {
  std::lock_guard<analysis::CheckedMutex> lock(mu_);
  return capacity_;
}

uint64_t LaneLedger::held() const {
  std::lock_guard<analysis::CheckedMutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& lanes : held_) {
    for (uint64_t bytes : lanes) {
      total += bytes;
    }
  }
  return total;
}

// Fallback pressure needed before the autosizer doubles a lane that the
// payload *would* fit: repeated lane-full bounces mean in-flight payloads
// keep the lane saturated, so more headroom pays.
inline constexpr uint32_t kLaneGrowPressure = 4;

bool FuseConn::MaybeGrowLanes(FuseChannel& ch, uint64_t wanted_bytes) {
  if (!lane_autosize()) {
    return false;
  }
  size_t cap = ch.lanes.capacity();
  size_t target = cap;
  if (wanted_bytes > cap) {
    // The payload can never fit a lane at this size: grow straight to
    // cover it.
    target = wanted_bytes;
  } else if (ch.fallback_pressure.fetch_add(1, std::memory_order_relaxed) + 1 >=
             kLaneGrowPressure) {
    target = cap * 2;
  }
  target = std::min<size_t>(target, kernel::kPipeMaxCapacity);
  // Growing never hits EBUSY and the min above respects the 1 MiB ceiling;
  // only a racing resize can make this one fail.
  if (target <= cap || !ch.lanes.Resize(target).ok()) {
    return false;
  }
  ch.fallback_pressure.store(0, std::memory_order_relaxed);
  lane_growths_->Add();
  return true;
}

void FuseConn::GateRequestPayload(FuseChannel& ch, FuseRequest& request) {
  bool splice_on = ch.splice_enabled.load(std::memory_order_acquire);
  if (!splice_on) {
    // Per-channel opt-out covers both directions: no spliced reply either.
    request.splice_ok = false;
  }
  if (!request.spliced || request.payload_pages.empty()) {
    return;
  }
  const uint64_t bytes = PayloadBytes(request.payload_pages);
  if (faults_ != nullptr && splice_on) {
    if (auto hit = faults_->Check(kFaultLaneTransit)) {
      // An unusable lane is not fatal to the request — the payload takes
      // the copy path whole, which is exactly the fallback contract.
      clock_->Advance(hit.latency_ns);
      splice_on = false;
    }
  }
  if (splice_on) {
    // All-or-nothing per lane: the payload occupies lane capacity until the
    // server consumes the request (ReleaseRequestLane at reap), which is the
    // backpressure a real pipe applies to concurrent spliced writers.
    auto lane = ch.lanes.Claim(LaneLedger::kIn, bytes);
    if (!lane.has_value() && MaybeGrowLanes(ch, bytes)) {
      lane = ch.lanes.Claim(LaneLedger::kIn, bytes);
    }
    if (lane.has_value()) {
      request.lane_idx = *lane;
      spliced_bytes_->Add(bytes);
      return;
    }
  }
  // Lane full or channel opted out: flatten to the copy path — the payload
  // is copied through userspace buffers again, one page at a time.
  FlattenPages(request.payload_pages, request.data, clock_, costs_);
  request.spliced = false;
  copied_bytes_->Add(bytes);
  splice_fallbacks_->Add();
}

void FuseConn::ReleaseRequestLane(FuseChannel& ch, const FuseRequest& request) {
  if (request.spliced && !request.payload_pages.empty()) {
    ch.lanes.Release(LaneLedger::kIn, request.lane_idx,
                     PayloadBytes(request.payload_pages));
  }
}

void FuseConn::GateReplyPayload(FuseChannel& ch, FuseReply& reply) {
  if (reply.pages.empty()) {
    return;
  }
  uint64_t bytes = reply.payload_bytes();
  bool splice_on = ch.splice_enabled.load(std::memory_order_acquire);
  if (faults_ != nullptr && splice_on) {
    if (auto hit = faults_->Check(kFaultLaneTransit)) {
      clock_->Advance(hit.latency_ns);
      splice_on = false;
    }
  }
  if (splice_on) {
    auto lane = ch.lanes.Claim(LaneLedger::kOut, bytes);
    if (!lane.has_value() && MaybeGrowLanes(ch, bytes)) {
      lane = ch.lanes.Claim(LaneLedger::kOut, bytes);
    }
    if (lane.has_value()) {
      reply.spliced = true;
      reply.lane_idx = *lane;
      spliced_bytes_->Add(bytes);
      return;
    }
  }
  // Copy fallback: the server write()s the payload into the reply buffer.
  FlattenPages(reply.pages, reply.data, clock_, costs_);
  reply.spliced = false;
  copied_bytes_->Add(bytes);
  splice_fallbacks_->Add();
}

StatusOr<size_t> FuseConn::SetLaneCapacity(size_t bytes) {
  std::lock_guard<analysis::CheckedMutex> config(config_mu_);
  // Best effort across the whole channel set: a failure on one channel
  // (EBUSY with payload in flight) must not strand the rest at the old size.
  StatusOr<size_t> result = Status::Error(EINVAL);
  std::optional<Status> first_error;
  for (const auto& ch : owned_channels_) {
    auto cap = ch->lanes.Resize(bytes);
    if (cap.ok()) {
      result = cap.value();
    } else if (!first_error.has_value()) {
      first_error = cap.status();
    }
  }
  if (first_error.has_value()) {
    return *first_error;
  }
  return result;
}

void FuseConn::FinishInFlight() {
  in_flight_.fetch_sub(1, std::memory_order_acq_rel);
  if (EffectiveAdmissionCap() != 0) {
    { std::lock_guard<analysis::CheckedMutex> lock(admission_mu_); }
    admission_cv_.notify_one();
  }
}

uint32_t FuseConn::EffectiveAdmissionCap() const {
  uint32_t cap = max_background_.load(std::memory_order_acquire);
  uint32_t budget = admission_budget_.load(std::memory_order_acquire);
  if (cap == 0) {
    return budget;
  }
  if (budget == 0) {
    return cap;
  }
  return std::min(cap, budget);
}

void FuseConn::SetMaxBackground(uint32_t cap) {
  max_background_.store(cap, std::memory_order_release);
  // Wake every parked waiter to re-evaluate under the new cap: widening (or
  // disarming) the gate must release them — a waiter that parked under the
  // old cap has no other wakeup source when no request ever finishes.
  { std::lock_guard<analysis::CheckedMutex> lock(admission_mu_); }
  admission_cv_.notify_all();
}

void FuseConn::SetAdmissionBudget(uint32_t budget) {
  admission_budget_.store(budget, std::memory_order_release);
  { std::lock_guard<analysis::CheckedMutex> lock(admission_mu_); }
  admission_cv_.notify_all();
}

void FuseConn::SetWorkObserver(std::function<void()> observer) {
  std::shared_ptr<const std::function<void()>> holder;
  if (observer) {
    holder = std::make_shared<const std::function<void()>>(std::move(observer));
  }
  std::lock_guard<analysis::CheckedMutex> lock(observer_mu_);
  work_observer_ = std::move(holder);
  observer_armed_.store(work_observer_ != nullptr, std::memory_order_release);
}

void FuseConn::NotifyWorkObserver() {
  if (!observer_armed_.load(std::memory_order_relaxed)) {
    return;  // no pool attached: one relaxed load, nothing else
  }
  std::shared_ptr<const std::function<void()>> cb;
  {
    std::lock_guard<analysis::CheckedMutex> lock(observer_mu_);
    cb = work_observer_;
  }
  if (cb != nullptr) {
    (*cb)();
  }
}

void FuseConn::SetServerParallelism(uint32_t threads) {
  declared_parallelism_.store(threads, std::memory_order_release);
  RecomputeSpinBudget();
}

void FuseConn::RecomputeSpinBudget() {
  uint32_t budget = ring_spin_budget_.load(std::memory_order_acquire);
  uint32_t threads = declared_parallelism_.load(std::memory_order_acquire);
  uint32_t channels = static_cast<uint32_t>(num_channels());
  if (threads != 0 && threads < channels) {
    // Oversubscribed (pool threads < active channels): a waiter spinning the
    // full budget is betting the server polls its channel promptly, which an
    // oversubscribed pool cannot do — scale the budget by the serving ratio
    // so waiters park early instead of burning the difference.
    budget = std::max<uint32_t>(1, static_cast<uint32_t>(
        static_cast<uint64_t>(budget) * threads / channels));
  }
  effective_spin_budget_.store(budget, std::memory_order_release);
}

StatusOr<FuseReply> FuseConn::SendAndWait(FuseRequest request) {
  if (faults_ != nullptr) {
    if (auto hit = faults_->Check(kFaultConnEnqueue)) {
      clock_->Advance(hit.latency_ns);
      if (hit.action == fault::FaultAction::kFail) {
        RecordOutcome(request.opcode, nullptr, obs::Outcome::kFault, false);
        return Status::Error(hit.error, "injected /dev/fuse enqueue fault");
      }
    }
  }
  // Overload shedding (pool hard watermark): bounce new work before it
  // touches a channel, with the same error a drowned request would
  // eventually earn. Requests already admitted are unaffected.
  if (shed_new_requests_.load(std::memory_order_acquire)) {
    sheds_->Add();
    RecordOutcome(request.opcode, nullptr, obs::Outcome::kTimeout, false);
    return Status::Error(ETIMEDOUT, "fuse connection shedding load");
  }
  // Admission gate: a stalled server means in-flight requests pile up; past
  // the effective cap (the tighter of max_background and the pool's
  // per-tenant budget) new callers park here (congestion backpressure)
  // instead of growing the channel queues without bound. The predicate
  // re-reads the cap on every wake — both setters notify_all, so widening or
  // disarming the gate releases parked waiters — and an abort resolves them
  // right here with ENOTCONN instead of letting them re-park.
  uint32_t cap = EffectiveAdmissionCap();
  if (cap != 0 && in_flight_.load(std::memory_order_acquire) >= cap) {
    admission_waits_->Add();
    std::unique_lock<analysis::CheckedMutex> gate(admission_mu_);
    admission_cv_.wait(gate, [&] {
      if (aborted()) {
        return true;
      }
      uint32_t now_cap = EffectiveAdmissionCap();
      return now_cap == 0 ||
             in_flight_.load(std::memory_order_acquire) < now_cap;
    });
    if (aborted()) {
      RecordOutcome(request.opcode, nullptr, obs::Outcome::kAbort, false);
      return Status::Error(ENOTCONN, "fuse connection aborted");
    }
  }
  in_flight_.fetch_add(1, std::memory_order_acq_rel);

  // Route-to-wait window: held shared so a live reshape (ConfigureChannels)
  // or a ring replacement (ConfigureRing) can never swap the channel set or
  // the ring while this request's channel index and slot are in hand (the
  // unique bakes both in; a torn view would strand the reply).
  std::shared_lock<analysis::CheckedSharedMutex> reshape(reshape_mu_);
  size_t ch_idx = RouteChannel(request.pid);
  FuseChannel& ch = Channel(ch_idx);
  RingState& ring = ch.ring();
  RingPostActions post;
  StatusOr<FuseReply> result = RingSendAndWait(ch, ring, ch_idx, std::move(request), &post);
  // Wakeups and connection teardown are delivered after the reshape window
  // closes: notifying sq_cv (or sweeping every channel's waiters in Abort)
  // while still pinning the channel topology is the reshape_mu_ <-> cv wait
  // cycle lockdep flags. The ring outlives the unlock — channels and their
  // rings stay owned until the connection dies.
  reshape.unlock();
  if (post.wake_submitters) {
    RingWakeSubmitters(ring);
  }
  if (post.abort_conn) {
    Abort();
  }
  return result;
}

void FuseConn::SendNoReply(FuseRequest request) {
  std::shared_lock<analysis::CheckedSharedMutex> reshape(reshape_mu_);
  size_t ch_idx = RouteChannel(request.pid);
  FuseChannel& ch = Channel(ch_idx);
  RingState& ring = ch.ring();
  const FuseOpcode op = request.opcode;
  request.unique = 0;  // no reply expected
  request.channel = static_cast<uint32_t>(ch_idx);
  // No lane: nothing blocks on a forget, so the submitting thread's lane may
  // be torn down long before the queue drains — a reply-carrying request is
  // different, because its caller sleeps until the worker is done with the
  // lane.
  request.lane = nullptr;
  // One SQE fill: no completion slot, no waiting, no doorbell.
  clock_->Advance(ring.paper() ? costs_->fuse_round_trip_ns / 2 : costs_->fuse_ring_sqe_ns);
  ring.submitting.fetch_add(1, std::memory_order_seq_cst);
  bool pushed = RingPushSqe(ch, ring, std::move(request));
  if (pushed) {
    forgets_->Add();
  }
  ring.submitting.fetch_sub(1, std::memory_order_seq_cst);
  if (pushed) {
    // Fire-and-forget submissions have no span (nothing waits, so there is
    // no wake to measure); the outcome counter still ticks per opcode.
    RecordOutcome(op, nullptr, obs::Outcome::kOk, false);
  }
}

std::vector<FuseRequest> FuseConn::TryReadRequestBatch(size_t start_channel,
                                                       size_t max_batch) {
  std::vector<FuseRequest> batch;
  if (max_batch == 0) {
    max_batch = 1;
  }
  const size_t n = num_channels();
  const size_t start = start_channel % n;
  // One pass over every channel, start-channel first; never parks — an
  // empty result means "nothing queued right now" and the pool's scheduler
  // decides what to do with that.
  for (size_t i = 0; i < n && batch.size() < max_batch; ++i) {
    FuseChannel& ch = Channel((start + i) % n);
    RingReap(ch, ch.ring(), batch, max_batch - batch.size());
  }
  return batch;
}

void FuseConn::WriteReply(uint64_t unique, FuseReply reply) {
  if (faults_ != nullptr) {
    if (auto hit = faults_->Check(kFaultConnReply)) {
      clock_->Advance(hit.latency_ns);
      if (hit.action == fault::FaultAction::kDrop) {
        // The reply is lost on the wire: the waiter's deadline (or the
        // sweeper, or Abort) must resolve it.
        return;
      }
      if (hit.action == fault::FaultAction::kFail) {
        reply = FuseReply::Error(hit.error);
      }
    }
  }
  FuseChannel& ch = ChannelOfUnique(unique);
  RingState& ring = ch.ring();
  // The channel stays occupied through the server-side handling (the worker
  // runs on the caller's lane, so NowNs here includes the service time).
  BumpBusyUntil(ch, clock_->NowNs());
  RingSlot& slot = ring.slots[SlotOfUnique(unique) % ring.depth];
  for (;;) {
    uint64_t ctrl = slot.ctrl.load(std::memory_order_acquire);
    uint64_t state = SlotState(ctrl);
    if (state == kSlotInit || state == kSlotSweeping) {
      std::this_thread::yield();  // transient owner; it resolves fast
      continue;
    }
    if (state != kSlotPending) {
      // Forget, resolved (timeout/interrupt/abort) or recycled: nothing
      // delivered.
      late_replies_->Add();
      return;
    }
    uint64_t completing = SlotCtrl(SlotGen(ctrl), kSlotCompleting);
    if (!slot.ctrl.compare_exchange_weak(ctrl, completing, std::memory_order_acq_rel)) {
      continue;
    }
    if (slot.unique != unique) {
      // The slot was recycled by a new request: this reply's waiter is gone.
      slot.ctrl.store(SlotCtrl(SlotGen(ctrl), kSlotPending), std::memory_order_release);
      late_replies_->Add();
      return;
    }
    if (slot.deadline_ns != 0 && clock_->NowNs() > slot.deadline_ns) {
      // The virtual deadline expired before this reply landed: drop the
      // payload, resolve the waiter as timed out. Exactly one of
      // {reply, timeout, interrupt} wins per request.
      slot.ctrl.store(SlotCtrl(SlotGen(ctrl), kSlotTimedOut), std::memory_order_seq_cst);
      timeouts_->Add();
      late_replies_->Add();
      RingWakeWaiters(ring);
      return;
    }
    // Payload onto the lane (or flattened) only for a live waiter, then one
    // CQE publish. Out-of-order by construction: each reply lands in its own
    // slot, whichever worker finishes first.
    GateReplyPayload(ch, reply);
    if (!ring.paper()) {
      clock_->Advance(costs_->fuse_ring_cqe_ns);
    }
    slot.reply = std::move(reply);
    replies_->Add();
    slot.ctrl.store(SlotCtrl(SlotGen(ctrl), kSlotDone), std::memory_order_seq_cst);
    RingWakeWaiters(ring);
    return;
  }
}

// --- ring internals ----------------------------------------------------------
//
// Slot discipline (see fuse_ring.h): plain slot fields are written only
// under kSlotInit (the submitter) and read only by owners of a claim state —
// the completer under kSlotCompleting, the sweeper/interrupt under
// kSlotSweeping, the waiter after observing a terminal state. Every claim is
// a CAS from kSlotPending carrying the generation, so a claim can never land
// on a recycled slot unnoticed. Terminal states that wake a waiter are
// published seq_cst: the store pairs with the waiter's seq_cst
// parked_waiters increment before its last re-check, so either the waiter
// sees the state or RingWakeWaiters sees the waiter.

namespace {

// The sweeping claim every resolver other than the completer takes (the
// reaper, Interrupt, InterruptPid, the deadline sweeper): Pending ->
// Sweeping within the generation of `ctrl`, the Pending word the caller
// loaded. `resolve` then reads the slot's stable fields and returns the
// state to publish: kSlotPending hands the slot back, any other state is
// terminal and wakes the waiter, so it is published seq_cst. Returns the
// published state, or nullopt when a racing owner won the CAS.
template <typename Resolve>
std::optional<uint64_t> ResolvePendingSlot(RingSlot& slot, uint64_t ctrl, Resolve resolve) {
  const uint64_t gen = SlotGen(ctrl);
  if (!slot.ctrl.compare_exchange_strong(ctrl, SlotCtrl(gen, kSlotSweeping),
                                         std::memory_order_acq_rel)) {
    return std::nullopt;
  }
  const uint64_t state = resolve(slot);
  slot.ctrl.store(SlotCtrl(gen, state), state == kSlotPending ? std::memory_order_release
                                                              : std::memory_order_seq_cst);
  return state;
}

}  // namespace

void FuseConn::RingWakeWaiters(RingState& ring) {
  if (ring.parked_waiters.load(std::memory_order_seq_cst) == 0) {
    return;  // common case: the waiter is spin-polling its slot, no syscall
  }
  if (faults_ != nullptr) {
    if (auto hit = faults_->Check(kFaultRingDoorbellLost)) {
      clock_->Advance(hit.latency_ns);
      return;  // lost on the wire: the waiter's bounded park self-heals
    }
  }
  { std::lock_guard<analysis::CheckedMutex> lock(ring.cq_mu); }
  ring.cq_cv.notify_all();
}

void FuseConn::RingWakeSubmitters(RingState& ring) {
  if (ring.sq_waiters.load(std::memory_order_seq_cst) == 0) {
    return;
  }
  { std::lock_guard<analysis::CheckedMutex> lock(ring.sq_mu); }
  ring.sq_cv.notify_all();
}

int FuseConn::RingAllocSlot(RingState& ring) {
  size_t start = static_cast<size_t>(
      ring.alloc_hint.fetch_add(1, std::memory_order_relaxed));
  for (size_t i = 0; i < ring.depth; ++i) {
    size_t idx = (start + i) % ring.depth;
    RingSlot& slot = ring.slots[idx];
    uint64_t ctrl = slot.ctrl.load(std::memory_order_relaxed);
    if (SlotState(ctrl) != kSlotFree) {
      continue;
    }
    if (slot.ctrl.compare_exchange_strong(ctrl, SlotCtrl(SlotGen(ctrl), kSlotInit),
                                          std::memory_order_acq_rel)) {
      return static_cast<int>(idx);
    }
  }
  return -1;
}

bool FuseConn::RingPushSqe(FuseChannel& ch, RingState& ring, FuseRequest request) {
  bool overflowed = false;
  // Deterministic doorbell rule: under the ring profile every reply-carrying
  // SQE pays the doorbell; fire-and-forget entries (FORGETs, interrupt
  // notifications) ride the next burst for free. The paper profile's round
  // trip already includes the wakeup. Charging by *actual* SQ occupancy
  // would make virtual time depend on real-time worker scheduling (whether
  // the previous entry was already reaped), breaking run-to-run determinism.
  const bool rings_doorbell = request.unique != 0 && !ring.paper();
  for (;;) {
    if (aborted()) {
      // Never published, so no reap or abort sweep will release the lane
      // capacity a spliced payload took at gating (Abort may already have
      // cleared the lanes).
      ReleaseRequestLane(ch, request);
      return false;
    }
    bool was_empty = ring.sq.SizeApprox() == 0;
    // Count the entry before publishing it, so a reaper's decrement can
    // never run ahead of this increment and wrap queued_depth().
    queued_total_.fetch_add(1);
    if (ring.sq.TryPush(std::move(request))) {
      ch.enqueued.fetch_add(1, std::memory_order_relaxed);
      uint64_t depth_now = ring.sq.SizeApprox();
      uint64_t md = ch.max_depth.load(std::memory_order_relaxed);
      while (md < depth_now && !ch.max_depth.compare_exchange_weak(
                                   md, depth_now, std::memory_order_relaxed)) {
      }
      if (was_empty) {
        // Burst head (stats only: this is a real-time observation).
        ch.doorbells.fetch_add(1, std::memory_order_relaxed);
      }
      if (rings_doorbell) {
        clock_->Advance(costs_->fuse_ring_doorbell_ns);
      }
      bool lost = false;
      if (faults_ != nullptr) {
        if (auto hit = faults_->Check(kFaultRingDoorbellLost)) {
          clock_->Advance(hit.latency_ns);
          lost = true;  // the pool workers' bounded parks self-heal
        }
      }
      if (!lost) {
        NotifyWorkObserver();
      }
      return true;
    }
    queued_total_.fetch_sub(1);  // the push failed: nothing was published
    // Ring exhausted: backpressure the submitter with a bounded park until a
    // reap frees a cell (or the connection dies).
    if (!overflowed) {
      overflowed = true;
      ch.sq_overflows.fetch_add(1, std::memory_order_relaxed);
    }
    ring.sq_waiters.fetch_add(1, std::memory_order_seq_cst);
    {
      std::unique_lock<analysis::CheckedMutex> lock(ring.sq_mu);
      ring.sq_cv.wait_for(lock, std::chrono::milliseconds(1));
    }
    ring.sq_waiters.fetch_sub(1, std::memory_order_seq_cst);
  }
}

bool FuseConn::RingClaimSqe(RingState& ring, const FuseRequest& req) {
  RingSlot& slot = ring.slots[SlotOfUnique(req.unique) % ring.depth];
  for (;;) {
    uint64_t ctrl = slot.ctrl.load(std::memory_order_acquire);
    uint64_t state = SlotState(ctrl);
    if (state == kSlotInit || state == kSlotSweeping || state == kSlotCompleting) {
      std::this_thread::yield();  // transient owner; it resolves fast
      continue;
    }
    if (state != kSlotPending) {
      return false;  // waiter already resolved: drop the stale entry
    }
    bool ours = false;
    auto resolved = ResolvePendingSlot(slot, ctrl, [&](RingSlot& s) {
      ours = s.unique == req.unique;
      if (ours) {
        // The server has now seen the request: an interrupt from here on
        // must send the kInterrupt notification instead of silently
        // dropping.
        s.claimed.store(true, std::memory_order_relaxed);
      }
      return kSlotPending;
    });
    if (resolved.has_value()) {
      return ours;
    }
  }
}

size_t FuseConn::RingReap(FuseChannel& ch, RingState& ring,
                          std::vector<FuseRequest>& out, size_t max_batch) {
  if (ring.sq.SizeApprox() == 0) {
    return 0;
  }
  // The profile caps the burst: the paper's server thread takes one request
  // per read of /dev/fuse.
  if (ring.paper()) {
    max_batch = std::min<size_t>(max_batch, 1);
  }
  if (faults_ != nullptr) {
    if (auto hit = faults_->Check(kFaultRingReap)) {
      clock_->Advance(hit.latency_ns);
      if (hit.action == fault::FaultAction::kKill) {
        Abort();  // the reaping worker crashed mid-pass
        return 0;
      }
      return 0;  // poisoned pass: the burst stays queued for the next one
    }
  }
  size_t delivered = 0;
  FuseRequest req;
  while (delivered < max_batch && ring.sq.TryPop(req)) {
    queued_total_.fetch_sub(1);
    // One /dev/fuse read consumes header + spliced payload together (dropped
    // entries included — their payload dies with them).
    ReleaseRequestLane(ch, req);
    if (req.unique != 0 && !RingClaimSqe(ring, req)) {
      continue;  // interrupt/timeout/abort won the race before the server saw it
    }
    if (req.span != nullptr) {
      // Reap stamp on the *submitter's* timeline: the worker has not adopted
      // the request's lane yet (LaneScope happens in the server loop), so a
      // plain NowNs() here would read the worker's unrelated timeline.
      req.span->reap_ns.store(clock_->NowOnLane(req.lane),
                              std::memory_order_relaxed);
    }
    out.push_back(std::move(req));
    ++delivered;
  }
  if (delivered > 0) {
    ch.reaps.fetch_add(1, std::memory_order_relaxed);
    ch.reaped_requests.fetch_add(delivered, std::memory_order_relaxed);
    uint64_t cur = ch.max_reqs_per_reap.load(std::memory_order_relaxed);
    while (cur < delivered && !ch.max_reqs_per_reap.compare_exchange_weak(
                                  cur, delivered, std::memory_order_relaxed)) {
    }
    RingWakeSubmitters(ring);  // SQ cells freed
  }
  return delivered;
}

StatusOr<FuseReply> FuseConn::RingSendAndWait(FuseChannel& ch, RingState& ring,
                                              size_t ch_idx, FuseRequest request,
                                              RingPostActions* post) {
  const FuseOpcode op = request.opcode;
  // Injected SQ overflow: surfaces to the submitter as a full-ring
  // submission failure.
  if (faults_ != nullptr) {
    if (auto hit = faults_->Check(kFaultSqOverflow)) {
      clock_->Advance(hit.latency_ns);
      ch.sq_overflows.fetch_add(1, std::memory_order_relaxed);
      FinishInFlight();
      if (hit.action == fault::FaultAction::kKill) {
        post->abort_conn = true;
        RecordOutcome(op, nullptr, obs::Outcome::kAbort, false);
        return Status::Error(ENOTCONN, "fuse connection aborted");
      }
      RecordOutcome(op, nullptr, obs::Outcome::kFault, false);
      return Status::Error(hit.error != 0 ? hit.error : ENOBUFS,
                           "injected submission-ring overflow");
    }
  }
  // Claim a completion slot. None free means the full ring depth is already
  // in flight — park like a full SQ (the admission gate, when armed, trips
  // first and keeps this loop cold).
  int slot_idx;
  bool overflowed = false;
  for (;;) {
    if (aborted()) {
      FinishInFlight();
      RecordOutcome(op, nullptr, obs::Outcome::kAbort, false);
      return Status::Error(ENOTCONN, "fuse connection aborted");
    }
    slot_idx = RingAllocSlot(ring);
    if (slot_idx >= 0) {
      break;
    }
    if (!overflowed) {
      overflowed = true;
      ch.sq_overflows.fetch_add(1, std::memory_order_relaxed);
    }
    ring.sq_waiters.fetch_add(1, std::memory_order_seq_cst);
    {
      std::unique_lock<analysis::CheckedMutex> lock(ring.sq_mu);
      ring.sq_cv.wait_for(lock, std::chrono::milliseconds(1));
    }
    ring.sq_waiters.fetch_sub(1, std::memory_order_seq_cst);
  }
  RingSlot& slot = ring.slots[slot_idx];
  const uint64_t gen = SlotGen(slot.ctrl.load(std::memory_order_relaxed));

  uint64_t unique = MakeRingUnique(ch_idx, static_cast<size_t>(slot_idx));
  request.unique = unique;
  request.channel = static_cast<uint32_t>(ch_idx);
  request.lane = SimClock::current_lane();
  // Enqueue stamp before any transport charge, so the queue phase carries
  // everything the caller pays between submit and server pickup (payload
  // gating, channel occupancy, the SQE fill itself).
  request.span = obs::MakeSpan(clock_->NowNs());
  obs::SpanPtr span = request.span;
  GateRequestPayload(ch, request);
  const bool req_spliced = request.spliced;

  // The SQE fill. Under the paper profile it is the whole wakeup round trip
  // (enqueue + server wakeup + reply + caller wakeup), and with more than
  // one server thread homed on this channel each request also pays the
  // Figure 4 contention premium (futex churn, cacheline bouncing) — per
  // channel, which is the whole point of cloning the queue. Ring producers
  // and the reaping consumer never contend on a queue lock.
  uint64_t fill_ns = costs_->fuse_ring_sqe_ns;
  if (ring.paper()) {
    fill_ns = costs_->fuse_round_trip_ns;
    const uint32_t readers = ChannelReaders(ch_idx);
    if (readers > 1) {
      fill_ns += static_cast<uint64_t>(readers - 1) * costs_->fuse_thread_contention_ns;
    }
  }
  // Channel occupancy: on parallel lanes, arriving at a busy channel means
  // waiting out its backlog first (the single-queue plateau). On the shared
  // timeline every thread's advances already sum, so the backlog wait is
  // implicit and charging it again would double-count.
  if (request.lane != nullptr) {
    uint64_t now = clock_->NowNs();
    uint64_t busy = ch.busy_until_ns.load(std::memory_order_relaxed);
    if (busy > now) {
      clock_->Advance(busy - now);
    }
  }
  clock_->Advance(fill_ns);
  BumpBusyUntil(ch, clock_->NowNs());
  requests_->Add();

  // Fill the slot under kSlotInit, then publish it Pending.
  slot.unique = unique;
  slot.pid = request.pid;
  slot.deadline_ns = 0;
  uint64_t deadline = deadline_ns_.load(std::memory_order_acquire);
  if (deadline != 0) {
    slot.deadline_ns = clock_->NowNs() + deadline;
    slot.enqueued_real = std::chrono::steady_clock::now();
  }
  slot.claimed.store(false, std::memory_order_relaxed);
  slot.ctrl.store(SlotCtrl(gen, kSlotPending), std::memory_order_release);

  // Submit. The submitting window is refcounted so Abort can wait out
  // in-progress pushes before draining the SQ.
  ring.submitting.fetch_add(1, std::memory_order_seq_cst);
  bool pushed = RingPushSqe(ch, ring, std::move(request));
  ring.submitting.fetch_sub(1, std::memory_order_seq_cst);

  // Wait. The ring profile spin-polls its own completion slot first, on the
  // post-backoff budget (an oversubscribed pool, threads < channels, shrinks
  // it so waiters park early instead of spinning for service that cannot
  // arrive yet). The paper profile parks at once, as the wakeup handshake's
  // waiter sleeps.
  const uint32_t spin_budget =
      ring.paper() ? 0
                   : std::max<uint32_t>(1, effective_spin_budget_.load(std::memory_order_acquire));
  uint32_t spins = 0;
  uint64_t terminal = 0;
  for (;;) {
    uint64_t ctrl = slot.ctrl.load(std::memory_order_acquire);
    uint64_t state = SlotState(ctrl);
    if (SlotGen(ctrl) == gen && (state == kSlotDone || state == kSlotTimedOut ||
                                 state == kSlotInterrupted)) {
      terminal = state;
      break;
    }
    if (!pushed || aborted()) {
      // The connection died (or the push never landed): reclaim our Pending
      // slot unless a completer/sweeper races us — then take its outcome.
      if (SlotGen(ctrl) == gen && state == kSlotPending) {
        if (slot.ctrl.compare_exchange_weak(ctrl, SlotCtrl(gen + 1, kSlotFree),
                                            std::memory_order_acq_rel)) {
          post->wake_submitters = true;
          FinishInFlight();
          RecordOutcome(op, span, obs::Outcome::kAbort, req_spliced);
          return Status::Error(ENOTCONN, "fuse connection aborted");
        }
      } else {
        std::this_thread::yield();  // transient owner; its outcome lands next
      }
      continue;
    }
    if (++spins < spin_budget) {
      if ((spins & 63) == 0) {
        std::this_thread::yield();
      }
      continue;
    }
    if (spins == spin_budget) {
      ch.spin_parks.fetch_add(1, std::memory_order_relaxed);
    }
    // Park bounded. A completion doorbell lost on the wire costs at most one
    // tick, never a hang.
    ring.parked_waiters.fetch_add(1, std::memory_order_seq_cst);
    {
      std::unique_lock<analysis::CheckedMutex> lock(ring.cq_mu);
      uint64_t c = slot.ctrl.load(std::memory_order_seq_cst);
      uint64_t s = SlotState(c);
      bool resolved = SlotGen(c) == gen && (s == kSlotDone || s == kSlotTimedOut ||
                                            s == kSlotInterrupted);
      if (!resolved && !aborted()) {
        ring.cq_cv.wait_for(lock, std::chrono::milliseconds(1));
      }
    }
    ring.parked_waiters.fetch_sub(1, std::memory_order_seq_cst);
  }

  // Terminal: take the outcome, free the slot for reuse (gen bump), then
  // release capacity to parked submitters.
  FuseReply reply;
  uint64_t deadline_abs = slot.deadline_ns;
  if (terminal == kSlotDone) {
    reply = std::move(slot.reply);
    slot.reply = FuseReply{};
  }
  slot.ctrl.store(SlotCtrl(gen + 1, kSlotFree), std::memory_order_release);
  post->wake_submitters = true;
  FinishInFlight();
  if (terminal == kSlotTimedOut) {
    // Model the wait the caller actually endured: the request ran out its
    // full deadline on the caller's own timeline.
    uint64_t now = clock_->NowNs();
    if (deadline_abs > now) {
      clock_->Advance(deadline_abs - now);
    }
    // Stalled-server degradation: enough deadline misses in a row and the
    // connection is declared dead rather than timing out forever.
    uint32_t misses = consecutive_timeouts_.fetch_add(1, std::memory_order_acq_rel) + 1;
    uint32_t abort_after = abort_after_timeouts_.load(std::memory_order_acquire);
    if (abort_after != 0 && misses >= abort_after && !aborted()) {
      post->abort_conn = true;
    }
    RecordOutcome(op, span, obs::Outcome::kTimeout, req_spliced);
    return Status::Error(ETIMEDOUT, "fuse request deadline expired");
  }
  if (terminal == kSlotInterrupted) {
    RecordOutcome(op, span, obs::Outcome::kInterrupt, req_spliced);
    return Status::Error(EINTR, "fuse request interrupted");
  }
  consecutive_timeouts_.store(0, std::memory_order_release);
  if (reply.spliced) {
    // Consume the lane bytes this reply occupied since WriteReply; the page
    // identity arrived with the reply itself.
    ch.lanes.Release(LaneLedger::kOut, reply.lane_idx, reply.payload_bytes());
  }
  RecordOutcome(op, span,
                reply.error != 0 ? obs::Outcome::kError : obs::Outcome::kOk,
                req_spliced || reply.spliced);
  if (reply.error != 0) {
    return Status::Error(reply.error);
  }
  return reply;
}

void FuseConn::Abort() {
  aborted_.store(true, std::memory_order_release);
  // Sweep every channel ever created (including any retired by a reshape):
  // a waiter parked on a stale channel must still wake with ENOTCONN. Rings
  // a channel retired were quiet when replaced, so only the live one needs
  // draining.
  std::lock_guard<analysis::CheckedMutex> config(config_mu_);
  for (auto& ch : owned_channels_) {
    RingState& ring = ch->ring();
    // Wait out in-progress submitters (they observe aborted_ within one
    // bounded park), then drain the SQ so ring-in-flight entries go to
    // zero; waiters reclaim their own Pending slots once woken.
    while (ring.submitting.load(std::memory_order_seq_cst) != 0) {
      std::this_thread::yield();
    }
    FuseRequest drained;
    while (ring.sq.TryPop(drained)) {
      queued_total_.fetch_sub(1);
    }
    {
      std::lock_guard<analysis::CheckedMutex> lock(ring.cq_mu);
    }
    ring.cq_cv.notify_all();
    {
      std::lock_guard<analysis::CheckedMutex> lock(ring.sq_mu);
    }
    ring.sq_cv.notify_all();
    // Waiters that died mid-transit leave payload parked on the lanes; a
    // dead connection must not strand that capacity.
    ch->lanes.Clear();
  }
  // Admission-gated callers must not stay parked on a dead connection.
  {
    std::lock_guard<analysis::CheckedMutex> lock(admission_mu_);
  }
  admission_cv_.notify_all();
  // The pool serving this mount needs a wake too: its workers must
  // notice the abort and let the health controller quarantine the mount.
  NotifyWorkObserver();
  // The sweeper has nothing left to expire; let it drain out.
  sweeper_cv_.notify_all();
}

void FuseConn::SetRequestDeadline(uint64_t virtual_ns, uint64_t real_grace_ms) {
  deadline_ns_.store(virtual_ns, std::memory_order_release);
  deadline_grace_ms_.store(real_grace_ms, std::memory_order_release);
  if (virtual_ns == 0 || real_grace_ms == 0) {
    StopSweeper();
    return;
  }
  std::lock_guard<analysis::CheckedMutex> lock(sweeper_mu_);
  if (!sweeper_.joinable()) {
    sweeper_stop_ = false;
    sweeper_ = std::thread([this] { SweeperLoop(); });
  }
}

void FuseConn::SweeperLoop() {
  std::unique_lock<analysis::CheckedMutex> lock(sweeper_mu_);
  while (!sweeper_stop_) {
    uint64_t grace_ms =
        std::max<uint64_t>(deadline_grace_ms_.load(std::memory_order_acquire), 1);
    // Wake at a fraction of the grace so expiry lands within ~25% of it.
    sweeper_cv_.wait_for(lock,
                         std::chrono::milliseconds(std::max<uint64_t>(grace_ms / 4, 1)));
    if (sweeper_stop_) {
      break;
    }
    if (aborted() || deadline_ns_.load(std::memory_order_acquire) == 0) {
      continue;
    }
    lock.unlock();
    // Expire requests that have sat unanswered past the real-time grace:
    // the virtual deadline cannot fire on its own when the server is wedged
    // and never calls WriteReply, so wall time is the backstop. The pending
    // set lives in the completion slots: claim each Pending slot
    // transiently, expire it if it has sat unanswered past the grace.
    auto now_real = std::chrono::steady_clock::now();
    auto grace = std::chrono::milliseconds(grace_ms);
    {
      std::lock_guard<analysis::CheckedMutex> config(config_mu_);
      for (auto& ch : owned_channels_) {
        RingState& ring = ch->ring();
        bool expired_any = false;
        for (RingSlot& slot : ring.slots) {
          uint64_t ctrl = slot.ctrl.load(std::memory_order_acquire);
          if (SlotState(ctrl) != kSlotPending) {
            continue;
          }
          // A racing claim is revisited next tick.
          auto resolved = ResolvePendingSlot(slot, ctrl, [&](RingSlot& s) {
            return s.deadline_ns != 0 && now_real - s.enqueued_real >= grace ? kSlotTimedOut
                                                                             : kSlotPending;
          });
          if (resolved == kSlotTimedOut) {
            timeouts_->Add();
            expired_any = true;
          }
        }
        if (expired_any) {
          {
            std::lock_guard<analysis::CheckedMutex> cq(ring.cq_mu);
          }
          ring.cq_cv.notify_all();
        }
      }
    }
    lock.lock();
  }
}

void FuseConn::StopSweeper() {
  std::thread t;
  {
    std::lock_guard<analysis::CheckedMutex> lock(sweeper_mu_);
    sweeper_stop_ = true;
    t = std::move(sweeper_);
  }
  sweeper_cv_.notify_all();
  if (t.joinable()) {
    t.join();
  }
  // Re-arming later restarts a fresh thread.
  {
    std::lock_guard<analysis::CheckedMutex> lock(sweeper_mu_);
    sweeper_stop_ = false;
  }
}

bool FuseConn::Interrupt(uint64_t unique) {
  FuseChannel& ch = ChannelOfUnique(unique);
  size_t ch_idx = unique & (kMaxChannels - 1);
  RingState& ring = ch.ring();
  RingSlot& slot = ring.slots[SlotOfUnique(unique) % ring.depth];
  bool claimed = false;
  std::optional<uint64_t> resolved;
  while (!resolved.has_value()) {
    uint64_t ctrl = slot.ctrl.load(std::memory_order_acquire);
    uint64_t state = SlotState(ctrl);
    if (state == kSlotInit || state == kSlotSweeping || state == kSlotCompleting) {
      std::this_thread::yield();
      continue;
    }
    if (state != kSlotPending) {
      return false;  // already resolved (or never existed): nothing to do
    }
    resolved = ResolvePendingSlot(slot, ctrl, [&](RingSlot& s) {
      if (s.unique != unique) {
        return kSlotPending;
      }
      claimed = s.claimed.load(std::memory_order_relaxed);
      return kSlotInterrupted;
    });
  }
  if (*resolved == kSlotPending) {
    return false;  // the slot was recycled by another request
  }
  interrupts_->Add();
  RingWakeWaiters(ring);
  if (claimed) {
    // The server already reaped it: send the INTERRUPT notification so it
    // can observe the cancellation (its eventual reply is dropped as late).
    // An unclaimed SQE is instead dropped at reap time, before the server
    // ever sees it.
    EnqueueInterruptNotify(ch, ch_idx, unique);
  }
  return true;
}

uint32_t FuseConn::InterruptPid(kernel::Pid pid) {
  uint32_t count = 0;
  std::lock_guard<analysis::CheckedMutex> config(config_mu_);
  for (auto& ch : owned_channels_) {
    RingState& ring = ch->ring();
    // Scan the completion slots for this pid's in-flight requests and
    // resolve each the same way Interrupt would (the slot claim doubles as
    // the unique lookup — there is no pending map).
    for (RingSlot& slot : ring.slots) {
      uint64_t ctrl = slot.ctrl.load(std::memory_order_acquire);
      if (SlotState(ctrl) != kSlotPending) {
        continue;
      }
      uint64_t unique = 0;
      bool claimed = false;
      // A racing claim's owner resolves the slot itself.
      auto resolved = ResolvePendingSlot(slot, ctrl, [&](RingSlot& s) {
        if (s.pid != pid) {
          return kSlotPending;
        }
        unique = s.unique;
        claimed = s.claimed.load(std::memory_order_relaxed);
        return kSlotInterrupted;
      });
      if (resolved != kSlotInterrupted) {
        continue;
      }
      interrupts_->Add();
      RingWakeWaiters(ring);
      if (claimed) {
        EnqueueInterruptNotify(*ch, unique & (kMaxChannels - 1), unique);
      }
      ++count;
    }
  }
  return count;
}

void FuseConn::EnqueueInterruptNotify(FuseChannel& ch, size_t ch_idx, uint64_t unique) {
  FuseRequest notify;
  notify.unique = 0;  // notification: the server never replies to it
  notify.opcode = FuseOpcode::kInterrupt;
  notify.interrupt_unique = unique;
  notify.channel = static_cast<uint32_t>(ch_idx);
  notify.lane = nullptr;
  RingState& ring = ch.ring();
  // Best effort: a notification that finds the ring full is dropped — the
  // waiter is already unblocked either way. Counted before it is published,
  // like every SQE (see RingPushSqe).
  ring.submitting.fetch_add(1, std::memory_order_seq_cst);
  if (!aborted()) {
    queued_total_.fetch_add(1);
    if (ring.sq.TryPush(std::move(notify))) {
      NotifyWorkObserver();
    } else {
      queued_total_.fetch_sub(1);
    }
  }
  ring.submitting.fetch_sub(1, std::memory_order_seq_cst);
}

size_t FuseConn::lane_bytes_in_flight() const {
  size_t total = 0;
  std::lock_guard<analysis::CheckedMutex> config(config_mu_);
  for (const auto& ch : owned_channels_) {
    total += ch->lanes.held();
  }
  return total;
}

uint32_t FuseConn::ChannelReaders(size_t channel) const {
  const uint32_t threads = declared_parallelism_.load(std::memory_order_acquire);
  const size_t n = num_channels();
  return static_cast<uint32_t>(threads / n + (channel % n < threads % n ? 1 : 0));
}

}  // namespace cntr::fuse
