// Submission-ring transport structures for /dev/fuse (io_uring lineage).
//
// Every FuseChannel carries one RingState, built with the channel when the
// connection's shape is set and kept for the connection's life; it is the
// connection's only request path:
//
//   * Submission queue (SQ): a bounded lock-free MPMC ring of FuseRequest.
//     The kernel facade fills entries, the server reaps whole bursts in one
//     pass (multi-request reap per wakeup).
//   * Completion slots (CQ): a fixed array of `depth` slots. Each waiting
//     request owns one slot for its lifetime; the server completes slots in
//     whatever order its workers finish (out-of-order completion), and the
//     waiter polls its own slot — no shared reply map, no shared lock.
//
// What a trip through the ring costs, and how its two sides wait, is the
// connection's cost profile (RingProfile below): the paper's wakeup
// handshake or the negotiated ring.
//
// Slot lifecycle is carried in a single control word per slot packing a
// generation counter with a state: (gen << 4) | state. Every transition is
// a CAS on the full word, and the generation increments when the slot is
// freed, so a late reply or a stale SQ entry addressing a reused slot can
// never be confused for the current occupant (ABA). The plain fields of a
// slot are written by the submitter while it holds kSlotInit and are stable
// from the kSlotPending publish until the slot is freed; transient owners
// (kSlotSweeping, kSlotCompleting) may read them, and only the single
// completer writes `reply`.
#ifndef CNTR_SRC_FUSE_FUSE_RING_H_
#define CNTR_SRC_FUSE_FUSE_RING_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <vector>

#include "src/fuse/fuse_proto.h"
#include "src/kernel/cred.h"
#include "src/analysis/lockdep.h"

namespace cntr::fuse {

// Ring depth bounds. The slot index rides in the request unique between the
// channel bits and the sequence bits, so the ceiling is fixed by the field
// width (kRingSlotBits), not by memory.
inline constexpr size_t kRingSlotBits = 10;
inline constexpr size_t kMinRingDepth = 8;
inline constexpr size_t kMaxRingDepth = size_t{1} << kRingSlotBits;  // 1024
// Depth of a connection's rings unless its opener sets another
// (FuseConn::ConfigureChannels).
inline constexpr size_t kDefaultRingDepth = 64;
// Iterations a kRing waiter spin-polls before parking.
inline constexpr uint32_t kDefaultRingSpinBudget = 2000;
// Most SQ entries a single reap pass hands to one worker.
inline constexpr size_t kRingReapBatch = 32;

// Transport cost profiles. Both run the same SQ/CQ code and differ only in
// what a trip costs on the virtual clock and in how the two sides wait:
//
//                          kPaper                      kRing
//   SQE fill               round trip + (readers-1) *  fuse_ring_sqe_ns
//                          thread contention
//   doorbell (reply SQE)   0                           fuse_ring_doorbell_ns
//   CQE publish            0                           fuse_ring_cqe_ns
//   fire-and-forget fill   round trip / 2              fuse_ring_sqe_ns
//   reap batch             1                           kRingReapBatch
//   waiter spin            none: parks at once         ring_spin_budget
//
// kPaper is the paper's wakeup handshake (§3.3, Figure 4): a fresh
// connection and its INIT exchange run it, and so does every mount whose
// INIT did not negotiate kFuseRingSubmission. kRing is the negotiated ring.
// The profile belongs to the connection, and the switch to kRing is one-way
// (FuseConn::UseRingProfile).
enum class RingProfile { kPaper, kRing };

// Bounded MPMC queue (Vyukov): each cell carries a sequence number that
// encodes both occupancy and the lap it belongs to, so producers and
// consumers coordinate through one CAS on their own index plus per-cell
// acquire/release — no shared lock, no per-operation allocation.
template <typename T>
class MpmcRing {
 public:
  explicit MpmcRing(size_t capacity_pow2)
      : mask_(capacity_pow2 - 1), cells_(capacity_pow2) {
    for (size_t i = 0; i < capacity_pow2; ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  MpmcRing(const MpmcRing&) = delete;
  MpmcRing& operator=(const MpmcRing&) = delete;

  bool TryPush(T&& v) {
    Cell* cell;
    uint64_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      cell = &cells_[pos & mask_];
      uint64_t seq = cell->seq.load(std::memory_order_acquire);
      intptr_t dif = static_cast<intptr_t>(seq) - static_cast<intptr_t>(pos);
      if (dif == 0) {
        if (tail_.compare_exchange_weak(pos, pos + 1, std::memory_order_relaxed)) {
          break;
        }
      } else if (dif < 0) {
        return false;  // full
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
    cell->value = std::move(v);
    cell->seq.store(pos + 1, std::memory_order_release);
    return true;
  }

  bool TryPop(T& out) {
    Cell* cell;
    uint64_t pos = head_.load(std::memory_order_relaxed);
    for (;;) {
      cell = &cells_[pos & mask_];
      uint64_t seq = cell->seq.load(std::memory_order_acquire);
      intptr_t dif =
          static_cast<intptr_t>(seq) - static_cast<intptr_t>(pos + 1);
      if (dif == 0) {
        if (head_.compare_exchange_weak(pos, pos + 1, std::memory_order_relaxed)) {
          break;
        }
      } else if (dif < 0) {
        return false;  // empty
      } else {
        pos = head_.load(std::memory_order_relaxed);
      }
    }
    out = std::move(cell->value);
    // Release held resources (page refs, lane pointers) now instead of one
    // full lap later.
    cell->value = T{};
    cell->seq.store(pos + mask_ + 1, std::memory_order_release);
    return true;
  }

  // Racy but monotonic-enough size estimate (doorbell and stats only).
  size_t SizeApprox() const {
    uint64_t tail = tail_.load(std::memory_order_relaxed);
    uint64_t head = head_.load(std::memory_order_relaxed);
    return tail > head ? static_cast<size_t>(tail - head) : 0;
  }

  size_t capacity() const { return mask_ + 1; }

 private:
  struct Cell {
    std::atomic<uint64_t> seq{0};
    T value{};
  };

  const uint64_t mask_;
  std::vector<Cell> cells_;
  alignas(64) std::atomic<uint64_t> head_{0};
  alignas(64) std::atomic<uint64_t> tail_{0};
};

// Completion-slot states (low 4 bits of the control word).
inline constexpr uint64_t kSlotFree = 0;         // unowned
inline constexpr uint64_t kSlotInit = 1;         // submitter writing fields
inline constexpr uint64_t kSlotPending = 2;      // submitted, awaiting reply
inline constexpr uint64_t kSlotCompleting = 3;   // server writing the reply
inline constexpr uint64_t kSlotDone = 4;         // reply ready for the waiter
inline constexpr uint64_t kSlotTimedOut = 5;     // deadline expired
inline constexpr uint64_t kSlotInterrupted = 6;  // FUSE_INTERRUPT won
inline constexpr uint64_t kSlotSweeping = 7;     // sweeper/interrupt reading

inline constexpr uint64_t kSlotStateMask = 0xF;
inline constexpr uint64_t SlotCtrl(uint64_t gen, uint64_t state) {
  return (gen << 4) | state;
}
inline constexpr uint64_t SlotState(uint64_t ctrl) { return ctrl & kSlotStateMask; }
inline constexpr uint64_t SlotGen(uint64_t ctrl) { return ctrl >> 4; }

struct alignas(64) RingSlot {
  std::atomic<uint64_t> ctrl{SlotCtrl(0, kSlotFree)};
  // Plain fields: written under kSlotInit, stable from the kSlotPending
  // publish until the waiter frees the slot (see file comment).
  uint64_t unique = 0;
  kernel::Pid pid = 0;
  uint64_t deadline_ns = 0;  // virtual deadline; 0 = none armed
  std::chrono::steady_clock::time_point enqueued_real{};
  // Set by the reaping worker: the server has seen the request, so an
  // interrupt now needs a kInterrupt notification (an unclaimed SQ entry is
  // instead dropped at reap time).
  std::atomic<bool> claimed{false};
  // Written only by the completer while it holds kSlotCompleting.
  FuseReply reply;
};

struct RingState {
  explicit RingState(size_t depth) : depth(depth), sq(depth), slots(depth) {}

  const size_t depth;
  MpmcRing<FuseRequest> sq;
  std::vector<RingSlot> slots;
  // Rotating start for the completion-slot allocation scan.
  std::atomic<uint64_t> alloc_hint{0};
  // Submitters in the [aborted-check .. SQ push] window; Abort waits for
  // zero before draining the SQ so no entry is stranded behind it.
  std::atomic<uint32_t> submitting{0};

  // Completion-side parking: kRing waiters spin on their slot's ctrl first,
  // kPaper waiters not at all; both park here under a bounded wait (a lost
  // doorbell self-heals).
  analysis::CheckedMutex cq_mu{"fuse.ring.cq"};
  analysis::CheckedCondVar cq_cv{"fuse.ring.cq.cv"};
  std::atomic<uint32_t> parked_waiters{0};
  // Submission-side backpressure parking (SQ or completion slots exhausted).
  analysis::CheckedMutex sq_mu{"fuse.ring.sq"};
  analysis::CheckedCondVar sq_cv{"fuse.ring.sq.cv"};
  std::atomic<uint32_t> sq_waiters{0};
};

}  // namespace cntr::fuse

#endif  // CNTR_SRC_FUSE_FUSE_RING_H_
