// The splice subsystem: zero-copy page movement between pipes, user
// buffers and the page cache.
//
// Three syscall analogues operate on PipeBuffer segment rings:
//  * vmsplice(2) — wraps user memory into pipe segments. With SPLICE_F_GIFT
//    the pages move at the splice (remap) rate; without it the kernel must
//    copy, because the caller keeps the buffer.
//  * splice(2)   — moves segments pipe-to-pipe by reference (the Kernel
//    facade routes pipe<->file through the page cache's reference surface,
//    see PageCachePool::GetPageRef/StorePageRef).
//  * tee(2)      — duplicates segments without consuming; the duplicate
//    shares pages, so refcounts rise and any later write copies first.
//
// Cost model: moving a page reference costs splice_page_ns; every fallback
// to a byte copy costs copy_page_ns. The engine charges the calling
// thread's virtual timeline and counts pages into the kernel's metrics
// registry (cntr_splice_*), so benches and tests can see how much traffic
// really avoided the copy.
#ifndef CNTR_SRC_SPLICE_SPLICE_H_
#define CNTR_SRC_SPLICE_SPLICE_H_

#include <vector>

#include "src/kernel/pipe.h"
#include "src/obs/metrics.h"
#include "src/splice/page_ref.h"
#include "src/util/sim_clock.h"
#include "src/util/status.h"

namespace cntr::splice {

class SpliceEngine {
 public:
  SpliceEngine(SimClock* clock, const CostModel* costs, obs::MetricsRegistry& metrics);

  SpliceEngine(const SpliceEngine&) = delete;
  SpliceEngine& operator=(const SpliceEngine&) = delete;

  // Chops `buf[0, len)` into pipe segments. `gift` models SPLICE_F_GIFT:
  // the pages are charged at the splice rate (the caller cedes them);
  // without gift each page is charged as a copy.
  std::vector<kernel::PipeSegment> WrapBuffer(const char* buf, size_t len, bool gift);

  // vmsplice(2): user memory into `pipe`.
  StatusOr<size_t> VmspliceIn(kernel::PipeBuffer& pipe, const char* buf, size_t len, bool gift,
                              bool nonblock);

  // splice(2) between two segment rings: pops segments from `in` and pushes
  // them into `out` by reference; pages never copy. The rings may belong to
  // pipes or to connected-socket streams (the Kernel facade resolves socket
  // endpoints to their SocketConnection rings); `in` and `out` must be
  // distinct (EINVAL, like splice(2) on one pipe).
  StatusOr<size_t> MovePipeToPipe(kernel::PipeBuffer& in, kernel::PipeBuffer& out, size_t len,
                                  bool nonblock);

  // tee(2): duplicates up to `len` bytes from `in` into `out` without
  // consuming `in`.
  StatusOr<size_t> Tee(kernel::PipeBuffer& in, kernel::PipeBuffer& out, size_t len,
                       bool nonblock);

  // A view over the registry counters.
  struct Stats {
    uint64_t spliced_pages = 0;  // page references moved without copy
    uint64_t copied_pages = 0;   // copy fallbacks through the engine
    uint64_t teed_pages = 0;     // duplicates created by tee
  };
  Stats stats() const {
    Stats s;
    s.spliced_pages = spliced_pages_->Value();
    s.copied_pages = copied_pages_->Value();
    s.teed_pages = teed_pages_->Value();
    return s;
  }

 private:
  SimClock* clock_;
  const CostModel* costs_;
  obs::Counter* spliced_pages_;
  obs::Counter* copied_pages_;
  obs::Counter* teed_pages_;
};

}  // namespace cntr::splice

#endif  // CNTR_SRC_SPLICE_SPLICE_H_
