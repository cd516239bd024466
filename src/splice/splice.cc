#include "src/splice/splice.h"

#include <algorithm>

namespace cntr::splice {

using kernel::kPageSize;
using kernel::PipeBuffer;
using kernel::PipeSegment;

SpliceEngine::SpliceEngine(SimClock* clock, const CostModel* costs,
                           obs::MetricsRegistry& metrics)
    : clock_(clock),
      costs_(costs),
      spliced_pages_(metrics.GetCounter("cntr_splice_spliced_pages")),
      copied_pages_(metrics.GetCounter("cntr_splice_copied_pages")),
      teed_pages_(metrics.GetCounter("cntr_splice_teed_pages")) {}

std::vector<PipeSegment> SpliceEngine::WrapBuffer(const char* buf, size_t len, bool gift) {
  // Pure chopper: no cost here — transfer costs are charged by the caller
  // for the bytes that actually moved (a refused push must not bill pages).
  (void)gift;
  std::vector<PipeSegment> segs;
  std::vector<PageRef> pages = ChopIntoPages(buf, len);
  segs.reserve(pages.size());
  for (PageRef& ref : pages) {
    segs.push_back(PipeSegment::Of(std::move(ref)));
  }
  return segs;
}

StatusOr<size_t> SpliceEngine::VmspliceIn(PipeBuffer& pipe, const char* buf, size_t len,
                                          bool gift, bool nonblock) {
  CNTR_ASSIGN_OR_RETURN(size_t pushed, pipe.PushSegments(WrapBuffer(buf, len, gift), nonblock));
  // SPLICE_F_GIFT: pages change owner at the remap rate, they are not
  // copied. (The simulator duplicates the bytes for memory safety — the
  // caller may reuse its buffer — but the modeled cost is the remap.)
  // Charged only for what was actually queued.
  uint64_t pages = (pushed + kPageSize - 1) / kPageSize;
  if (gift) {
    clock_->Advance(pages * costs_->splice_page_ns);
    spliced_pages_->Add(pages);
  } else {
    clock_->Advance(pages * costs_->copy_page_ns);
    copied_pages_->Add(pages);
  }
  return pushed;
}

StatusOr<size_t> SpliceEngine::MovePipeToPipe(PipeBuffer& in, PipeBuffer& out, size_t len,
                                              bool nonblock) {
  if (&in == &out) {
    // splice(2) refuses the same ring on both sides; popping and re-pushing
    // would silently rotate the queue instead of moving data anywhere.
    return Status::Error(EINVAL, "splice within one ring");
  }
  CNTR_ASSIGN_OR_RETURN(std::vector<PipeSegment> segs, in.PopSegments(len, nonblock));
  if (segs.empty()) {
    return size_t{0};  // writer-EOF on `in`
  }
  // Push segment by segment so a refused destination leaves the unmoved
  // tail back in the source ring — splice(2) never loses bytes on EAGAIN.
  size_t moved = 0;
  uint64_t pages = 0;
  for (size_t i = 0; i < segs.size(); ++i) {
    size_t seg_bytes = segs[i].size();
    std::vector<PipeSegment> one;
    one.push_back(segs[i]);
    auto pushed = out.PushSegments(std::move(one), nonblock);
    if (!pushed.ok() || pushed.value() < seg_bytes) {
      std::vector<PipeSegment> rest(segs.begin() + static_cast<long>(i), segs.end());
      in.RequeueFront(std::move(rest));
      if (moved > 0) {
        break;  // partial splice: report what crossed
      }
      return pushed.ok() ? StatusOr<size_t>(Status::Error(EAGAIN)) : pushed;
    }
    moved += seg_bytes;
    ++pages;
  }
  clock_->Advance(pages * costs_->splice_page_ns);
  spliced_pages_->Add(pages);
  return moved;
}

StatusOr<size_t> SpliceEngine::Tee(PipeBuffer& in, PipeBuffer& out, size_t len, bool nonblock) {
  CNTR_ASSIGN_OR_RETURN(size_t teed, in.TeeTo(out, len, nonblock));
  uint64_t pages = (teed + kPageSize - 1) / kPageSize;
  clock_->Advance(pages * costs_->splice_page_ns);
  teed_pages_->Add(pages);
  return teed;
}

}  // namespace cntr::splice
