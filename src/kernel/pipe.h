// Kernel pipes: pipe(2) and the buffer underlying splice().
//
// The ring is a deque of PipeSegments — windows onto ref-counted pages —
// rather than raw bytes, so splice()/vmsplice()/tee() analogues can move or
// duplicate page references through a pipe without copying payload. The
// byte-level Read/Write API is unchanged: readers and writers that treat the
// pipe as a byte stream (sockets, ptys, the socket proxy) see exactly the
// blocking semantics they always did.
#ifndef CNTR_SRC_KERNEL_PIPE_H_
#define CNTR_SRC_KERNEL_PIPE_H_

#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "src/kernel/file.h"
#include "src/kernel/poll_hub.h"
#include "src/kernel/types.h"
#include "src/splice/page_ref.h"
#include "src/util/status.h"
#include "src/analysis/lockdep.h"

namespace cntr::kernel {

// One entry of a pipe's ring: the payload is bytes [begin, end) of `ref`'s
// page. Splitting a segment (a partial splice) duplicates the reference and
// narrows the windows; the physical page is never copied.
struct PipeSegment {
  splice::PageRef ref;
  uint32_t begin = 0;
  uint32_t end = 0;

  uint32_t size() const { return end - begin; }
  const char* data() const { return ref.data() + begin; }

  static PipeSegment Of(splice::PageRef ref) {
    PipeSegment seg;
    seg.begin = 0;
    seg.end = ref.len;
    seg.ref = std::move(ref);
    return seg;
  }
};

// F_SETPIPE_SZ bounds, mirroring Linux: one page minimum, and an
// unprivileged cap of /proc/sys/fs/pipe-max-size (1 MiB default).
inline constexpr size_t kPipeMinCapacity = kPageSize;
inline constexpr size_t kPipeMaxCapacity = 1 << 20;

// The shared ring between a pipe's read and write ends. Blocking semantics
// match Linux: read blocks until data or writer-EOF, write blocks until
// space or fails with EPIPE when no readers remain. A write that queued >0
// bytes before hitting backpressure or a vanished reader reports the short
// count, never EAGAIN/EPIPE.
class PipeBuffer {
 public:
  // `hub` may be null for rings no epoll instance ever watches.
  explicit PipeBuffer(PollHub* hub, size_t capacity = 65536) : hub_(hub), capacity_(capacity) {}

  StatusOr<size_t> Read(char* buf, size_t count, bool nonblock);
  StatusOr<size_t> Write(const char* buf, size_t count, bool nonblock);

  // --- splice surface (page granularity) ---

  // Appends whole segments while capacity allows; returns bytes pushed.
  // Blocking behaviour mirrors Write: EPIPE with no readers and nothing
  // pushed, EAGAIN when nonblocking and nothing fits, short count once >0
  // bytes are queued.
  StatusOr<size_t> PushSegments(std::vector<PipeSegment> segs, bool nonblock);

  // Pops whole segments up to `max_bytes` (the front segment is split if it
  // straddles the budget). Returns an empty vector on writer-EOF, EAGAIN
  // when nonblocking and empty; blocks otherwise.
  StatusOr<std::vector<PipeSegment>> PopSegments(size_t max_bytes, bool nonblock);

  // Puts segments back at the FRONT of the ring, first element first — the
  // undo of a PopSegments whose downstream push failed (splice(2) leaves
  // unmoved bytes in the source pipe). Ignores capacity: the bytes were
  // accounted here before the pop, so restoring them never exceeds the
  // pre-pop level from this caller's perspective.
  void RequeueFront(std::vector<PipeSegment> segs);

  // tee(2): duplicates up to `max_bytes` of this ring's front into `dst`
  // without consuming; the duplicated segments share pages (refcounts rise,
  // nothing is copied). EAGAIN when nonblocking and either side is not
  // ready; 0 on writer-EOF with an empty ring.
  StatusOr<size_t> TeeTo(PipeBuffer& dst, size_t max_bytes, bool nonblock);

  // fcntl(F_SETPIPE_SZ): rounds up to the next power of two within
  // [kPipeMinCapacity, kPipeMaxCapacity]; EBUSY when the ring currently
  // holds more than the requested size, EPERM beyond the unprivileged cap.
  // Returns the resulting capacity.
  StatusOr<size_t> SetCapacity(size_t bytes);
  size_t capacity() const {
    std::lock_guard<analysis::CheckedMutex> lock(mu_);
    return capacity_;
  }

  // Drops everything queued (connection teardown).
  void Clear();

  void AddReader();
  void DropReader();
  void AddWriter();
  void DropWriter();

  size_t Available() const {
    std::lock_guard<analysis::CheckedMutex> lock(mu_);
    return bytes_;
  }
  size_t SpaceLeft() const {
    std::lock_guard<analysis::CheckedMutex> lock(mu_);
    return capacity_ - bytes_;
  }

  uint32_t ReadEndPollEvents() const;
  uint32_t WriteEndPollEvents() const;

 private:
  // Wakes readers/writers and pollers. Must be called with mu_ NOT held:
  // PollHub's notify takes the hub mutex, which the epoll path holds while
  // polling this buffer's state — notifying under mu_ inverts that order
  // and can deadlock against a concurrent EpollWait.
  void NotifyUnlocked();

  // Appends bytes, reusing the tail segment's page when it is exclusively
  // ours (a tee'd or spliced-out page is never written in place).
  void AppendBytesLocked(const char* buf, size_t n);

  PollHub* hub_;
  size_t capacity_;
  mutable analysis::CheckedMutex mu_{"kernel.pipe.buffer"};
  analysis::CheckedCondVar cv_{"kernel.pipe.buffer.cv"};
  std::deque<PipeSegment> segs_;
  size_t bytes_ = 0;
  int readers_ = 0;
  int writers_ = 0;
};

class PipeReadEnd : public FileDescription {
 public:
  explicit PipeReadEnd(std::shared_ptr<PipeBuffer> buf, int flags)
      : FileDescription(nullptr, flags), buf_(std::move(buf)) {
    buf_->AddReader();
  }
  ~PipeReadEnd() override { buf_->DropReader(); }

  StatusOr<size_t> Read(void* buf, size_t count, uint64_t /*offset*/) override {
    return buf_->Read(static_cast<char*>(buf), count, nonblocking());
  }
  uint32_t PollEvents() override { return buf_->ReadEndPollEvents(); }

  const std::shared_ptr<PipeBuffer>& pipe_buffer() const { return buf_; }

 private:
  std::shared_ptr<PipeBuffer> buf_;
};

class PipeWriteEnd : public FileDescription {
 public:
  explicit PipeWriteEnd(std::shared_ptr<PipeBuffer> buf, int flags)
      : FileDescription(nullptr, flags), buf_(std::move(buf)) {
    buf_->AddWriter();
  }
  ~PipeWriteEnd() override { buf_->DropWriter(); }

  StatusOr<size_t> Write(const void* buf, size_t count, uint64_t /*offset*/) override {
    return buf_->Write(static_cast<const char*>(buf), count, nonblocking());
  }
  uint32_t PollEvents() override { return buf_->WriteEndPollEvents(); }

  const std::shared_ptr<PipeBuffer>& pipe_buffer() const { return buf_; }

 private:
  std::shared_ptr<PipeBuffer> buf_;
};

}  // namespace cntr::kernel

#endif  // CNTR_SRC_KERNEL_PIPE_H_
