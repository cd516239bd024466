#include "src/kernel/pipe.h"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>
#include "src/analysis/lockdep.h"

namespace cntr::kernel {

void PipeBuffer::NotifyUnlocked() {
  cv_.notify_all();
  if (hub_ != nullptr) {
    hub_->Notify();
  }
}

void PipeBuffer::AppendBytesLocked(const char* buf, size_t n) {
  size_t done = 0;
  // Fill the tail segment's page in place when we own it exclusively and it
  // ends flush with its valid length (a shared page belongs to a tee'd
  // duplicate or a spliced-out ref and must not be mutated).
  if (!segs_.empty()) {
    PipeSegment& tail = segs_.back();
    if (tail.ref.unique() && tail.end == tail.ref.len && tail.ref.len < kPageSize) {
      size_t room = kPageSize - tail.ref.len;
      size_t take = std::min(room, n);
      std::memcpy(tail.ref.mutable_data() + tail.ref.len, buf, take);
      tail.ref.len += static_cast<uint32_t>(take);
      tail.end += static_cast<uint32_t>(take);
      done += take;
    }
  }
  while (done < n) {
    uint32_t take = static_cast<uint32_t>(std::min<size_t>(kPageSize, n - done));
    segs_.push_back(PipeSegment::Of(splice::PageRef::Copy(buf + done, take)));
    done += take;
  }
  bytes_ += n;
}

StatusOr<size_t> PipeBuffer::Read(char* buf, size_t count, bool nonblock) {
  std::unique_lock<analysis::CheckedMutex> lock(mu_);
  while (bytes_ == 0) {
    if (writers_ == 0) {
      return size_t{0};  // EOF
    }
    if (nonblock) {
      return Status::Error(EAGAIN);
    }
    cv_.wait(lock);
  }
  size_t n = std::min(count, bytes_);
  size_t done = 0;
  while (done < n) {
    PipeSegment& front = segs_.front();
    uint32_t take = static_cast<uint32_t>(std::min<size_t>(front.size(), n - done));
    std::memcpy(buf + done, front.data(), take);
    front.begin += take;
    done += take;
    if (front.begin == front.end) {
      segs_.pop_front();
    }
  }
  bytes_ -= n;
  lock.unlock();
  NotifyUnlocked();
  return n;
}

StatusOr<size_t> PipeBuffer::Write(const char* buf, size_t count, bool nonblock) {
  std::unique_lock<analysis::CheckedMutex> lock(mu_);
  size_t written = 0;
  while (written < count) {
    if (readers_ == 0) {
      if (written > 0) {
        break;
      }
      return Status::Error(EPIPE);
    }
    if (bytes_ >= capacity_) {
      if (nonblock) {
        if (written > 0) {
          break;  // short write, not EAGAIN: bytes are already queued
        }
        return Status::Error(EAGAIN);
      }
      cv_.wait(lock);
      continue;
    }
    size_t n = std::min(count - written, capacity_ - bytes_);
    AppendBytesLocked(buf + written, n);
    written += n;
    lock.unlock();
    NotifyUnlocked();
    lock.lock();
  }
  return written;
}

StatusOr<size_t> PipeBuffer::PushSegments(std::vector<PipeSegment> segs, bool nonblock) {
  std::unique_lock<analysis::CheckedMutex> lock(mu_);
  size_t pushed = 0;
  for (size_t i = 0; i < segs.size();) {
    if (readers_ == 0) {
      if (pushed > 0) {
        break;
      }
      return Status::Error(EPIPE);
    }
    size_t need = segs[i].size();
    if (need > capacity_) {
      // This segment can never fit; report what was queued so far.
      if (pushed > 0) {
        break;
      }
      return Status::Error(EINVAL, "segment larger than the pipe");
    }
    if (bytes_ + need > capacity_) {
      if (nonblock) {
        if (pushed > 0) {
          break;  // short push once >0 bytes are queued
        }
        return Status::Error(EAGAIN);
      }
      cv_.wait(lock);
      continue;
    }
    bytes_ += need;
    pushed += need;
    segs_.push_back(std::move(segs[i]));
    ++i;
    lock.unlock();
    NotifyUnlocked();
    lock.lock();
  }
  return pushed;
}

StatusOr<std::vector<PipeSegment>> PipeBuffer::PopSegments(size_t max_bytes, bool nonblock) {
  std::unique_lock<analysis::CheckedMutex> lock(mu_);
  while (bytes_ == 0) {
    if (writers_ == 0) {
      return std::vector<PipeSegment>{};  // EOF
    }
    if (nonblock) {
      return Status::Error(EAGAIN);
    }
    cv_.wait(lock);
  }
  std::vector<PipeSegment> out;
  size_t taken = 0;
  while (!segs_.empty() && taken < max_bytes) {
    PipeSegment& front = segs_.front();
    if (front.size() <= max_bytes - taken) {
      taken += front.size();
      out.push_back(std::move(front));
      segs_.pop_front();
    } else {
      // Split: hand out the head window, keep the tail (same page, two refs).
      uint32_t take = static_cast<uint32_t>(max_bytes - taken);
      PipeSegment head = front;
      head.end = head.begin + take;
      front.begin += take;
      taken += take;
      out.push_back(std::move(head));
    }
  }
  bytes_ -= taken;
  lock.unlock();
  NotifyUnlocked();
  return out;
}

void PipeBuffer::RequeueFront(std::vector<PipeSegment> segs) {
  {
    std::lock_guard<analysis::CheckedMutex> lock(mu_);
    for (auto it = segs.rbegin(); it != segs.rend(); ++it) {
      bytes_ += it->size();
      segs_.push_front(std::move(*it));
    }
  }
  NotifyUnlocked();
}

StatusOr<size_t> PipeBuffer::TeeTo(PipeBuffer& dst, size_t max_bytes, bool nonblock) {
  // Duplicate under the source lock, then push to the destination with no
  // lock held on the source (two pipes, two locks — never nested).
  std::vector<PipeSegment> dup;
  {
    std::unique_lock<analysis::CheckedMutex> lock(mu_);
    while (bytes_ == 0) {
      if (writers_ == 0) {
        return size_t{0};
      }
      if (nonblock) {
        return Status::Error(EAGAIN);
      }
      cv_.wait(lock);
    }
    size_t taken = 0;
    for (const PipeSegment& seg : segs_) {
      if (taken >= max_bytes) {
        break;
      }
      PipeSegment copy = seg;  // shares the page, refcount rises
      if (copy.size() > max_bytes - taken) {
        copy.end = copy.begin + static_cast<uint32_t>(max_bytes - taken);
      }
      taken += copy.size();
      dup.push_back(std::move(copy));
    }
  }
  return dst.PushSegments(std::move(dup), nonblock);
}

StatusOr<size_t> PipeBuffer::SetCapacity(size_t bytes) {
  if (bytes == 0) {
    return Status::Error(EINVAL);
  }
  if (bytes > kPipeMaxCapacity) {
    return Status::Error(EPERM, "pipe size beyond pipe-max-size");
  }
  size_t rounded = std::bit_ceil(std::max(bytes, kPipeMinCapacity));
  bool grew;
  {
    std::lock_guard<analysis::CheckedMutex> lock(mu_);
    if (rounded < bytes_) {
      return Status::Error(EBUSY, "pipe holds more data than the requested size");
    }
    grew = rounded > capacity_;
    capacity_ = rounded;
  }
  if (grew) {
    NotifyUnlocked();  // blocked writers may fit now
  }
  return rounded;
}

void PipeBuffer::Clear() {
  {
    std::lock_guard<analysis::CheckedMutex> lock(mu_);
    segs_.clear();
    bytes_ = 0;
  }
  NotifyUnlocked();
}

void PipeBuffer::AddReader() {
  std::lock_guard<analysis::CheckedMutex> lock(mu_);
  ++readers_;
}

void PipeBuffer::DropReader() {
  {
    std::lock_guard<analysis::CheckedMutex> lock(mu_);
    --readers_;
  }
  NotifyUnlocked();
}

void PipeBuffer::AddWriter() {
  std::lock_guard<analysis::CheckedMutex> lock(mu_);
  ++writers_;
}

void PipeBuffer::DropWriter() {
  {
    std::lock_guard<analysis::CheckedMutex> lock(mu_);
    --writers_;
  }
  NotifyUnlocked();
}

uint32_t PipeBuffer::ReadEndPollEvents() const {
  std::lock_guard<analysis::CheckedMutex> lock(mu_);
  uint32_t ev = 0;
  if (bytes_ > 0) {
    ev |= kPollIn;
  }
  if (writers_ == 0) {
    ev |= kPollHup;
    if (bytes_ == 0) {
      ev |= kPollIn;  // readable-with-EOF, like Linux
    }
  }
  return ev;
}

uint32_t PipeBuffer::WriteEndPollEvents() const {
  std::lock_guard<analysis::CheckedMutex> lock(mu_);
  uint32_t ev = 0;
  if (bytes_ < capacity_) {
    ev |= kPollOut;
  }
  if (readers_ == 0) {
    ev |= kPollErr;
  }
  return ev;
}

}  // namespace cntr::kernel
