// Drives the server side of a FuseConn by hand, for tests that play the
// server themselves instead of attaching a FuseServerPool.
//
// TryReadRequestBatch is the connection's only reap entry and never parks;
// this helper polls it, yielding between empty passes, so a test thread can
// wait for the next request without a condition variable of its own.
#ifndef CNTR_TESTS_FUSE_POLL_REQUESTS_H_
#define CNTR_TESTS_FUSE_POLL_REQUESTS_H_

#include <optional>
#include <thread>
#include <vector>

#include "src/fuse/fuse_conn.h"

namespace cntr::fuse {

// Waits for a batch of up to `max_batch` requests, scanning from
// `start_channel`. Returns an empty batch once the connection is aborted
// and its rings are drained (the server's end of stream).
inline std::vector<FuseRequest> PollRequests(FuseConn& conn, size_t start_channel = 0,
                                             size_t max_batch = kRingReapBatch) {
  for (;;) {
    std::vector<FuseRequest> batch = conn.TryReadRequestBatch(start_channel, max_batch);
    if (!batch.empty() || (conn.aborted() && conn.queued_depth() == 0)) {
      return batch;
    }
    std::this_thread::yield();
  }
}

// Waits for one request; nullopt at the end of the stream.
inline std::optional<FuseRequest> PollRequest(FuseConn& conn, size_t start_channel = 0) {
  std::vector<FuseRequest> batch = PollRequests(conn, start_channel, 1);
  if (batch.empty()) {
    return std::nullopt;
  }
  return std::move(batch.front());
}

}  // namespace cntr::fuse

#endif  // CNTR_TESTS_FUSE_POLL_REQUESTS_H_
