// Bounded admission queue with an explicit backpressure/shed policy.
//
// The queue sits between the load generator (producer) and the continuous
// batcher (consumer). It is deliberately BOUNDED: an open-loop arrival
// process does not slow down when the server falls behind, so without a
// bound the queue -- and every queued request's latency -- grows without
// limit. Overload has to go somewhere; the policy says where:
//  * kShedNewest -- a full queue rejects the arriving request (classic
//    admission control: protect the latency of work already admitted);
//  * kShedOldest -- a full queue evicts its head to admit the newcomer
//    (the oldest request has already blown its deadline; spend capacity on
//    one that can still meet it).
// TryPush reports every shed request to its caller (the serving loop counts
// and reports them), so none is silently dropped.
//
// Thread safety: every operation takes one mutex, so any number of threads
// may push and pop (serve_test hammers it cross-thread under TSan). The
// simulated-clock serving loop drives it single-threaded -- determinism
// there comes from the loop, not from the queue.
//
// Storage is a fixed ring sized at construction (the bound exists anyway --
// that is the whole point of admission control), so steady-state push/pop
// perform zero heap allocations.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "serve/request.h"

namespace comet {

enum class AdmissionPolicy {
  kShedNewest,
  kShedOldest,
};

class AdmissionQueue {
 public:
  // Outcome of one TryPush.
  struct Admit {
    bool admitted = false;
    // Set under kShedOldest when admitting evicted the head.
    std::optional<RequestSpec> evicted;
  };

  AdmissionQueue(int64_t capacity, AdmissionPolicy policy);

  // Non-blocking admission; never waits (the producer is an open-loop
  // arrival process -- it cannot be paused). Exactly one request is shed
  // when the queue is full: the newcomer (kShedNewest, admitted == false)
  // or the head (kShedOldest, admitted == true + evicted set).
  Admit TryPush(const RequestSpec& spec);

  // Non-blocking pop in FIFO order.
  std::optional<RequestSpec> TryPop();

  // Removes (and returns) the queued request with RequestSpec::id == id,
  // preserving the order of the rest; nullopt when not queued. The cluster's
  // hedged dispatch uses this for loser cancellation: when one copy of a
  // hedged request completes, the still-queued copy is withdrawn.
  std::optional<RequestSpec> Remove(int64_t id);

  int64_t capacity() const { return capacity_; }
  AdmissionPolicy policy() const { return policy_; }
  int64_t size() const;
  // Sum of RequestSpec::TotalTokens over the currently queued requests --
  // the dispatcher hook the cluster plane's least-loaded / power-of-two
  // placement policies read as a replica's backlog.
  int64_t queued_tokens() const;

 private:
  // Ring accessors; callers hold mu_.
  RequestSpec& At(int64_t pos) {
    return ring_[static_cast<size_t>((head_ + pos) % capacity_)];
  }
  void PushBack(const RequestSpec& spec);
  RequestSpec PopFront();

  const int64_t capacity_;
  const AdmissionPolicy policy_;

  mutable std::mutex mu_;
  // Fixed-capacity ring (RequestSpec is POD): the queue is allocated once at
  // construction and steady-state push/pop touch no heap, which keeps the
  // serving loop's admission path inside the zero-allocation envelope.
  std::vector<RequestSpec> ring_;
  int64_t head_ = 0;  // index of the oldest element
  int64_t size_ = 0;
  int64_t queued_tokens_ = 0;
};

}  // namespace comet
