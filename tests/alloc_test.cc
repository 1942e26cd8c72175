// The allocation-count regression tier (docs/ARCHITECTURE.md, "The
// allocation plane").
//
// Three layers of pinning:
//  1. The allocator primitives themselves (AllocCounter interposition,
//     FixedPool, InlineVec): capacity retention, loud CheckError on
//     exhaustion.
//  2. The tentpole contract: a steady-state MoeServer::StepIteration --
//     admission, packing, routing, the full functional executor pass across
//     every rank, harvesting and retirement -- performs ZERO heap
//     allocations, across host threads {1,8} x EP {1,4} x dtype
//     {f32,bf16}. The counter is process-wide, so an allocation on a pool
//     worker or a parked rank thread fails the test just like one on the
//     serving loop.
//  3. Digest pins: the zero-allocation refactor must be bit-invisible.
//     Serving reports (combined digest, per-request latency bit patterns,
//     iteration/token counts, simulated duration) and the cluster plane's
//     per-request digest are pinned to golden values captured BEFORE the
//     refactor. Any future "optimization" that changes a rounding point, a
//     draw order or the packing discipline trips these before it lands.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "hw/gpu_spec.h"
#include "serve/cluster.h"
#include "serve/loadgen.h"
#include "serve/request.h"
#include "serve/server.h"
#include "util/alloc_counter.h"
#include "util/arena.h"
#include "util/check.h"
#include "util/inline_vec.h"

namespace comet {
namespace {

using util::AllocCounter;
using util::AllocStats;
using util::AllocWindow;
using util::FixedPool;
using util::InlineVec;

// ---- the counter itself ----------------------------------------------------

TEST(AllocCounter, InterposerIsLinkedIn) {
  // If this fails, the build stopped linking alloc_counter.cc's operator
  // new/delete into the test binary and every zero-allocation assertion
  // below is vacuous.
  ASSERT_TRUE(AllocCounter::Interposed());
}

TEST(AllocCounter, CountsOnlyInsideWindow) {
  std::vector<int> warm;
  warm.reserve(1);  // outside any window: never counted
  uint64_t before;
  {
    AllocWindow w;
    before = w.Snapshot().allocs;
    // Direct operator-new call: a new-EXPRESSION paired with its delete may
    // legally be elided at -O3, which would make this test vacuous.
    void* p = ::operator new(32);
    ::operator delete(p);
    const AllocStats s = w.Snapshot();
    EXPECT_GE(s.allocs, before + 1);
    EXPECT_GE(s.frees, 1u);
    EXPECT_GE(s.bytes, 32u);
  }
  EXPECT_FALSE(AllocCounter::enabled());
}

TEST(AllocCounter, AttributesToThread) {
  AllocWindow w;
  void* p = ::operator new(sizeof(double));  // not elidable (see above)
  ::operator delete(p);
  EXPECT_GE(AllocCounter::Thread().allocs, 1u);
}

// ---- FixedPool -------------------------------------------------------------

TEST(FixedPool, AcquireReleaseCyclesAreAllocationFree) {
  FixedPool<std::vector<int>> pool(4);
  // Warm the pooled objects' internal capacity.
  std::vector<std::vector<int>*> held;
  for (int i = 0; i < 4; ++i) {
    held.push_back(pool.Acquire());
    held.back()->reserve(64);
  }
  for (auto* p : held) {
    pool.Release(p);
  }

  AllocWindow w;
  for (int iter = 0; iter < 100; ++iter) {
    auto* p = pool.Acquire();
    p->clear();
    for (int i = 0; i < 64; ++i) {
      p->push_back(i);  // within warmed capacity
    }
    pool.Release(p);
  }
  EXPECT_EQ(w.Snapshot().allocs, 0u);
}

TEST(FixedPool, ReleasedObjectsKeepTheirBuffers) {
  FixedPool<std::vector<int>> pool(1);
  auto* p = pool.Acquire();
  p->reserve(128);
  const size_t cap = p->capacity();
  pool.Release(p);
  auto* q = pool.Acquire();
  EXPECT_EQ(q, p) << "single-object pool must hand back the same storage";
  EXPECT_GE(q->capacity(), cap) << "release must not shed capacity";
  pool.Release(q);
}

TEST(FixedPool, ExhaustionThrowsLoudly) {
  FixedPool<int> pool(2);
  int* a = pool.Acquire();
  int* b = pool.Acquire();
  EXPECT_THROW(pool.Acquire(), CheckError);
  pool.Release(a);
  EXPECT_NO_THROW(pool.Release(b));
  EXPECT_THROW(pool.Release(a), CheckError) << "double release";
  EXPECT_EQ(pool.capacity(), 2u);
  EXPECT_EQ(pool.outstanding(), 0u);
}

// ---- InlineVec -------------------------------------------------------------

TEST(InlineVec, StaysInlineUpToN) {
  AllocWindow w;
  InlineVec<int64_t, 8> v;
  for (int64_t i = 0; i < 8; ++i) {
    v.push_back(i);
  }
  EXPECT_TRUE(v.is_inline());
  InlineVec<int64_t, 8> copy = v;  // copies are inline too
  EXPECT_TRUE(copy.is_inline());
  EXPECT_EQ(copy, v);
  std::vector<InlineVec<int64_t, 8>> table;
  table.reserve(16);
  for (int i = 0; i < 16; ++i) {
    table.push_back(v);  // the RoutingTable pattern
  }
  EXPECT_EQ(w.Snapshot().allocs, 1u) << "only the table's own reserve";
}

TEST(InlineVec, SpillsBeyondNAndStaysCorrect) {
  InlineVec<int64_t, 4> v;
  for (int64_t i = 0; i < 12; ++i) {
    v.push_back(i);
  }
  EXPECT_FALSE(v.is_inline());
  ASSERT_EQ(v.size(), 12u);
  for (int64_t i = 0; i < 12; ++i) {
    EXPECT_EQ(v[static_cast<size_t>(i)], i);
  }
  InlineVec<int64_t, 4> copy = v;
  EXPECT_EQ(copy, v);
  v.clear();
  EXPECT_TRUE(v.empty());
}

// ---- the serving scenario (mirrors serve_test's helpers) -------------------

ModelConfig ServeModel() {
  ModelConfig m;
  m.name = "serve-tiny";
  m.layers = 1;
  m.num_experts = 8;
  m.topk = 2;
  m.embedding = 32;
  m.ffn_hidden = 64;
  return m;
}

ServeOptions BaseServeOptions(int ep, DType dtype, int num_threads) {
  ServeOptions o;
  o.model = ServeModel();
  o.parallel = ParallelConfig{1, ep};
  o.seed = 1234;
  o.dtype = dtype;
  o.num_threads = num_threads;
  o.token_budget = 16;
  o.max_active = 8;
  o.queue_capacity = 64;
  return o;
}

LoadGenOptions BaseLoadOptions(int64_t n = 24) {
  LoadGenOptions o;
  o.seed = 77;
  o.offered_rps = 2000.0;
  o.num_requests = n;
  o.prompt = LengthDist::Uniform(2, 6);
  o.decode = LengthDist::Uniform(0, 4);
  return o;
}

// ---- the tentpole: zero allocations per steady-state StepIteration ---------

// Drives a server through the dispatcher hooks under saturating load: offer
// a trickle each iteration so the queue never drains, warm up past every
// capacity high-water mark (pool buffers, nc memo for the saturated batch
// shape, executor output slabs), then count a mid-run window.
void ExpectZeroAllocSteadyState(int num_threads, int ep, DType dtype,
                                bool telemetry = false) {
  SCOPED_TRACE(testing::Message() << "threads=" << num_threads << " ep=" << ep
                                  << " dtype=" << DTypeName(dtype)
                                  << " telemetry=" << telemetry);
  constexpr int64_t kRequests = 220;
  constexpr int kWarmupIters = 12;
  constexpr int kWindowIters = 24;
  constexpr int kOfferPerIter = 3;

  std::vector<RequestSpec> arrivals;
  int64_t max_prompt = 0, max_decode = 0, total_tokens = 0;
  for (int64_t i = 0; i < kRequests; ++i) {
    RequestSpec r;
    r.id = i;
    r.seed = static_cast<uint64_t>(i) * 1000003ULL + 5;
    r.prompt_tokens = 2 + (i % 5);  // 2..6, like the golden load
    r.decode_tokens = i % 5;        // 0..4
    r.arrival_us = 0.0;
    max_prompt = std::max(max_prompt, r.prompt_tokens);
    max_decode = std::max(max_decode, r.decode_tokens);
    total_tokens += r.TotalTokens();
    arrivals.push_back(r);
  }

  ServeOptions options = BaseServeOptions(ep, dtype, num_threads);
  options.telemetry.enabled = telemetry;
  MoeServer server(options, H800Cluster(ep));
  MoeServer::RunBounds bounds;
  bounds.expected_requests = kRequests;
  bounds.expected_tokens = total_tokens;
  bounds.max_prompt_tokens = max_prompt;
  bounds.max_decode_tokens = max_decode;
  server.BeginRun(bounds);

  size_t next = 0;
  const auto offer_some = [&] {
    for (int k = 0; k < kOfferPerIter && next < arrivals.size(); ++k) {
      server.Offer(arrivals[next++]);
    }
  };
  double now = 0.0, end = 0.0;
  for (int i = 0; i < kWarmupIters; ++i) {
    offer_some();
    ASSERT_TRUE(server.StepIteration(now, &end));
    now = end;
  }

  AllocStats stats;
  {
    AllocWindow w;
    for (int i = 0; i < kWindowIters; ++i) {
      offer_some();
      ASSERT_TRUE(server.StepIteration(now, &end));
      now = end;
    }
    stats = w.Snapshot();
  }
  EXPECT_EQ(stats.allocs, 0u)
      << stats.allocs << " heap allocations (" << stats.bytes
      << " bytes) leaked into " << kWindowIters
      << " steady-state iterations; set COMET_ALLOC_TRAP=1 to get a "
         "backtrace at the first one";
  EXPECT_EQ(stats.frees, 0u);

  // The run must still finish and account coherently after the window.
  while (server.StepIteration(now, &end)) {
    offer_some();
    now = end;
  }
  while (next < arrivals.size()) {
    server.Offer(arrivals[next++]);
    while (server.StepIteration(now, &end)) {
      now = end;
    }
  }
  const ServeReport report = server.BuildReport(now);
  EXPECT_EQ(static_cast<int64_t>(report.completed.size()) + report.shed,
            kRequests);
}

TEST(ZeroAllocServing, SteadyStateAcrossThreadsEpDtype) {
  for (int num_threads : {1, 8}) {
    for (int ep : {1, 4}) {
      for (DType dtype : {DType::kF32, DType::kBF16}) {
        ExpectZeroAllocSteadyState(num_threads, ep, dtype);
      }
    }
  }
}

// The telemetry plane's recording (registry counters/gauges/histograms +
// the span ring, all live in this window) must be as allocation-free as the
// loop it observes: same window, telemetry ON.
TEST(ZeroAllocServing, SteadyStateWithTelemetryOn) {
  for (int num_threads : {1, 8}) {
    for (int ep : {1, 4}) {
      ExpectZeroAllocSteadyState(num_threads, ep, DType::kF32,
                                 /*telemetry=*/true);
    }
  }
}

// ---- digest pins: the refactor is bit-invisible ----------------------------

// Golden values captured on the pre-refactor serving plane (allocating
// BuildBatchWorkload / RunBatch path), serving BaseLoadOptions(24) through
// BaseServeOptions(ep, dtype, 1). Latency values are pinned as f64 bit
// patterns -- "close" is not a thing the simulated clock is allowed to be.
struct ServeGolden {
  int ep;
  DType dtype;
  uint64_t combined_digest;
  uint64_t req_digest;  // FNV over (id, output_digest, queue_wait, ttft,
                        // e2e, mean_itl) of every completed record, id order
  int64_t completed;
  int64_t shed;
  int64_t iterations;
  int64_t batched_tokens;
  uint64_t ttft_p50_bits;
  uint64_t ttft_p99_bits;
  uint64_t itl_p99_bits;
  uint64_t e2e_p99_bits;
  uint64_t queue_wait_p99_bits;
  uint64_t sim_duration_bits;
};

constexpr ServeGolden kServeGoldens[] = {
    {1, DType::kF32, 0x090039d1a50fb32eULL, 0xea27038452594fc1ULL, 24, 0, 57,
     141, 0x404bcf4c84e55f00ULL, 0x40586738b88d7fc0ULL, 0x404bcf5869d5e200ULL,
     0x40733d6ea7e7a97cULL, 0x4044ff2adeade200ULL, 0x40c51c5984fedcd3ULL},
    {1, DType::kBF16, 0xe7ca02ae05f060c2ULL, 0x9e3759e4bd910e3dULL, 24, 0, 57,
     141, 0x404bcf4c84e55f00ULL, 0x40586738b88d7fc0ULL, 0x404bcf5869d5e200ULL,
     0x40733d6ea7e7a97cULL, 0x4044ff2adeade200ULL, 0x40c51c5984fedcd3ULL},
    {4, DType::kF32, 0x090039d1a50fb32eULL, 0x2b6f7bc81942d53fULL, 24, 0, 57,
     141, 0x404d69934a694540ULL, 0x405a2595ce77ada0ULL, 0x404d69b785750a80ULL,
     0x40753e21a33ba8d4ULL, 0x4046e22659815c40ULL, 0x40c51df35de6c0a0ULL},
    {4, DType::kBF16, 0xe7ca02ae05f060c2ULL, 0x2e42094ea5f04d13ULL, 24, 0, 57,
     141, 0x404d69934a694540ULL, 0x405a2595ce77ada0ULL, 0x404d69b785750a80ULL,
     0x40753e21a33ba8d4ULL, 0x4046e22659815c40ULL, 0x40c51df35de6c0a0ULL},
};

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

uint64_t RequestDigest(const std::vector<RequestRecord>& completed) {
  uint64_t h = Fnv1aInit();
  for (const RequestRecord& c : completed) {
    h = Fnv1aAdd(h, &c.id, sizeof(c.id));
    h = Fnv1aAdd(h, &c.output_digest, sizeof(c.output_digest));
    h = Fnv1aAdd(h, &c.queue_wait_us, sizeof(c.queue_wait_us));
    h = Fnv1aAdd(h, &c.ttft_us, sizeof(c.ttft_us));
    h = Fnv1aAdd(h, &c.e2e_us, sizeof(c.e2e_us));
    h = Fnv1aAdd(h, &c.mean_itl_us, sizeof(c.mean_itl_us));
  }
  return h;
}

TEST(DigestPin, ServeReportsMatchPreRefactorGoldens) {
  for (const ServeGolden& g : kServeGoldens) {
    // The goldens were captured single-threaded; the data plane is
    // thread-count invariant, so they must hold at 8 threads too.
    for (int num_threads : {1, 8}) {
      SCOPED_TRACE(testing::Message()
                   << "ep=" << g.ep << " dtype=" << DTypeName(g.dtype)
                   << " threads=" << num_threads);
      const auto arrivals = LoadGenerator(BaseLoadOptions()).GenerateAll();
      MoeServer server(BaseServeOptions(g.ep, g.dtype, num_threads),
                       H800Cluster(g.ep));
      const ServeReport r = server.Serve(arrivals);

      EXPECT_EQ(r.combined_digest, g.combined_digest);
      EXPECT_EQ(RequestDigest(r.completed), g.req_digest);
      EXPECT_EQ(static_cast<int64_t>(r.completed.size()), g.completed);
      EXPECT_EQ(r.shed, g.shed);
      EXPECT_EQ(r.iterations, g.iterations);
      EXPECT_EQ(r.batched_tokens, g.batched_tokens);
      EXPECT_EQ(Bits(r.ttft_us.p50), g.ttft_p50_bits);
      EXPECT_EQ(Bits(r.ttft_us.p99), g.ttft_p99_bits);
      EXPECT_EQ(Bits(r.itl_us.p99), g.itl_p99_bits);
      EXPECT_EQ(Bits(r.e2e_us.p99), g.e2e_p99_bits);
      EXPECT_EQ(Bits(r.queue_wait_us.p99), g.queue_wait_p99_bits);
      EXPECT_EQ(Bits(r.sim_duration_us), g.sim_duration_bits);
    }
  }
}

TEST(DigestPin, ClusterRunMatchesPreRefactorGolden) {
  ClusterOptions co;
  co.server = BaseServeOptions(2, DType::kBF16, 1);
  co.replicas = 2;
  co.placement = PlacementPolicy::kPowerOfTwo;
  const auto arrivals = LoadGenerator(BaseLoadOptions(32)).GenerateAll();
  MoeCluster cluster(co, H800Cluster(2));
  const ClusterReport r = cluster.Run(arrivals);

  uint64_t req_digest = Fnv1aInit();
  for (const RequestRecord& c : r.completed) {
    req_digest = Fnv1aAdd(req_digest, &c.id, sizeof(c.id));
    req_digest = Fnv1aAdd(req_digest, &c.output_digest,
                          sizeof(c.output_digest));
    req_digest = Fnv1aAdd(req_digest, &c.ttft_us, sizeof(c.ttft_us));
    req_digest = Fnv1aAdd(req_digest, &c.e2e_us, sizeof(c.e2e_us));
  }
  EXPECT_EQ(req_digest, 0xfbf4acda239cfa0dULL);
  EXPECT_EQ(static_cast<int64_t>(r.completed.size()), 32);
  EXPECT_EQ(r.shed, 0);
  EXPECT_EQ(r.dispatched, 32);
}

}  // namespace
}  // namespace comet
