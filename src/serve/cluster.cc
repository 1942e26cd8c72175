#include "serve/cluster.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <map>
#include <set>
#include <tuple>

#include "util/check.h"
#include "util/rng.h"

namespace comet {

MoeCluster::MoeCluster(ClusterOptions options, ClusterSpec replica_cluster)
    : options_(std::move(options)),
      replica_cluster_(replica_cluster),
      cluster_metrics_(obs::ClusterMetrics::Register(cluster_registry_)) {
  COMET_CHECK_GT(options_.replicas, 0);
  COMET_CHECK_LE(options_.replicas, 64) << "DispatchDecision::accepting_mask";
  COMET_CHECK_GE(options_.global_queue_tokens, 0);
  COMET_CHECK_GE(options_.recovery_warmup_us, 0.0)
      << "ClusterOptions::recovery_warmup_us";
  COMET_CHECK_GE(options_.retry_budget, 0) << "ClusterOptions::retry_budget";
  COMET_CHECK_GT(options_.retry_backoff_us, 0.0)
      << "ClusterOptions::retry_backoff_us";
  COMET_CHECK_GE(options_.retry_jitter_frac, 0.0)
      << "ClusterOptions::retry_jitter_frac";
  COMET_CHECK_LE(options_.retry_jitter_frac, 1.0)
      << "ClusterOptions::retry_jitter_frac";
  COMET_CHECK_GE(options_.hedge_queue_wait_us, 0.0)
      << "ClusterOptions::hedge_queue_wait_us";
  ValidateFaultPlan(options_.faults, options_.replicas);
  // Validates HealthOptions loudly at construction even when health is
  // disabled -- a malformed config should never ride along silently.
  ReplicaHealth probe(options_.replicas, options_.health);
  (void)probe;
  replicas_.reserve(static_cast<size_t>(options_.replicas));
  for (int r = 0; r < options_.replicas; ++r) {
    replicas_.push_back(
        std::make_unique<MoeServer>(options_.server, replica_cluster_));
  }
  archived_spans_.resize(static_cast<size_t>(options_.replicas));
}

MoeCluster::~MoeCluster() = default;

namespace {

// Finished work of one replica slot, concatenated across its incarnations
// (kRecover replaces a slot's server; the dead incarnation's work stays).
// The final aggregation concatenates every slot's totals the same way.
struct RunTotals {
  std::vector<RequestRecord> completed;
  std::vector<double> queue_waits, ttfts, itls, e2es;
  int64_t iterations = 0;
  int64_t batched_tokens = 0;
  int64_t padding_tokens = 0;
  int64_t promotions = 0;
  int64_t retirements = 0;
  int64_t replicated_rows = 0;

  void Append(const RunView& view) {
    completed.insert(completed.end(), view.completed.begin(),
                     view.completed.end());
    queue_waits.insert(queue_waits.end(), view.queue_waits.begin(),
                       view.queue_waits.end());
    ttfts.insert(ttfts.end(), view.ttfts.begin(), view.ttfts.end());
    itls.insert(itls.end(), view.itls.begin(), view.itls.end());
    e2es.insert(e2es.end(), view.e2es.begin(), view.e2es.end());
    iterations += view.iterations;
    batched_tokens += view.batched_tokens;
    padding_tokens += view.padding_tokens;
    promotions += view.promotions;
    retirements += view.retirements;
    replicated_rows += view.replicated_rows;
  }

  RunView View() const {
    RunView view;
    view.completed = completed;
    view.queue_waits = queue_waits;
    view.ttfts = ttfts;
    view.itls = itls;
    view.e2es = e2es;
    view.iterations = iterations;
    view.batched_tokens = batched_tokens;
    view.padding_tokens = padding_tokens;
    view.promotions = promotions;
    view.retirements = retirements;
    view.replicated_rows = replicated_rows;
    return view;
  }
};

obs::SpanKind FaultSpanKind(FaultKind kind) {
  switch (kind) {
    case FaultKind::kFail:
      return obs::SpanKind::kFaultFail;
    case FaultKind::kDrain:
      return obs::SpanKind::kFaultDrain;
    case FaultKind::kWedge:
      return obs::SpanKind::kFaultWedge;
    case FaultKind::kCorrupt:
      return obs::SpanKind::kFaultCorrupt;
    case FaultKind::kRecover:
      return obs::SpanKind::kReplicaRecover;
  }
  return obs::SpanKind::kFaultFail;
}

obs::SpanKind BreakerSpanKind(BreakerState state) {
  switch (state) {
    case BreakerState::kOpen:
      return obs::SpanKind::kBreakerOpen;
    case BreakerState::kHalfOpen:
      return obs::SpanKind::kBreakerHalfOpen;
    case BreakerState::kClosed:
      return obs::SpanKind::kBreakerClosed;
  }
  return obs::SpanKind::kBreakerClosed;
}

}  // namespace

// One MoeCluster::Run: the dispatcher's state and its event loop, one method
// per phase. Execute() repeats the phases in a fixed order until no event
// remains, then Finish() builds the report.
class MoeCluster::ClusterRun {
 public:
  ClusterRun(MoeCluster& cluster, const std::vector<RequestSpec>& arrivals)
      : cluster_(cluster),
        options_(cluster.options_),
        arrivals_(arrivals),
        num_replicas_(cluster.num_replicas()),
        health_on_(options_.health_enabled),
        tel_(options_.server.telemetry.enabled),
        dispatcher_(options_.placement, num_replicas_, options_.placement_seed),
        health_(num_replicas_, options_.health),
        retry_rng_(options_.retry_seed),
        slots_(static_cast<size_t>(num_replicas_)) {
    report_.offered = static_cast<int64_t>(arrivals.size());
  }

  ClusterReport Execute() {
    while (true) {
      FireFaults();
      FinishWarmups();
      RetireIterations();
      // Dispatch, oldest obligations first: due backoff retries, then
      // kRedispatch recoveries, then arrivals up to now, then hedges.
      DispatchRetries();
      DispatchBacklog();
      DispatchArrivals();
      if (options_.hedge_queue_wait_us > 0.0) {
        Hedge();
      }
      StepReplicas();
      PollBreakers();
      if (!backlog_.empty()) {
        // A replica died after this turn's dispatch phase: loop again at the
        // same time so the dispatch phase re-dispatches (or accounts) the
        // recovered requests. It always empties the backlog, so this cannot
        // spin.
        continue;
      }
      const double next = NextEventTime();
      if (next == std::numeric_limits<double>::infinity()) {
        break;
      }
      now_ = std::max(now_, next);
    }
    return Finish();
  }

 private:
  // Every arrival gets exactly one Track; at loop exit each is terminal --
  // done (completed somewhere, exactly once) or lost (counted in exactly
  // one of shed / failed_in_flight / retries_exhausted). That partition IS
  // the conservation law the chaos suite asserts.
  struct Track {
    RequestSpec spec;
    int attempts = 0;           // dispatch attempts (first + retries)
    bool hedged = false;        // one-shot hedge consumed
    int hedge_replica = -1;     // where the hedge copy went
    double dispatched_us = -1.0;  // last successful primary admission
    std::vector<int> copies;    // replicas currently holding a copy
    bool done = false;
    bool lost = false;
  };

  // The dispatcher's view of one replica slot.
  struct ReplicaSlot {
    bool alive = true;
    bool accepting = true;
    bool busy = false;          // an iteration is in flight until busy_until
    bool fail_pending = false;  // kFail arrived mid-iteration: die at its end
    bool wedge_armed = false;
    bool warming = false;       // recovered, accepting again at warm_until
    double busy_until = 0.0;
    double warm_until = 0.0;
    // Completed records already observed by the winner logic (a prefix of
    // View().completed; cancellation only ever erases UNOBSERVED records,
    // so the prefix is stable).
    size_t observed = 0;
    // Work harvested from replaced (kRecover) incarnations; the final
    // aggregation reads this plus the live incarnation's View.
    RunTotals archive;
    // Breaker state as last recorded, polled once per loop pass so every
    // transition becomes a trace instant.
    BreakerState breaker_seen = BreakerState::kClosed;
  };

  // ---- phases, in loop order ----

  // Fires due faults. kFail on a busy replica defers death to the end of the
  // in-flight iteration (RetireIterations), but stops dispatches immediately.
  void FireFaults() {
    const std::vector<FaultEvent>& events = options_.faults.events;
    while (next_fault_ < events.size() && events[next_fault_].time_us <= now_) {
      const FaultEvent& ev = events[next_fault_];
      ++next_fault_;
      if (ev.kind == FaultKind::kRecover) {
        RecoverReplica(ev.replica);
      } else {
        InjectFault(ev);
      }
    }
  }

  // Rebuilds a DEAD replica from scratch: fresh executor, heap, EP group, cold
  // profile cache. It starts accepting only after the configured warm-up.
  void RecoverReplica(int r) {
    ReplicaSlot& s = slot(r);
    if (s.alive) {
      return;  // never actually went down; the recovery is moot
    }
    s.archive.Append(server(r).View());
    auto fresh =
        std::make_unique<MoeServer>(options_.server, cluster_.replica_cluster_);
    fresh->BeginRun();
    if (tel_) {
      // The dead incarnation's telemetry outlives it: spans move to the slot
      // archive, counter/histogram totals merge into the fresh registry
      // (gauges start from the fresh incarnation's truth).
      server(r).telemetry().spans().AppendTo(
          &cluster_.archived_spans_[static_cast<size_t>(r)]);
      fresh->telemetry().registry().MergeFrom(server(r).telemetry().registry());
      RecordEvent(obs::SpanKind::kReplicaRecover, r, 0.0, r);
    }
    cluster_.replicas_[static_cast<size_t>(r)] = std::move(fresh);
    s.observed = 0;
    s.busy = false;
    s.fail_pending = false;
    s.wedge_armed = false;
    s.alive = true;
    s.warming = true;
    s.warm_until = now_ + options_.recovery_warmup_us;
    ++report_.replicas_recovered;
  }

  void InjectFault(const FaultEvent& ev) {
    const int r = ev.replica;
    ReplicaSlot& s = slot(r);
    if (!s.alive) {
      return;  // already dead; the fault is moot
    }
    RecordEvent(FaultSpanKind(ev.kind), r, 0.0, r);
    switch (ev.kind) {
      case FaultKind::kFail:
        s.accepting = false;
        s.warming = false;
        if (s.busy) {
          s.fail_pending = true;
        } else {
          Die(r, /*corrupted=*/false);
        }
        break;
      case FaultKind::kDrain:
        if (s.accepting) {
          s.accepting = false;
          ++report_.replicas_drained;
          dispatcher_.ForgetReplica(r);
        }
        break;
      case FaultKind::kWedge:
        s.wedge_armed = true;
        break;
      case FaultKind::kCorrupt:
        server(r).CorruptNextIteration();
        break;
      case FaultKind::kRecover:
        break;  // RecoverReplica's job
    }
  }

  // Recovered replicas whose warm-up has elapsed re-enter the accepting set
  // (their breaker may still gate them through half-open probes).
  void FinishWarmups() {
    for (ReplicaSlot& s : slots_) {
      if (s.warming && s.warm_until <= now_) {
        s.warming = false;
        s.accepting = true;
      }
    }
  }

  // Retires iterations whose simulated end has been reached: observes their
  // completions (winner logic), then executes any deferred death -- the
  // in-flight iteration stands.
  void RetireIterations() {
    for (int r = 0; r < num_replicas_; ++r) {
      ReplicaSlot& s = slot(r);
      if (s.busy && s.busy_until <= now_) {
        s.busy = false;
        HarvestCompletions(r);
        if (s.fail_pending) {
          s.fail_pending = false;
          Die(r, /*corrupted=*/false);
        }
      }
    }
  }

  void DispatchRetries() {
    while (!pending_.empty() && std::get<0>(*pending_.begin()) <= now_) {
      const int64_t id = std::get<2>(*pending_.begin());
      pending_.erase(pending_.begin());
      Track& t = track_.at(id);
      COMET_CHECK(!t.done && !t.lost);
      ++t.attempts;
      ++report_.retries;
      RecordEvent(obs::SpanKind::kRetry, id,
                  static_cast<double>(t.attempts - 1));
      DispatchOne(t, /*redispatch=*/true, /*retry=*/true);
    }
  }

  void DispatchBacklog() {
    while (!backlog_.empty()) {
      const int64_t id = backlog_.front();
      backlog_.pop_front();
      Track& t = track_.at(id);
      ++t.attempts;
      DispatchOne(t, /*redispatch=*/true, /*retry=*/false);
    }
  }

  void DispatchArrivals() {
    while (next_arrival_ < arrivals_.size() &&
           arrivals_[next_arrival_].arrival_us <= now_) {
      const RequestSpec& spec = arrivals_[next_arrival_];
      ++next_arrival_;
      Track& t = track_[spec.id];
      t.spec = spec;
      if (options_.global_queue_tokens > 0 &&
          GlobalLoad() >= options_.global_queue_tokens) {
        ++report_.shed;  // global admission bound: shed outright
        t.lost = true;
        LogDecision(t, DispatchDecision{});
        continue;
      }
      t.attempts = 1;
      DispatchOne(t, /*redispatch=*/false, /*retry=*/false);
    }
  }

  // A request still queue-waiting hedge_queue_wait_us after its admission gets
  // ONE speculative copy on the least-loaded other eligible replica (chosen
  // directly, NOT through the dispatcher, so hedging never perturbs the rr
  // cursor / p2c stream and placement decisions are identical with hedging on
  // or off). One-shot: the deadline consumes the hedge whether or not a copy
  // could be placed.
  void Hedge() {
    for (auto& [id, t] : track_) {
      if (HedgeDeadline(t) > now_) {
        continue;
      }
      t.hedged = true;
      const int primary = t.copies[0];
      if (server(primary).RequestStarted(id)) {
        continue;  // already executing: a second copy buys nothing
      }
      const std::vector<int64_t> load_now = Loads();
      const std::vector<bool> elig = Eligibility();
      int pick = -1;
      for (int r = 0; r < num_replicas_; ++r) {
        if (r == primary || !elig[static_cast<size_t>(r)]) {
          continue;
        }
        if (pick < 0 || load_now[static_cast<size_t>(r)] <
                            load_now[static_cast<size_t>(pick)]) {
          pick = r;
        }
      }
      if (pick < 0) {
        continue;  // nowhere to hedge to
      }
      if (OfferTo(pick, t)) {
        t.hedge_replica = pick;
        ++report_.hedged;
        ++report_.dispatched;
        RecordEvent(obs::SpanKind::kHedge, id, 0.0, pick);
        DispatchDecision d;
        d.replica = pick;
        d.hedge = true;
        for (int r = 0; r < num_replicas_; ++r) {
          if (elig[static_cast<size_t>(r)]) {
            d.accepting_mask |= uint64_t{1} << r;
          }
        }
        LogDecision(t, d);
      }
    }
  }

  // Starts one iteration on every alive idle replica with work, in
  // replica-index order (drained replicas keep stepping until empty; a
  // wedge-armed replica is stepped so the wedge can fire).
  void StepReplicas() {
    for (int r = 0; r < num_replicas_; ++r) {
      ReplicaSlot& s = slot(r);
      if (!s.alive || s.busy) {
        continue;
      }
      MoeServer& replica = server(r);
      if (!replica.HasWork() && !s.wedge_armed) {
        continue;
      }
      if (s.wedge_armed) {
        replica.WedgeNextIteration();
      }
      try {
        double end = 0.0;
        if (replica.StepIteration(now_, &end)) {
          s.busy = true;
          s.busy_until = end;
        }
      } catch (const CheckError& e) {
        // The wedged / corrupted (or internally failed) iteration
        // fail-fasted: the replica is dead, not hung, and a transport-
        // integrity CheckError means an injected bit-flip was DETECTED
        // before anything consumed it.
        const bool corrupted = std::string(e.what()).find(
                                   "transport integrity") != std::string::npos;
        s.wedge_armed = false;
        s.fail_pending = false;
        Die(r, corrupted);
      }
    }
  }

  // Breaker transitions as trace instants: polls each replica's breaker state
  // once per loop pass and records changes. Polling never mutates the breaker
  // (state() is a pure read at now), so telemetry cannot perturb the
  // trajectory.
  void PollBreakers() {
    if (!tel_ || !health_on_) {
      return;
    }
    for (int r = 0; r < num_replicas_; ++r) {
      const BreakerState state = health_.state(r, now_);
      if (state == slot(r).breaker_seen) {
        continue;
      }
      slot(r).breaker_seen = state;
      RecordEvent(BreakerSpanKind(state), r, 0.0, r);
    }
  }

  // The next event time (iteration end, arrival, fault, retry due time,
  // warm-up end, hedge deadline), or +inf when none remain.
  double NextEventTime() const {
    double next = std::numeric_limits<double>::infinity();
    for (const ReplicaSlot& s : slots_) {
      if (s.busy) {
        next = std::min(next, s.busy_until);
      }
      if (s.warming) {
        next = std::min(next, s.warm_until);
      }
    }
    if (next_arrival_ < arrivals_.size()) {
      next = std::min(next, arrivals_[next_arrival_].arrival_us);
    }
    if (next_fault_ < options_.faults.events.size()) {
      next = std::min(next, options_.faults.events[next_fault_].time_us);
    }
    if (!pending_.empty()) {
      next = std::min(next, std::get<0>(*pending_.begin()));
    }
    if (options_.hedge_queue_wait_us > 0.0) {
      for (const auto& [id, t] : track_) {
        next = std::min(next, HedgeDeadline(t));
      }
    }
    return next;
  }

  ClusterReport Finish() {
    // Conservation: every tracked request ended exactly one way.
    for (const auto& [id, t] : track_) {
      COMET_CHECK(t.done != t.lost)
          << "request " << id << " ended " << (t.done ? "both" : "neither")
          << " completed and lost";
    }
    COMET_CHECK(pending_.empty() && backlog_.empty());

    // Aggregate the per-replica runs: archived incarnations first, then the
    // live (or dead-but-final) incarnation of each slot.
    RunTotals all;
    for (int r = 0; r < num_replicas_; ++r) {
      RunTotals& totals = slot(r).archive;
      totals.Append(server(r).View());
      all.Append(totals.View());
      report_.per_replica_completed.push_back(
          static_cast<int64_t>(totals.completed.size()));
      report_.per_replica_iterations.push_back(totals.iterations);
    }
    report_.completed = std::move(all.completed);
    report_.iterations = all.iterations;
    report_.batched_tokens = all.batched_tokens;
    report_.padding_tokens = all.padding_tokens;
    report_.promotions = all.promotions;
    report_.retirements = all.retirements;
    report_.replicated_rows = all.replicated_rows;
    report_.sim_duration_us = now_;
    if (now_ > 0.0) {
      report_.throughput_tokens_per_s =
          static_cast<double>(report_.batched_tokens) / (now_ / 1e6);
    }
    if (health_on_) {
      report_.breaker_opens = health_.total_opens();
      report_.probes = health_.total_probes();
    }
    if (tel_) {
      PublishMetrics();
    }

    std::sort(report_.completed.begin(), report_.completed.end(),
              [](const RequestRecord& a, const RequestRecord& b) {
                return a.id < b.id;
              });
    // Recovery-plane annotations (not digested: retries/hedges change
    // latency, never bits).
    for (RequestRecord& rec : report_.completed) {
      const Track& t = track_.at(rec.id);
      rec.retries = t.attempts > 0 ? t.attempts - 1 : 0;
      rec.hedged = t.hedged;
    }
    const int64_t lost =
        report_.shed + report_.failed_in_flight + report_.retries_exhausted;
    COMET_CHECK_EQ(report_.offered,
                   static_cast<int64_t>(report_.completed.size()) + lost)
        << "cluster accounting is not conservative";

    report_.queue_wait_us = SummarizeLatency(all.queue_waits);
    report_.ttft_us = SummarizeLatency(all.ttfts);
    report_.itl_us = SummarizeLatency(all.itls);
    report_.e2e_us = SummarizeLatency(all.e2es);
    const CompletionSummary summary =
        SummarizeCompletions(report_.completed, lost, options_.server.slo);
    report_.combined_digest = summary.combined_digest;
    report_.slo_attainment = summary.slo_attainment;
    report_.slo_violations = summary.slo_violations;
    return std::move(report_);
  }

  // ---- helpers ----

  MoeServer& server(int r) const {
    return *cluster_.replicas_[static_cast<size_t>(r)];
  }
  ReplicaSlot& slot(int r) { return slots_[static_cast<size_t>(r)]; }
  const ReplicaSlot& slot(int r) const {
    return slots_[static_cast<size_t>(r)];
  }

  std::vector<int64_t> Loads() const {
    std::vector<int64_t> v(static_cast<size_t>(num_replicas_), 0);
    for (int r = 0; r < num_replicas_; ++r) {
      v[static_cast<size_t>(r)] = server(r).LoadTokens();
    }
    return v;
  }

  int64_t GlobalLoad() const {
    int64_t total = 0;
    for (int r = 0; r < num_replicas_; ++r) {
      if (slot(r).alive) {
        total += server(r).LoadTokens();
      }
    }
    return total;
  }

  // What every placement policy actually sees: accepting AND (when health is
  // on) allowed by the replica's circuit breaker.
  std::vector<bool> Eligibility() const {
    std::vector<bool> e(static_cast<size_t>(num_replicas_), false);
    for (int r = 0; r < num_replicas_; ++r) {
      e[static_cast<size_t>(r)] =
          slot(r).accepting && (!health_on_ || health_.AllowDispatch(r, now_));
    }
    return e;
  }

  // When `t` is due its one hedge copy, or +inf if it never will be. Both the
  // hedge phase and the clock advance read this one expression: a deadline
  // computed as a now - dispatched_us difference can disagree with
  // dispatched_us + wait by one ulp, and a deadline the clock can land on but
  // the hedge phase never satisfies livelocks the loop.
  double HedgeDeadline(const Track& t) const {
    if (t.done || t.lost || t.hedged || t.copies.size() != 1 ||
        t.dispatched_us < 0.0) {
      return std::numeric_limits<double>::infinity();
    }
    return t.dispatched_us + options_.hedge_queue_wait_us;
  }

  // Records one dispatcher instant at now (telemetry on only).
  void RecordEvent(obs::SpanKind kind, int64_t id, double value,
                   int replica = -1) {
    if (tel_) {
      cluster_.cluster_events_.Record(kind, now_, now_,
                                      static_cast<uint64_t>(id), value,
                                      replica);
    }
  }

  // Appends one decision about `t`, stamped at now, to the dispatch log (when
  // recorded): a dispatch, a dispatch-level shed, or a hedge.
  void LogDecision(const Track& t, DispatchDecision decision) {
    if (!options_.record_dispatch_log) {
      return;
    }
    decision.request_id = t.spec.id;
    decision.session = t.spec.session;
    decision.time_us = now_;
    report_.dispatch_log.push_back(decision);
  }

  // Schedules the next backoff retry for a track whose last copy failed, or
  // exhausts its budget. Deterministic: the jitter draw comes from the
  // dedicated retry stream, consumed in the (deterministic) event order.
  void ScheduleRetry(Track& t) {
    if (t.attempts - 1 >= options_.retry_budget) {
      ++report_.retries_exhausted;
      t.lost = true;
      return;
    }
    const double jitter =
        1.0 + options_.retry_jitter_frac * retry_rng_.NextDouble();
    const double delay = options_.retry_backoff_us *
                         std::pow(2.0, static_cast<double>(t.attempts - 1)) *
                         jitter;
    pending_.emplace(now_ + delay, pending_seq_++, t.spec.id);
  }

  // Offers one copy of `t` to replica `pick`'s admission queue. Handles the
  // shed-oldest eviction: the evicted request loses that copy, and losing its
  // LAST copy is a terminal shed (admission control, not a failure --
  // evictions are never retried, matching the single-server semantics).
  bool OfferTo(int pick, Track& t) {
    const AdmissionQueue::Admit admit = server(pick).Offer(t.spec);
    if (admit.evicted.has_value()) {
      Track& ev = track_.at(admit.evicted->id);
      COMET_CHECK(!ev.done && !ev.lost);
      std::erase(ev.copies, pick);
      if (ev.copies.empty()) {
        ++report_.shed;
        ev.lost = true;
      }
    }
    if (!admit.admitted) {
      return false;
    }
    t.copies.push_back(pick);
    return true;
  }

  // One PRIMARY copy through the placement policy (arrival, kRedispatch
  // recovery, or backoff retry). A miss or queue refusal is terminal for
  // arrivals/redispatches (shed / failed_in_flight) but consumes-and-
  // reschedules for backoff retries, so a retried request keeps retrying until
  // it lands or its budget runs out.
  void DispatchOne(Track& t, bool redispatch, bool retry) {
    DispatchDecision decision;
    const std::vector<int64_t> load_now = Loads();
    const std::vector<bool> elig = Eligibility();
    const int pick = dispatcher_.Pick(t.spec, load_now, elig, &decision);
    decision.redispatch = redispatch;
    decision.retry = retry;
    bool admitted = false;
    if (pick >= 0) {
      ++report_.dispatched;
      if (redispatch) {
        ++report_.redispatched;
      }
      const bool probe =
          health_on_ && health_.state(pick, now_) == BreakerState::kHalfOpen;
      admitted = OfferTo(pick, t);
      if (admitted) {
        t.dispatched_us = now_;
        if (probe) {
          health_.OnProbeDispatched(pick, now_);
          decision.probe = true;
        }
        RecordEvent(redispatch ? obs::SpanKind::kRedispatch
                               : obs::SpanKind::kDispatch,
                    t.spec.id, static_cast<double>(t.attempts), pick);
      }
    }
    if (!admitted) {
      if (retry) {
        ScheduleRetry(t);
      } else if (pick < 0 && redispatch) {
        ++report_.failed_in_flight;
        t.lost = true;
      } else {
        ++report_.shed;
        t.lost = true;
      }
    }
    LogDecision(t, decision);
  }

  // Replica death: accounts it, opens its breaker, drains its in-flight
  // copies. A drained request that still has a copy elsewhere (hedge) just
  // loses this one; losing the LAST copy goes through the InFlightPolicy.
  void Die(int r, bool corrupted) {
    ReplicaSlot& s = slot(r);
    s.alive = false;
    s.accepting = false;
    s.warming = false;
    ++report_.replica_failures;
    RecordEvent(obs::SpanKind::kReplicaDeath, r, corrupted ? 1.0 : 0.0, r);
    if (corrupted) {
      ++report_.corruptions_detected;
    }
    dispatcher_.ForgetReplica(r);
    if (health_on_) {
      health_.ForceOpen(r, now_);
    }
    for (const RequestSpec& spec : server(r).DrainInFlight()) {
      Track& t = track_.at(spec.id);
      COMET_CHECK(!t.done && !t.lost);
      std::erase(t.copies, r);
      if (!t.copies.empty()) {
        continue;  // the hedge (or primary) copy lives on elsewhere
      }
      switch (options_.in_flight) {
        case InFlightPolicy::kRedispatch:
          backlog_.push_back(spec.id);
          break;
        case InFlightPolicy::kCountAsViolation:
          ++report_.failed_in_flight;
          t.lost = true;
          break;
        case InFlightPolicy::kRetryBackoff:
          ScheduleRetry(t);
          break;
      }
    }
  }

  // Observes replica r's newly completed requests. The FIRST observed
  // completion of a request wins (observation order is deterministic:
  // retirement order within a replica, replica index order across them);
  // every other copy is cancelled wherever it is and its executed tokens
  // become wasted_tokens.
  void HarvestCompletions(int r) {
    ReplicaSlot& s = slot(r);
    const RunView view = server(r).View();
    while (s.observed < view.completed.size()) {
      const RequestRecord& rec = view.completed[s.observed];
      ++s.observed;
      Track& t = track_.at(rec.id);
      COMET_CHECK(!t.done) << "request " << rec.id << " completed twice";
      COMET_CHECK(!t.lost) << "request " << rec.id << " completed after loss";
      t.done = true;
      if (t.hedge_replica == r) {
        ++report_.hedge_wins;
        RecordEvent(obs::SpanKind::kHedgeWin, rec.id, 0.0, r);
      }
      for (const int other : t.copies) {
        if (other == r) {
          continue;
        }
        const MoeServer::CancelResult cancel =
            server(other).CancelRequest(rec.id);
        if (cancel.found) {
          report_.wasted_tokens += cancel.executed_tokens;
        }
      }
      t.copies.assign(1, r);
      if (health_on_) {
        health_.ObserveSuccess(r, now_);
      }
    }
  }

  // Dispatcher metrics, set once from the report's (already-exact) totals:
  // the dispatcher is single-threaded, so there is nothing to sample mid-run
  // that the final values would not capture.
  void PublishMetrics() {
    const obs::ClusterMetrics& m = cluster_.cluster_metrics_;
    const auto set = [](obs::Counter* c, int64_t v) {
      c->Reset();
      c->Add(static_cast<uint64_t>(v));
    };
    set(m.dispatches, report_.dispatched);
    set(m.redispatches, report_.redispatched);
    set(m.retries, report_.retries);
    set(m.hedges, report_.hedged);
    set(m.hedge_wins, report_.hedge_wins);
    set(m.sheds, report_.shed);
    set(m.wasted_tokens, report_.wasted_tokens);
    set(m.faults_injected, static_cast<int64_t>(next_fault_));
    set(m.replica_failures, report_.replica_failures);
    set(m.replicas_recovered, report_.replicas_recovered);
    set(m.breaker_opens, report_.breaker_opens);
    set(m.breaker_probes, report_.probes);
  }

  MoeCluster& cluster_;
  const ClusterOptions& options_;
  const std::vector<RequestSpec>& arrivals_;
  const int num_replicas_;
  const bool health_on_;
  const bool tel_;
  Dispatcher dispatcher_;
  ReplicaHealth health_;
  Rng retry_rng_;
  std::vector<ReplicaSlot> slots_;
  std::map<int64_t, Track> track_;
  // Due-time-ordered backoff retries; seq breaks ties deterministically.
  std::set<std::tuple<double, int64_t, int64_t>> pending_;  // (ready, seq, id)
  int64_t pending_seq_ = 0;
  std::deque<int64_t> backlog_;  // kRedispatch: re-dispatch now, in order
  ClusterReport report_;
  double now_ = 0.0;
  size_t next_arrival_ = 0;
  size_t next_fault_ = 0;
};

ClusterReport MoeCluster::Run(const std::vector<RequestSpec>& arrivals) {
  for (size_t i = 1; i < arrivals.size(); ++i) {
    COMET_CHECK_GE(arrivals[i].arrival_us, arrivals[i - 1].arrival_us)
        << "arrivals must be sorted by arrival_us";
  }
  for (auto& server : replicas_) {
    server->BeginRun();
  }
  cluster_registry_.ResetValues();
  const obs::TelemetryOptions& telemetry = options_.server.telemetry;
  if (telemetry.enabled &&
      cluster_events_.capacity() != telemetry.span_capacity) {
    cluster_events_.Reserve(telemetry.span_capacity);
  } else {
    cluster_events_.Clear();
  }
  for (auto& archive : archived_spans_) {
    archive.clear();
  }
  return ClusterRun(*this, arrivals).Execute();
}

ClusterReport MoeCluster::Run(LoadGenerator& loadgen) {
  const std::vector<RequestSpec> arrivals = loadgen.GenerateAll();
  return Run(arrivals);
}

std::vector<obs::ReplicaTelemetry> MoeCluster::TelemetryViews() const {
  std::vector<obs::ReplicaTelemetry> views;
  views.reserve(replicas_.size() + 1);
  obs::ReplicaTelemetry cluster_view;
  cluster_view.name = "cluster";
  cluster_view.replica = -1;
  cluster_view.live = &cluster_events_;
  cluster_view.registry = &cluster_registry_;
  views.push_back(cluster_view);
  for (int r = 0; r < num_replicas(); ++r) {
    obs::ReplicaTelemetry view = replicas_[static_cast<size_t>(r)]->TelemetryView();
    view.name = "replica " + std::to_string(r);
    view.replica = r;
    view.archived = &archived_spans_[static_cast<size_t>(r)];
    views.push_back(view);
  }
  return views;
}

std::string MoeCluster::ExportChromeTrace() const {
  const std::vector<obs::ReplicaTelemetry> views = TelemetryViews();
  return obs::ToChromeTraceJson(views);
}

std::string MoeCluster::ExportPrometheusText() const {
  const std::vector<obs::ReplicaTelemetry> views = TelemetryViews();
  return obs::ToPrometheusText(views);
}

std::string MoeCluster::ExportTelemetryJsonl() const {
  const std::vector<obs::ReplicaTelemetry> views = TelemetryViews();
  return obs::ToJsonl(views);
}

}  // namespace comet
