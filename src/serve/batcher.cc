#include "serve/batcher.h"

#include <algorithm>

#include "util/check.h"

namespace comet {

ContinuousBatcher::ContinuousBatcher(BatcherOptions options)
    : options_(options) {
  COMET_CHECK_GT(options_.token_budget, 0);
  COMET_CHECK_GE(options_.max_active, 0);
}

void ContinuousBatcher::Reserve(int64_t expected_requests) {
  COMET_CHECK_GE(expected_requests, 0);
  slots_.reserve(static_cast<size_t>(expected_requests));
  live_.reserve(static_cast<size_t>(expected_requests));
}

bool ContinuousBatcher::CanAdmit() const {
  return options_.max_active == 0 || live_count() < options_.max_active;
}

int64_t ContinuousBatcher::Admit(const RequestSpec& spec) {
  COMET_CHECK(CanAdmit()) << "batcher at max_active=" << options_.max_active;
  COMET_CHECK_GT(spec.prompt_tokens, 0);
  COMET_CHECK_GE(spec.decode_tokens, 0);
  const int64_t slot = static_cast<int64_t>(slots_.size());
  slots_.push_back(Slot{spec});
  live_.push_back(slot);
  return slot;
}

void ContinuousBatcher::PackInto(BatchPlan* out) {
  BatchPlan& plan = *out;
  plan.entries.clear();
  plan.iteration = iteration_++;
  int64_t budget = options_.token_budget;

  // Decode class: one token per in-flight request, admission order.
  for (int64_t slot : live_) {
    if (budget == 0) {
      break;
    }
    const Slot& s = slots_[static_cast<size_t>(slot)];
    if (s.prefill_done < s.spec.prompt_tokens ||
        s.decode_done >= s.spec.decode_tokens) {
      continue;
    }
    plan.entries.push_back(BatchEntry{
        .slot = slot,
        .request_id = s.spec.id,
        .start_pos = s.spec.prompt_tokens + s.decode_done,
        .num_tokens = 1,
        .decode = true,
    });
    --budget;
  }

  // Prefill class: chunked, admission order, strict FIFO -- the loop stops
  // at budget exhaustion rather than skipping ahead to a later prompt that
  // would happen to fit.
  for (int64_t slot : live_) {
    if (budget == 0) {
      break;
    }
    const Slot& s = slots_[static_cast<size_t>(slot)];
    if (s.prefill_done >= s.spec.prompt_tokens) {
      continue;
    }
    const int64_t chunk =
        std::min(s.spec.prompt_tokens - s.prefill_done, budget);
    plan.entries.push_back(BatchEntry{
        .slot = slot,
        .request_id = s.spec.id,
        .start_pos = s.prefill_done,
        .num_tokens = chunk,
        .decode = false,
    });
    budget -= chunk;
  }
}

void ContinuousBatcher::CompleteInto(const BatchPlan& plan,
                                     std::vector<int64_t>* out) {
  for (const BatchEntry& e : plan.entries) {
    COMET_CHECK_GE(e.slot, 0);
    COMET_CHECK_LT(e.slot, static_cast<int64_t>(slots_.size()));
    Slot& s = slots_[static_cast<size_t>(e.slot)];
    COMET_CHECK(!s.finished) << "request " << s.spec.id << " already finished";
    if (e.decode) {
      COMET_CHECK_EQ(e.start_pos, s.spec.prompt_tokens + s.decode_done);
      COMET_CHECK_EQ(e.num_tokens, 1);
      ++s.decode_done;
    } else {
      COMET_CHECK_EQ(e.start_pos, s.prefill_done);
      s.prefill_done += e.num_tokens;
      COMET_CHECK_LE(s.prefill_done, s.spec.prompt_tokens);
    }
  }
  std::vector<int64_t>& finished = *out;
  finished.clear();
  for (const BatchEntry& e : plan.entries) {
    Slot& s = slots_[static_cast<size_t>(e.slot)];
    if (!s.finished && SlotFinished(s)) {
      s.finished = true;
      finished.push_back(e.slot);
    }
  }
  std::sort(finished.begin(), finished.end());
  if (!finished.empty()) {
    std::erase_if(live_, [&](int64_t slot) {
      return slots_[static_cast<size_t>(slot)].finished;
    });
  }
}

void ContinuousBatcher::Cancel(int64_t slot) {
  COMET_CHECK_GE(slot, 0);
  COMET_CHECK_LT(slot, static_cast<int64_t>(slots_.size()));
  Slot& s = slots_[static_cast<size_t>(slot)];
  COMET_CHECK(!s.finished) << "cancel of finished request " << s.spec.id;
  s.finished = true;  // terminal: never packed again
  std::erase(live_, slot);
}

bool ContinuousBatcher::SlotFinished(const Slot& s) {
  return s.prefill_done == s.spec.prompt_tokens &&
         s.decode_done == s.spec.decode_tokens;
}

const ContinuousBatcher::Slot& ContinuousBatcher::At(int64_t slot) const {
  COMET_CHECK_GE(slot, 0);
  COMET_CHECK_LT(slot, static_cast<int64_t>(slots_.size()));
  return slots_[static_cast<size_t>(slot)];
}

const RequestSpec& ContinuousBatcher::spec(int64_t slot) const {
  return At(slot).spec;
}

int64_t ContinuousBatcher::prefill_done(int64_t slot) const {
  return At(slot).prefill_done;
}

int64_t ContinuousBatcher::decode_done(int64_t slot) const {
  return At(slot).decode_done;
}

bool ContinuousBatcher::finished(int64_t slot) const {
  return At(slot).finished;
}

}  // namespace comet
