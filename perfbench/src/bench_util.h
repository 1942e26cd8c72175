// Small helpers shared by the benchmark's workloads and replays: host
// clock, sample statistics, seed derivation, in-memory spans and a JSON
// writer. Everything here measures HOST time; simulated-clock values never
// pass through these types except as correctness checks.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

inline double SecondsSince(Clock::time_point a) {
  return std::chrono::duration<double>(Clock::now() - a).count();
}

// SplitMix64 of (seed, stream): every random stream of a workload derives
// from the one benchmark seed, so a new seed changes the streams and never
// the shapes.
inline uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL +
               0x94d049bb133111ebULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Linear-interpolated quantile of an unsorted sample (q in [0, 1]).
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double Mean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (const double v : values) {
    sum += v;
  }
  return sum / static_cast<double>(values.size());
}

// Value class of a reported number. Simulated-clock values are never
// metrics: they are correctness checks (see Checks in workloads.h).
enum class MetricClass {
  kWall,    // host wall-clock time or a rate derived from it
  kCount,   // a count or a ratio of counts
  kMemory,  // host resident memory
};

inline const char* MetricClassName(MetricClass c) {
  switch (c) {
    case MetricClass::kWall:
      return "wall";
    case MetricClass::kCount:
      return "count";
    case MetricClass::kMemory:
      return "memory";
  }
  return "?";
}

// One reported metric: the value plus the spread of the samples behind it.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  MetricClass cls = MetricClass::kWall;
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  size_t samples = 0;
};

// A metric whose value is `value` and whose spread comes from `samples`
// (for example a window throughput with its per-pass throughputs).
inline Metric MakeMetric(std::string name, double value, std::string unit,
                         MetricClass cls, const std::vector<double>& samples) {
  Metric m;
  m.name = std::move(name);
  m.value = value;
  m.unit = std::move(unit);
  m.cls = cls;
  if (samples.empty()) {
    m.median = m.q1 = m.q3 = value;
    m.samples = 1;
  } else {
    m.median = Quantile(samples, 0.5);
    m.q1 = Quantile(samples, 0.25);
    m.q3 = Quantile(samples, 0.75);
    m.samples = samples.size();
  }
  return m;
}

// Spans of the traced run. Kept in memory (reserved up front, so recording
// is a vector append) and written once at the end as Chrome-trace JSON.
//   parent:  the span whose interval contains this one (-1 = top level);
//   replays: for a replayed call the step itself makes, that step's span
//            (-1 otherwise). Replays run right after their step, so they are
//            attributed to it without being nested in its interval.
struct Span {
  const char* name = "";
  Clock::time_point start;
  Clock::time_point end;
  int parent = -1;
  int replays = -1;
  int run = 0;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(size_t reserve) { spans_.reserve(reserve); }

  int Begin(const char* name, int parent, int run, int replays = -1) {
    Span s;
    s.name = name;
    s.parent = parent;
    s.replays = replays;
    s.run = run;
    s.start = Clock::now();
    s.end = s.start;
    spans_.push_back(s);
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int id) { spans_[static_cast<size_t>(id)].end = Clock::now(); }

  // Records an already-measured interval.
  int Add(const char* name, Clock::time_point start, Clock::time_point end,
          int parent, int run, int replays = -1) {
    Span s;
    s.name = name;
    s.start = start;
    s.end = end;
    s.parent = parent;
    s.replays = replays;
    s.run = run;
    spans_.push_back(s);
    return static_cast<int>(spans_.size()) - 1;
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

// Minimal JSON emission: numbers with all 17 significant digits; a
// non-finite value (which JSON cannot spell) becomes null.
inline std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

inline std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// Exact text of a double (hex float): simulated values are compared
// bit-for-bit through this.
inline std::string ExactDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

inline std::string Hex64(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace perfbench
