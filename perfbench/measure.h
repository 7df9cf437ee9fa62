// Outside-in measurement helpers of musebench: clocks, peak RSS, order
// statistics, the paced source's recomputed Poisson schedule, and the
// benchmark's own span recorder. Nothing here reaches into the runtime; it
// only uses public entry points and seams.

#ifndef MUSE_PERFBENCH_MEASURE_H_
#define MUSE_PERFBENCH_MEASURE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/cep/event.h"
#include "src/dist/deployment.h"
#include "src/rt/runtime.h"

namespace musebench {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start);
/// CPU seconds consumed by every thread of this process so far.
double ProcessCpuSeconds();
/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) {
  return Quantile(std::move(v), 0.5);
}

/// Records a wall-clock timestamp each time the runtime's source-driver
/// thread polls the adapt seam (RtOptions::adapt), never asking for a
/// migration. The driver polls before the first event at or past each
/// adapt_check_interval_ms step of trace time, i.e. right after it injected
/// the preceding event — which is what SourceSchedule::LagMs needs.
class SourceProbe : public muse::rt::AdaptDriver {
 public:
  struct Poll {
    uint64_t trace_ms;
    Clock::time_point at;
  };

  explicit SourceProbe(size_t expected_polls) { polls_.reserve(expected_polls); }

  const muse::Deployment* OnDriftReport(
      const muse::obs::RateDriftDetector::Report& report,
      uint64_t trace_now_ms) override {
    (void)report;
    polls_.push_back({trace_now_ms, Clock::now()});
    return nullptr;
  }

  const std::vector<Poll>& polls() const { return polls_; }

 private:
  std::vector<Poll> polls_;
};

/// The paced source's Poisson schedule, recomputed from the same
/// Rng(source_seed) draws the runtime's driver makes: one exponential
/// inter-arrival per injected event, none for the events it skips (origin
/// outside the deployment, or no primitive task consuming the type).
class SourceSchedule {
 public:
  SourceSchedule(const muse::Deployment& dep,
                 const std::vector<muse::Event>& trace, double rate_eps,
                 uint64_t source_seed);

  /// How far each polled injection trailed its due time, in ms. The driver's
  /// own start instant is not observable from outside, so it is taken as
  /// the poll that ran earliest relative to its schedule; every sample is
  /// then the lag beyond that best case (an under-estimate by at most the
  /// best poll's own wake-up delay).
  std::vector<double> LagMs(const std::vector<SourceProbe::Poll>& polls) const;

 private:
  std::vector<double> due_s_;
  /// Trace times, for mapping a poll's trace_ms to its trace index.
  std::vector<uint64_t> times_;
  /// injected_before_[i] = injected events before trace index i.
  std::vector<uint32_t> injected_before_;
};

/// The benchmark's own spans: one per layer call, with its parent, kept in
/// memory until the run ends. Disabled recorders cost one branch per call.
class SpanRecorder {
 public:
  struct Span {
    std::string layer;
    int parent;
    double start_s;
    double end_s;
  };

  explicit SpanRecorder(bool enabled);

  bool enabled() const { return enabled_; }
  Clock::time_point epoch() const { return epoch_; }
  int Begin(const std::string& layer, int parent = -1);
  void End(int id);
  /// A span whose interval was measured elsewhere (e.g. a runtime phase
  /// bracketed by probe polls), given in seconds since the recorder's epoch.
  void Add(const std::string& layer, int parent, double start_s,
           double end_s);
  double Now() const { return SecondsSince(epoch_); }

  /// Self time per layer: each span's duration minus the part of it its
  /// children cover, summed over spans of the same layer, in first-seen
  /// layer order.
  std::vector<std::pair<std::string, double>> SelfTimes() const;

 private:
  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

}  // namespace musebench

#endif  // MUSE_PERFBENCH_MEASURE_H_
