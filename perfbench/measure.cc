#include "perfbench/measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <ctime>

#include "src/common/rng.h"

namespace musebench {

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

SourceSchedule::SourceSchedule(const muse::Deployment& dep,
                               const std::vector<muse::Event>& trace,
                               double rate_eps, uint64_t source_seed) {
  muse::NodeId max_node = 0;
  for (const muse::Task& t : dep.tasks()) max_node = std::max(max_node, t.node);
  const muse::NodeId num_nodes = max_node + 1;

  muse::Rng rng(source_seed);
  double next_arrival_s = 0;
  times_.reserve(trace.size());
  injected_before_.reserve(trace.size() + 1);
  for (const muse::Event& e : trace) {
    times_.push_back(e.time);
    injected_before_.push_back(static_cast<uint32_t>(due_s_.size()));
    if (e.origin >= num_nodes ||
        dep.PrimitiveTasksFor(e.origin, e.type).empty()) {
      continue;
    }
    next_arrival_s += rng.Exponential(rate_eps);
    due_s_.push_back(next_arrival_s);
  }
  injected_before_.push_back(static_cast<uint32_t>(due_s_.size()));
}

std::vector<double> SourceSchedule::LagMs(
    const std::vector<SourceProbe::Poll>& polls) const {
  if (polls.empty()) return {};
  // offset = poll time (relative to the first poll) minus the due time of
  // the injection the poll follows.
  std::vector<double> offsets;
  offsets.reserve(polls.size());
  const Clock::time_point base = polls.front().at;
  for (const SourceProbe::Poll& p : polls) {
    const size_t idx = static_cast<size_t>(
        std::lower_bound(times_.begin(), times_.end(), p.trace_ms) -
        times_.begin());
    const uint32_t before = injected_before_[idx];
    if (before == 0) continue;
    offsets.push_back(std::chrono::duration<double>(p.at - base).count() -
                      due_s_[before - 1]);
  }
  if (offsets.empty()) return {};
  const double best = *std::min_element(offsets.begin(), offsets.end());
  for (double& o : offsets) o = (o - best) * 1000.0;
  return offsets;
}

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), epoch_(Clock::now()) {}

int SpanRecorder::Begin(const std::string& layer, int parent) {
  if (!enabled_) return -1;
  const double now = Now();
  spans_.push_back({layer, parent, now, now});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanRecorder::End(int id) {
  if (!enabled_ || id < 0) return;
  spans_[static_cast<size_t>(id)].end_s = Now();
}

void SpanRecorder::Add(const std::string& layer, int parent, double start_s,
                       double end_s) {
  if (!enabled_) return;
  spans_.push_back({layer, parent, start_s, std::max(start_s, end_s)});
}

std::vector<std::pair<std::string, double>> SpanRecorder::SelfTimes() const {
  std::vector<std::pair<std::string, double>> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<double, double>> kids;
    for (const Span& c : spans_) {
      if (c.parent == static_cast<int>(i)) {
        kids.emplace_back(std::max(c.start_s, s.start_s),
                          std::min(c.end_s, s.end_s));
      }
    }
    std::sort(kids.begin(), kids.end());
    double covered = 0;
    double reach = s.start_s;
    for (const auto& [a, b] : kids) {
      const double from = std::max(a, reach);
      if (b > from) {
        covered += b - from;
        reach = b;
      }
    }
    const double self = std::max(0.0, s.end_s - s.start_s - covered);
    auto it = std::find_if(out.begin(), out.end(),
                           [&](const auto& p) { return p.first == s.layer; });
    if (it == out.end()) {
      out.emplace_back(s.layer, self);
    } else {
      it->second += self;
    }
  }
  return out;
}

}  // namespace musebench
