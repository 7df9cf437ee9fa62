#include "perfbench/workload.h"

#include <cmath>

#include "src/common/rng.h"
#include "src/net/trace.h"
#include "src/workload/selectivity_model.h"

namespace musebench {
namespace {

/// The 8-node / 6-type / 3-query shape (and instance seed) of
/// bench_rt_throughput, with a 5 s window.
WorkloadSpec SmallShape(const char* name, const char* why,
                        int64_t attr_cardinality, uint64_t trace_events,
                        double paced_eps) {
  WorkloadSpec s{};
  s.name = name;
  s.why = why;
  s.instance_seed = 808;
  s.net.num_nodes = 8;
  s.net.num_types = 6;
  s.net.max_rate = 10;
  s.min_selectivity = 0.05;
  s.max_selectivity = 0.3;
  s.queries.num_queries = 3;
  s.queries.avg_primitives = 4;
  s.queries.num_types = 6;
  s.queries.window_ms = 5000;
  s.attr_cardinality = attr_cardinality;
  s.trace_events = trace_events;
  s.paced_eps = paced_eps;
  s.setup_reps = 25;
  return s;
}

/// The paper's default configuration (§7.1): 20 nodes, 15 types, event-node
/// ratio 0.5, rate skew 1.5, 5 queries x 6 primitives, selectivities
/// U[0.01, 0.2]. All of those are the generators' defaults.
WorkloadSpec PaperDefault() {
  WorkloadSpec s{};
  s.name = "plan";
  s.why =
      "planner-bound: the paper's default instance, planned at the default "
      "thread count; ~200 tasks on 20 nodes over 3 shards, skewed rates";
  s.instance_seed = 3;
  s.min_selectivity = 0.01;
  s.max_selectivity = 0.2;
  s.attr_cardinality = 1000;
  s.trace_events = 300'000;
  // A quarter of calm-host saturation: a paced phase near saturation turns
  // every slowdown of the shared host into queueing delay.
  s.paced_eps = 50'000;
  s.setup_reps = 5;
  return s;
}

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      SmallShape("forward",
                 "forwarding-bound: ~0.02 matches and ~0.85 cross-node "
                 "frames per event; time goes to transport, wire codec and "
                 "NodeRuntime admission",
                 /*attr_cardinality=*/100, /*trace_events=*/200'000,
                 /*paced_eps=*/100'000),
      SmallShape("join",
                 "join-bound: ~1.1 matches and ~4 frames per event; time "
                 "goes to evaluator buffers, join probes and sink dedup",
                 /*attr_cardinality=*/30, /*trace_events=*/80'000,
                 /*paced_eps=*/40'000),
      PaperDefault(),
  };
  return kWorkloads;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& s : Workloads()) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

Instance MakeInstance(const WorkloadSpec& spec) {
  muse::Rng rng(spec.instance_seed);
  Instance inst;
  inst.net = muse::MakeRandomNetwork(spec.net, rng);
  muse::SelectivityModel model(spec.net.num_types, spec.min_selectivity,
                               spec.max_selectivity, rng);
  inst.workload = muse::GenerateWorkload(spec.queries, model, rng);
  return inst;
}

std::vector<muse::Event> MakeTrace(const WorkloadSpec& spec,
                                   const muse::Network& net, uint64_t seed) {
  double events_per_s = 0;
  for (int t = 0; t < net.num_types(); ++t) {
    events_per_s += net.GlobalRate(static_cast<muse::EventTypeId>(t));
  }
  muse::TraceOptions opts;
  opts.duration_ms = static_cast<uint64_t>(
      std::ceil(static_cast<double>(spec.trace_events) * 1000.0 /
                events_per_s));
  for (int a = 0; a < muse::kNumAttrs; ++a) {
    opts.attr_cardinality[a] = spec.attr_cardinality;
  }
  // The cap truncates node by node, so it must never bind: it only guards
  // against a mis-sized spec.
  opts.max_events = spec.trace_events * 2;
  muse::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 1);
  return muse::GenerateGlobalTrace(net, opts, rng);
}

}  // namespace musebench
