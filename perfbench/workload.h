// The three workloads of musebench: a fixed MuSE instance (network and
// queries) per workload, and an event trace drawn from the run's --seed.
//
// The instance is fixed so that planner-bound numbers (setup time,
// transmission ratio) compare like with like across seeds; the seed drives
// everything the deployed system consumes at run time — the trace's
// arrivals and attributes and the paced source's Poisson draws.

#ifndef MUSE_PERFBENCH_WORKLOAD_H_
#define MUSE_PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/cep/event.h"
#include "src/cep/query.h"
#include "src/net/network.h"
#include "src/net/network_gen.h"
#include "src/workload/query_gen.h"

namespace musebench {

struct WorkloadSpec {
  const char* name;
  /// One line: what the workload stresses, and why it exists.
  const char* why;

  uint64_t instance_seed;
  muse::NetworkGenOptions net;
  double min_selectivity;
  double max_selectivity;
  muse::QueryGenOptions queries;

  /// Trace shape: attribute cardinality (the equality predicates' real
  /// selectivity is ~1/cardinality, so it sets the matches per event) and
  /// the target trace length.
  int64_t attr_cardinality;
  uint64_t trace_events;

  /// Open-loop Poisson rate of the paced phase (events/s), set below the
  /// saturate-phase throughput on this machine class.
  double paced_eps;

  /// Setup (catalogs + plan + deploy) repetitions; setup_s is the median.
  int setup_reps;
};

/// The workload named `name`, or null.
const WorkloadSpec* FindWorkload(const std::string& name);

struct Instance {
  muse::Network net{1, 1};
  std::vector<muse::Query> workload;
};

Instance MakeInstance(const WorkloadSpec& spec);

/// The global trace for `seed`: ~spec.trace_events events, its duration
/// derived from the network's total rate.
std::vector<muse::Event> MakeTrace(const WorkloadSpec& spec,
                                   const muse::Network& net, uint64_t seed);

}  // namespace musebench

#endif  // MUSE_PERFBENCH_WORKLOAD_H_
