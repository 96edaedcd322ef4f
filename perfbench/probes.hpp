#pragma once
/// \file probes.hpp
/// \brief Per-layer measurements of the traced run.
///
/// Each probe times one layer of the simulator through its public
/// functions, on the inputs the workloads use, and reports a count,
/// a rate or a host time per unit of work.  The traced run of every
/// workload runs the same probes, so every per-layer metric is printed
/// on every workload.

#include <cstdint>
#include <string>
#include <vector>

#include "spans.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Peak resident set of this process so far, in MB.
double peak_rss_mb();

/// Run every layer probe with `seed`'s inputs, spans into `tracer`.
/// Throws if a probed call returns a wrong or unverified result.
std::vector<Metric> run_layer_probes(std::uint64_t seed, Tracer* tracer);

}  // namespace perfbench
