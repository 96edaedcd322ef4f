#pragma once
/// \file workloads.hpp
/// \brief The benchmark's four workloads and the inputs they generate.
///
/// A workload is a list of *slots* (independently timed cells; one slot
/// except on `pingpong_functional`, whose 84 grid cells are timed one
/// by one) and a *unit*: one call into the simulator's public API that
/// produces a deterministic virtual-time result.  Every unit returns
/// the host seconds to time, the simulated messages they stand for and
/// a digest of the virtual-time output, which main.cpp checks.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "minimpi/base/perf.hpp"
#include "minimpi/runtime/trace.hpp"
#include "ncsend/experiment/plan.hpp"
#include "ncsend/harness.hpp"
#include "ncsend/patterns/pattern.hpp"
#include "spans.hpp"

namespace perfbench {

/// What one unit produced.
struct UnitOutcome {
  double seconds = 0.0;        ///< timed host seconds
  double hz = 0.0;             ///< core clock read around it (cycles.hpp)
  double setup_seconds = -1.0; ///< set-up timed inside the unit (< 0: none)
  std::uint64_t messages = 0;  ///< simulated messages `seconds` covers
  std::string digest;          ///< virtual-time digest of the output
  bool verified = false;       ///< the simulator's own payload check held
  minimpi::PerfCounters counters;  ///< runtime counters of the unit
  /// Further (pinned key, digest) pairs the unit's output must match.
  std::vector<std::pair<std::string, std::string>> cross_checks;
};

/// FNV-1a digest of a result's virtual-time statistics, payload size
/// and verification verdict, as 16 hex digits.
std::string digest_of(const ncsend::RunResult& r);

class Workload {
 public:
  virtual ~Workload() = default;

  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual std::size_t slot_count() const { return 1; }
  [[nodiscard]] virtual std::string slot_key(std::size_t) const {
    return "unit";
  }

  /// Generate the inputs from the seed: the set-up step `setup_s`
  /// times on the workloads whose units do not time their own.
  virtual void generate_inputs(Tracer* tracer) = 0;
  /// True if each unit times its own set-up step instead
  /// (`UnitOutcome::setup_seconds`).
  [[nodiscard]] virtual bool setup_in_unit() const { return false; }
  /// Hash of the generated inputs (same seed, same hash).
  [[nodiscard]] virtual std::string inputs_digest() const = 0;

  /// One unit of a slot, with runtime counters (and `log`, when
  /// non-null) attached.
  virtual UnitOutcome run_unit(std::size_t slot,
                               std::shared_ptr<minimpi::TraceLog> log,
                               Tracer* tracer) = 0;
};

const std::vector<std::string>& workload_names();
/// Throws std::invalid_argument for an unknown name.
std::unique_ptr<Workload> make_workload(std::string_view name,
                                        std::uint64_t seed);

// --- shared cell definitions (workloads and layer probes) ------------------

/// Ping-pongs per `pingpong_functional` cell.
inline constexpr int kPingpongReps = 2;

/// The ping-pong grid on skx at `kPingpongReps` reps: the paper's eight
/// schemes and the six extensions x layout axes "stride2" and "indexed4"
/// (seeded `indexed-blocks(4)`) x 8 KiB, 128 KiB, 4 MiB, every payload
/// moved.
ncsend::ExperimentPlan pingpong_grid(std::uint64_t seed);

// Every timed unit lasts tens of milliseconds, so that a run's fastest
// unit can fall between the host's bursts of contention; see README.md,
// "Why core cycles, and the fastest short unit".

/// Ranks of the allreduce cell.
inline constexpr int kAllreduceRanks = 128;
/// Reps per `allreduce_direct` unit: one fresh 128-rank universe, one
/// timed allreduce (32,512 messages).
inline constexpr int kAllreduceDirectReps = 1;
/// Reps each `allreduce_replay` unit interprets after compiling.
inline constexpr int kAllreduceReplayReps = 8;
/// Reps per `ring1k_direct` unit, and its rank count.
inline constexpr int kRingReps = 10;
inline constexpr int kRingRanks = 1024;

/// One modeled N-rank cell: pattern, base layout, scheme, options.
struct ModeledCell {
  std::unique_ptr<ncsend::CommPattern> pattern;
  ncsend::Layout layout;
  std::string scheme;
  minimpi::UniverseOptions opts;
  ncsend::HarnessConfig cfg;
};
/// `collective(allreduce:ring:128)`, 8 KiB stride-2 "vector type" on
/// skx, modeled, `reps` reps with sampled digest verification.
ModeledCell allreduce_cell(int reps);
/// A one-way ring over a seeded permutation of 1024 ranks, as a
/// `graph(1024:a>b...)` spec, with the same layout, scheme and options.
ModeledCell ring_cell(int reps, std::uint64_t seed);

}  // namespace perfbench
