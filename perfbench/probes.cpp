#include "probes.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <map>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "minimpi/datatype/pack.hpp"
#include "minimpi/net/cost_model.hpp"
#include "minimpi/runtime/comm.hpp"
#include "minimpi/runtime/plan_record.hpp"
#include "ncsend/collectives/collective.hpp"
#include "ncsend/experiment/executor.hpp"
#include "ncsend/experiment/plan.hpp"
#include "ncsend/plan/comm_plan.hpp"
#include "ncsend/plan/verify.hpp"
#include "ncsend/schemes/schemes.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace nc = ncsend;

/// Fastest of at least `min_reps` calls, repeated until `min_total`
/// seconds have been spent: every call does identical work, so the
/// spread between calls is host noise.
template <class Fn>
double fastest(Fn&& fn, int min_reps = 3, double min_total = 0.1) {
  double best = 0.0;
  double total = 0.0;
  for (int n = 0; n < min_reps || total < min_total; ++n) {
    const Clock::time_point t0 = Clock::now();
    fn();
    const double t = seconds_since(t0);
    best = n == 0 ? t : std::min(best, t);
    total += t;
  }
  return best;
}

void require(bool ok, const std::string& what) {
  if (!ok) throw std::runtime_error("probe: " + what);
}

/// Scheme legend name as a metric-name token: "vector type" ->
/// "vector_type", "packing(e)" -> "packing_e".
std::string token(std::string_view scheme) {
  std::string t;
  for (const char c : scheme) {
    if (c == ' ' || c == '(') t += '_';
    else if (c != ')') t += c;
  }
  return t;
}

// --- ncsend/plan + ncsend/collectives ---------------------------------------

/// The compile stages of the allreduce cell, one by one, then its
/// replay against a direct run.  Runs first, so the peak-RSS growth it
/// reports is the replay's own.
void plan_probes(Tracer* tracer, std::vector<Metric>& out) {
  const double rss0 = peak_rss_mb();
  const ModeledCell cell = allreduce_cell(kAllreduceReplayReps);

  minimpi::PerfCounters capture_counters;
  double capture_s = 0.0;
  {
    const ScopedSpan s(tracer, "ncsend/plan:capture");
    capture_s = fastest(
        [&] {
          minimpi::plan::Recorder rec(cell.pattern->nranks());
          minimpi::UniverseOptions opts = cell.opts;
          opts.plan_recorder = &rec;
          capture_counters = {};
          opts.perf = &capture_counters;
          nc::HarnessConfig cfg = cell.cfg;
          cfg.reps = 2;  // what compile_cell captures with per-rep flushing
          const nc::RunResult r = nc::run_pattern_experiment(
              opts, *cell.pattern, cell.scheme, cell.layout, cfg);
          require(r.data_checked && r.verified,
                  "capture run failed verification");
          require(!rec.uncompilable(), "capture is uncompilable");
        },
        3, 0.0);
  }

  nc::plan::CommPlan plan;
  {
    const ScopedSpan s(tracer, "ncsend/plan:compile_cell");
    plan = nc::plan::compile_cell(cell.opts, *cell.pattern, cell.scheme,
                                  cell.layout, cell.cfg);
  }
  require(plan.valid, "allreduce plan invalid: " + plan.invalid_reason);
  require(plan.captured_reps == 2 && capture_counters.messages % 2 == 0,
          "capture is not two whole reps");
  const double msgs_per_rep =
      static_cast<double>(capture_counters.messages / 2);

  double verify_s = 0.0;
  {
    const ScopedSpan s(tracer, "ncsend/plan:verify_plan");
    verify_s = fastest(
        [&] { require(nc::plan::verify_plan(plan).ok(), "verifier"); }, 3,
        0.0);
  }
  double selfcheck_s = 0.0;
  {
    const ScopedSpan s(tracer, "ncsend/plan:interpret");
    selfcheck_s = fastest(
        [&] {
          (void)nc::plan::detail::interpret(plan, plan.captured_reps,
                                            plan.captured_reps);
        },
        3, 0.0);
  }
  double actions = 0.0;
  for (const auto& rank : plan.programs)
    for (const auto& rep : rank) actions += static_cast<double>(rep.size());

  double replay_s = 0.0;
  {
    const ScopedSpan s(tracer, "ncsend/plan:replay");
    replay_s = fastest(
        [&] {
          const nc::RunResult r = plan.replay(kAllreduceReplayReps);
          require(r.data_checked && r.verified,
                  "replay lost the verification");
        },
        2, 0.0);
  }
  const double replay_rss = peak_rss_mb() - rss0;
  const double interpret_ns =
      replay_s / (kAllreduceReplayReps * msgs_per_rep) * 1e9;

  // Direct run of the same cell: the baseline of the replay speed-up
  // and the collective schedule's per-round cost.
  const ModeledCell direct = allreduce_cell(1);
  minimpi::PerfCounters direct_counters;
  minimpi::UniverseOptions dopts = direct.opts;
  dopts.perf = &direct_counters;
  double direct_s = 0.0;
  nc::RunResult dr;
  {
    const ScopedSpan s(tracer, "ncsend/collectives:run_pattern_experiment");
    direct_s = fastest(
        [&] {
          direct_counters = {};
          dr = nc::run_pattern_experiment(dopts, *direct.pattern,
                                          direct.scheme, direct.layout,
                                          direct.cfg);
        },
        3, 0.0);
  }
  require(digest_of(dr) == digest_of(plan.replay(1)),
          "direct and replayed allreduce differ at 1 rep");
  const auto* coll =
      dynamic_cast<const nc::coll::CollectivePattern*>(direct.pattern.get());
  require(coll != nullptr, "allreduce cell is not a collective");
  const int rounds =
      coll->schedule(direct.layout.element_count()).round_count();
  const double direct_ns =
      direct_s / static_cast<double>(direct_counters.messages) * 1e9;

  out.push_back({"plan.capture_s", capture_s, "s"});
  out.push_back({"plan.verify_s", verify_s, "s"});
  out.push_back({"plan.selfcheck_s", selfcheck_s, "s"});
  out.push_back({"plan.actions", actions, "count"});
  out.push_back({"plan.interpret_ns_per_msg", interpret_ns, "ns"});
  out.push_back({"plan.replay_rss_mb", replay_rss, "MB"});
  out.push_back({"plan.replay_speedup", direct_ns / interpret_ns, "ratio"});
  out.push_back({"collectives.ns_per_round", direct_s / rounds * 1e9, "ns"});
}

// --- minimpi/datatype -------------------------------------------------------

void datatype_probes(std::uint64_t seed, Tracer* tracer,
                     std::vector<Metric>& out) {
  constexpr std::size_t chunk = nc::PackingPipelinedScheme::chunk_bytes;
  const nc::ExperimentPlan grid = pingpong_grid(seed);
  for (const nc::LayoutAxis& axis : grid.layouts) {
    for (const std::size_t size : grid.sizes_bytes) {
      const nc::Layout layout = axis.factory(size / sizeof(double));
      const minimpi::Datatype dt = layout.datatype();
      const std::size_t bytes = layout.payload_bytes();
      std::vector<double> src(layout.footprint_elems());
      std::iota(src.begin(), src.end(), 0.0);
      std::vector<std::byte> packed(bytes);
      std::vector<std::byte> region(bytes);
      std::vector<double> back(layout.footprint_elems(), -1.0);
      const std::string suffix = "." + axis.name + "." + std::to_string(size);
      const double gb = static_cast<double>(bytes) / 1e9;

      double t = 0.0;
      {
        const ScopedSpan s(tracer, "minimpi/datatype:pack");
        t = fastest([&] {
          std::size_t pos = 0;
          minimpi::pack(src.data(), 1, dt, packed.data(), packed.size(), pos);
        });
      }
      out.push_back({"datatype.pack_gbps" + suffix, gb / t, "GB/s"});
      {
        const ScopedSpan s(tracer, "minimpi/datatype:unpack");
        t = fastest([&] {
          std::size_t pos = 0;
          minimpi::unpack(packed.data(), packed.size(), pos, back.data(), 1,
                          dt);
        });
      }
      out.push_back({"datatype.unpack_gbps" + suffix, gb / t, "GB/s"});
      require(minimpi::typed_equal(src.data(), back.data(), 1, dt),
              "unpack(pack(x)) != x on " + layout.name());
      {
        const ScopedSpan s(tracer, "minimpi/datatype:pack_region");
        t = fastest([&] {
          for (std::size_t off = 0; off < bytes; off += chunk)
            (void)minimpi::pack_region(src.data(), 1, dt, off,
                                       region.data() + off,
                                       std::min(chunk, bytes - off));
        });
      }
      out.push_back({"datatype.pack_region_gbps" + suffix, gb / t, "GB/s"});
      require(region == packed, "pack_region != pack on " + layout.name());
    }
  }

  // Contiguous gathers and the two bandwidth references.
  for (const std::size_t size : grid.sizes_bytes) {
    const std::string suffix = std::string(".") + std::to_string(size);
    const double gb = static_cast<double>(size) / 1e9;
    std::vector<double> src(2 * size / sizeof(double));
    std::iota(src.begin(), src.end(), 0.0);
    std::vector<double> dst(size / sizeof(double));
    double t = 0.0;
    {
      const ScopedSpan s(tracer, "minimpi/datatype:gather");
      t = fastest([&] {
        minimpi::gather(src.data(), dst.size(), minimpi::Datatype::float64(),
                        dst.data());
      });
      out.push_back({"datatype.gather_contig_gbps.float64" + suffix, gb / t,
                     "GB/s"});
      t = fastest([&] {
        minimpi::gather(src.data(), size, minimpi::Datatype::packed(),
                        dst.data());
      });
      out.push_back({"datatype.gather_contig_gbps.packed" + suffix, gb / t,
                     "GB/s"});
      require(std::memcmp(src.data(), dst.data(), size) == 0,
              "contiguous gather moved the wrong bytes");
    }
    {
      const ScopedSpan s(tracer, "perfbench/reference:memcpy");
      t = fastest([&] { std::memcpy(dst.data(), src.data(), size); });
      out.push_back({"datatype.memcpy_gbps" + suffix, gb / t, "GB/s"});
      t = fastest([&] {
        double* d = dst.data();
        const double* s2 = src.data();
        for (std::size_t i = 0; i < dst.size(); ++i) d[i] = s2[2 * i];
      });
      out.push_back({"datatype.manual_gather_gbps" + suffix, gb / t, "GB/s"});
      require(dst.back() == src[2 * (dst.size() - 1)],
              "hand-written gather moved the wrong bytes");
    }
  }
}

// --- minimpi/net ------------------------------------------------------------

void net_probes(Tracer* tracer, std::vector<Metric>& out) {
  const ScopedSpan s(tracer, "minimpi/net:charge_sequences");
  const minimpi::CostModel model(minimpi::MachineProfile::skx_impi());
  const minimpi::BlockStats small =
      nc::Layout::strided(8'192 / sizeof(double), 1, 2).stats();
  constexpr std::size_t large_bytes = 4'194'304;
  const minimpi::BlockStats large =
      nc::Layout::strided(large_bytes / sizeof(double), 1, 2).stats();
  constexpr int kCalls = 50'000;
  std::size_t atoms = 0;
  const double t = fastest(
      [&] {
        for (int i = 0; i < kCalls; ++i) {
          const minimpi::TransferCharges e = model.eager_charges(8'192, small);
          const minimpi::TransferCharges r =
              model.rendezvous_charges(large_bytes, large);
          atoms += e.local.size() + e.transit.size() + r.local.size() +
                   r.transit.size();
        }
      },
      3, 0.0);
  require(atoms > 0, "charge sequences are empty");
  out.push_back({"net.ns_per_charge_seq", t / (2.0 * kCalls) * 1e9, "ns"});
}

// --- minimpi/base coop ------------------------------------------------------

void coop_probes(Tracer* tracer, std::vector<Metric>& out) {
  for (const int n : {256, 1024}) {
    minimpi::UniverseOptions opts;
    opts.nranks = n;
    opts.functional = false;
    const ScopedSpan s(tracer, "minimpi/runtime:Universe::run");
    const double t = fastest(
        [&] { minimpi::Universe::run(opts, [](minimpi::Comm&) {}); }, 5, 0.05);
    out.push_back({"coop.spinup_s." + std::to_string(n), t, "s"});
  }
}

// --- ncsend/patterns --------------------------------------------------------

void pattern_probes(std::uint64_t seed, Tracer* tracer,
                    std::vector<Metric>& out) {
  const ModeledCell cell = ring_cell(kRingReps, seed);
  const ScopedSpan s(tracer, "ncsend/patterns:run_pattern_experiment");
  const double t = fastest(
      [&] {
        const nc::RunResult r = nc::run_pattern_experiment(
            cell.opts, *cell.pattern, cell.scheme, cell.layout, cell.cfg);
        require(r.data_checked && r.verified, "ring run failed verification");
      },
      3, 0.0);
  out.push_back({"patterns.ns_per_rank_step",
                 t / (static_cast<double>(kRingRanks) * kRingReps) * 1e9,
                 "ns"});
}

// --- ncsend/schemes + ncsend/experiment -------------------------------------

/// One pass over the ping-pong grid cell by cell (host seconds per
/// scheme), then the same grid through `run_plan` at one job and at one
/// job per hardware thread.
void grid_probes(std::uint64_t seed, Tracer* tracer,
                 std::vector<Metric>& out) {
  const nc::ExperimentPlan grid = pingpong_grid(seed);
  const std::vector<std::string>& schemes = grid.schemes;
  const minimpi::UniverseOptions opts = grid.universe_options(0);
  const auto pingpong = nc::CommPattern::by_name(grid.patterns.front());

  std::map<std::string, double> host_s;
  double cells_s = 0.0;
  for (const nc::LayoutAxis& axis : grid.layouts) {
    for (const std::size_t size : grid.sizes_bytes) {
      const nc::Layout layout = axis.factory(size / sizeof(double));
      for (const std::string& scheme : schemes) {
        const ScopedSpan s(tracer, "ncsend/schemes:" + scheme);
        const Clock::time_point t0 = Clock::now();
        const nc::RunResult r = nc::run_pattern_experiment(
            opts, *pingpong, scheme, layout, grid.harness);
        const double t = seconds_since(t0);
        require(r.data_checked && r.verified,
                scheme + " failed verification on " + layout.name());
        host_s[scheme] += t;
        cells_s += t;
      }
    }
  }
  for (const std::string& scheme : schemes)
    out.push_back({"schemes.host_s." + token(scheme), host_s[scheme], "s"});

  const auto timed_plan = [&](int jobs) {
    const ScopedSpan s(tracer, "ncsend/experiment:run_plan");
    const Clock::time_point t0 = Clock::now();
    const nc::PlanResult pr = nc::run_plan(grid, nc::ExecutorOptions{jobs});
    const double t = seconds_since(t0);
    require(pr.all_verified(), "run_plan grid failed verification");
    return t;
  };
  const double serial_s = timed_plan(1);
  const int jobs =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  const double parallel_s = timed_plan(jobs);
  out.push_back({"experiment.overhead_s", serial_s - cells_s, "s"});
  out.push_back({"experiment.jobs_speedup", serial_s / parallel_s, "ratio"});
}

}  // namespace

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::vector<Metric> run_layer_probes(std::uint64_t seed, Tracer* tracer) {
  std::vector<Metric> out;
  plan_probes(tracer, out);  // first: its RSS growth must be its own
  datatype_probes(seed, tracer, out);
  net_probes(tracer, out);
  coop_probes(tracer, out);
  pattern_probes(seed, tracer, out);
  grid_probes(seed, tracer, out);
  return out;
}

}  // namespace perfbench
