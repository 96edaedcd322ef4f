#include "workloads.hpp"

#include <cstring>
#include <optional>
#include <stdexcept>

#include "cycles.hpp"
#include "minimpi/datatype/pack.hpp"
#include "ncsend/plan/comm_plan.hpp"
#include "ncsend/schemes/schemes.hpp"

namespace perfbench {
namespace {

namespace nc = ncsend;

/// FNV-1a, fed field by field.
class Fnv {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h_ = (h_ ^ b[i]) * 1099511628211ULL;
  }
  template <class T>
  void value(const T& v) {
    unsigned char raw[sizeof(T)];
    std::memcpy(raw, &v, sizeof(T));
    bytes(raw, sizeof(T));
  }
  void text(std::string_view s) {
    bytes(s.data(), s.size());
    value(s.size());
  }
  [[nodiscard]] std::string hex() const {
    static constexpr char digits[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 0; i < 16; ++i)
      out[static_cast<std::size_t>(15 - i)] = digits[(h_ >> (4 * i)) & 0xF];
    return out;
  }

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

/// splitmix64: a portable generator, so a seed names the same inputs
/// on every standard library.
std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

void hash_layout(Fnv& h, const nc::Layout& layout) {
  h.text(layout.name());
  minimpi::for_each_block(layout.datatype(), 1,
                          [&](std::ptrdiff_t off, std::size_t n) {
                            h.value(off);
                            h.value(n);
                          });
}

/// One `run_pattern_experiment` call with counters (and `log`) attached.
UnitOutcome run_cell(const minimpi::UniverseOptions& base_opts,
                     const nc::CommPattern& pattern, std::string_view scheme,
                     const nc::Layout& layout, const nc::HarnessConfig& cfg,
                     std::shared_ptr<minimpi::TraceLog> log, Tracer* tracer,
                     const char* span) {
  UnitOutcome out;
  minimpi::UniverseOptions opts = base_opts;
  opts.perf = &out.counters;
  opts.trace = std::move(log);
  nc::RunResult r;
  const Timing t = time_call([&] {
    const ScopedSpan s(tracer, span);
    r = nc::run_pattern_experiment(opts, pattern, scheme, layout, cfg);
  });
  out.seconds = t.seconds;
  out.hz = t.hz;
  out.messages = out.counters.messages;
  out.digest = digest_of(r);
  out.verified = r.data_checked && r.verified;
  return out;
}

// --- pingpong_functional ---------------------------------------------------

/// The paper's §3.2 ping-pong, one grid cell per slot.  The set-up is
/// what `run_plan` does before its cells (validate the plan, build the
/// layouts); each unit is the call `run_plan` makes for one cell.
class PingpongFunctional final : public Workload {
 public:
  explicit PingpongFunctional(std::uint64_t seed) : seed_(seed) {}

  std::string name() const override { return "pingpong_functional"; }
  std::size_t slot_count() const override {
    return grid_.layouts.size() * grid_.sizes_bytes.size() *
           grid_.schemes.size();
  }
  std::string slot_key(std::size_t slot) const override {
    const Coord c = coord(slot);
    return grid_.layouts[c.li].name + "/" +
           std::to_string(grid_.sizes_bytes[c.si]) + "/" +
           grid_.schemes[c.ci];
  }

  void generate_inputs(Tracer* tracer) override {
    const ScopedSpan s(tracer, "ncsend/experiment:plan_inputs");
    grid_ = pingpong_grid(seed_);
    grid_.validate();
    layouts_.clear();
    for (const nc::LayoutAxis& axis : grid_.layouts)
      for (const std::size_t bytes : grid_.sizes_bytes)
        layouts_.push_back(axis.factory(bytes / sizeof(double)));
    opts_ = grid_.universe_options(0);
    pattern_ = nc::CommPattern::by_name(grid_.patterns.front());
  }

  std::string inputs_digest() const override {
    Fnv h;
    for (const nc::Layout& l : layouts_) hash_layout(h, l);
    return h.hex();
  }

  UnitOutcome run_unit(std::size_t slot,
                       std::shared_ptr<minimpi::TraceLog> log,
                       Tracer* tracer) override {
    const Coord c = coord(slot);
    return run_cell(opts_, *pattern_, grid_.schemes[c.ci],
                    layouts_[c.li * grid_.sizes_bytes.size() + c.si],
                    grid_.harness, std::move(log), tracer,
                    "ncsend/patterns:run_pattern_experiment");
  }

 private:
  struct Coord {
    std::size_t li, si, ci;
  };
  Coord coord(std::size_t slot) const {
    const std::size_t ns = grid_.schemes.size();
    const std::size_t nz = grid_.sizes_bytes.size();
    return {slot / (nz * ns), (slot / ns) % nz, slot % ns};
  }

  std::uint64_t seed_;
  nc::ExperimentPlan grid_ = pingpong_grid(seed_);
  std::vector<nc::Layout> layouts_;  // [li * sizes + si]
  minimpi::UniverseOptions opts_;
  std::unique_ptr<nc::CommPattern> pattern_;
};

// --- the three modeled workloads -------------------------------------------

/// A workload of one modeled cell, run directly.
class ModeledWorkload : public Workload {
 public:
  ModeledWorkload(std::string name, const char* span)
      : name_(std::move(name)), span_(span) {}

  std::string name() const override { return name_; }
  std::string inputs_digest() const override {
    Fnv h;
    h.text(cell_->pattern->name());
    hash_layout(h, cell_->layout);
    return h.hex();
  }
  UnitOutcome run_unit(std::size_t, std::shared_ptr<minimpi::TraceLog> log,
                       Tracer* tracer) override {
    return run_cell(cell_->opts, *cell_->pattern, cell_->scheme,
                    cell_->layout, cell_->cfg, std::move(log), tracer, span_);
  }

 protected:
  std::optional<ModeledCell> cell_;

 private:
  std::string name_;
  const char* span_;
};

class AllreduceDirect final : public ModeledWorkload {
 public:
  AllreduceDirect()
      : ModeledWorkload("allreduce_direct",
                        "ncsend/collectives:run_pattern_experiment") {}
  void generate_inputs(Tracer* tracer) override {
    const ScopedSpan s(tracer, "ncsend/collectives:cell_inputs");
    cell_ = allreduce_cell(kAllreduceDirectReps);
  }
};

class AllreduceReplay final : public ModeledWorkload {
 public:
  AllreduceReplay() : ModeledWorkload("allreduce_replay", "") {}
  bool setup_in_unit() const override { return true; }
  void generate_inputs(Tracer* tracer) override {
    const ScopedSpan s(tracer, "ncsend/collectives:cell_inputs");
    cell_ = allreduce_cell(kAllreduceReplayReps);
  }
  UnitOutcome run_unit(std::size_t, std::shared_ptr<minimpi::TraceLog> log,
                       Tracer* tracer) override {
    UnitOutcome out;
    minimpi::UniverseOptions opts = cell_->opts;
    opts.perf = &out.counters;  // counts the capture run
    opts.trace = std::move(log);
    nc::plan::CommPlan plan;
    const Timing compile = time_call([&] {
      const ScopedSpan s(tracer, "ncsend/plan:compile_cell");
      plan = nc::plan::compile_cell(opts, *cell_->pattern, cell_->scheme,
                                    cell_->layout, cell_->cfg);
    });
    out.setup_seconds = compile.seconds;
    if (!plan.valid)
      throw std::runtime_error("invalid plan: " + plan.invalid_reason);
    const auto captured = static_cast<std::uint64_t>(plan.captured_reps);
    if (captured == 0 || out.counters.messages % captured != 0)
      throw std::runtime_error("capture messages are not whole reps");
    nc::RunResult r;
    const Timing t = time_call([&] {
      const ScopedSpan s(tracer, "ncsend/plan:replay");
      r = plan.replay(kAllreduceReplayReps);
    });
    out.seconds = t.seconds;
    out.hz = t.hz;
    out.messages = out.counters.messages / captured * kAllreduceReplayReps;
    out.digest = digest_of(r);
    out.verified = r.data_checked && r.verified;
    // The same plan at allreduce_direct's rep count must reproduce that
    // workload's pinned digest bit for bit.
    out.cross_checks.emplace_back(
        "allreduce_direct\tunit",
        digest_of(plan.replay(kAllreduceDirectReps)));
    return out;
  }
};

class Ring1kDirect final : public ModeledWorkload {
 public:
  explicit Ring1kDirect(std::uint64_t seed)
      : ModeledWorkload("ring1k_direct",
                        "ncsend/patterns:run_pattern_experiment"),
        seed_(seed) {}
  void generate_inputs(Tracer* tracer) override {
    const ScopedSpan s(tracer, "ncsend/patterns:ring_inputs");
    cell_ = ring_cell(kRingReps, seed_);
  }

 private:
  std::uint64_t seed_;
};

ModeledCell modeled_cell(std::string_view pattern, int reps) {
  ModeledCell c{nc::CommPattern::by_name(pattern),
                nc::Layout::strided(8'192 / sizeof(double), 1, 2),
                "vector type",
                {},
                {}};
  c.opts.profile = &minimpi::MachineProfile::skx_impi();
  c.opts.functional = false;  // payloads travel as metadata
  c.cfg.reps = reps;
  c.cfg.verify_samples = 4;   // sampled digest verification
  return c;
}

}  // namespace

std::string digest_of(const ncsend::RunResult& r) {
  Fnv h;
  h.value(r.timing.mean);
  h.value(r.timing.stddev);
  h.value(r.timing.min);
  h.value(r.timing.max);
  h.value(r.timing.samples);
  h.value(r.timing.rejected);
  h.value(r.payload_bytes);
  h.value(r.data_checked);
  h.value(r.verified);
  return h.hex();
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "pingpong_functional", "allreduce_direct", "allreduce_replay",
      "ring1k_direct"};
  return names;
}

std::unique_ptr<Workload> make_workload(std::string_view name,
                                        std::uint64_t seed) {
  if (name == "pingpong_functional")
    return std::make_unique<PingpongFunctional>(seed);
  if (name == "allreduce_direct") return std::make_unique<AllreduceDirect>();
  if (name == "allreduce_replay") return std::make_unique<AllreduceReplay>();
  if (name == "ring1k_direct") return std::make_unique<Ring1kDirect>(seed);
  throw std::invalid_argument("unknown workload: " + std::string(name));
}

ncsend::ExperimentPlan pingpong_grid(std::uint64_t seed) {
  nc::ExperimentPlan grid;
  grid.name = "pingpong_functional";
  grid.schemes = nc::all_scheme_names();
  for (const std::string& e : nc::extended_scheme_names())
    grid.schemes.push_back(e);
  grid.sizes_bytes = {8'192, 131'072, 4'194'304};
  grid.layouts = {{"stride2", nc::LayoutAxis::stride2().factory},
                  {"indexed4", nc::LayoutAxis::indexed_blocks(4, seed).factory}};
  // Two ping-pongs per cell, not the paper's 20: the host time per
  // message is the same, and the shorter units give every cell ~25
  // timed repeats in a 30-s run instead of 4, so its fastest repeat
  // holds from run to run.
  grid.harness.reps = kPingpongReps;
  // The layouts' host arrays are twice the payload.
  grid.functional_payload_limit = 2 * grid.sizes_bytes.back();
  return grid;
}

ModeledCell allreduce_cell(int reps) {
  return modeled_cell(
      "collective(allreduce:ring:" + std::to_string(kAllreduceRanks) + ")",
      reps);
}

ModeledCell ring_cell(int reps, std::uint64_t seed) {
  std::vector<int> perm(kRingRanks);
  for (int i = 0; i < kRingRanks; ++i) perm[static_cast<std::size_t>(i)] = i;
  std::uint64_t state = seed;
  for (std::size_t i = perm.size() - 1; i > 0; --i)
    std::swap(perm[i], perm[splitmix(state) % (i + 1)]);
  std::string spec = "graph(" + std::to_string(kRingRanks) + ":";
  for (std::size_t i = 0; i < perm.size(); ++i) {
    if (i > 0) spec += '.';
    spec += std::to_string(perm[i]);
    spec += '>';
    spec += std::to_string(perm[(i + 1) % perm.size()]);
  }
  return modeled_cell(spec + ")", reps);
}

}  // namespace perfbench
