// perfbench: host-time benchmark of the ncsend simulator.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//             [--digests FILE] [--trace-out FILE]
//   perfbench --print digests|inputs --workload W [--seed N]
//   perfbench --print identity
//
// Untraced (--trace 0) it times the workload's units for S seconds,
// reading the core clock around each (cycles.hpp), and prints the
// end-to-end metrics; traced (--trace 1) it runs the layer
// probes and the workload with spans and counters attached and prints
// the per-layer metrics.  Every unit's virtual-time output is checked
// against the digest pinned in FILE, at every seed: the seed moves
// block addresses and rank labels, never a virtual clock.  A failed
// unit makes the run exit 1.  The last line of
// standard output is one JSON object: correct, attempted, failed and
// the metrics, each with its value and unit.  The --print modes emit
// the digests to pin, the generated inputs, and the direct-versus-
// replay digests of the allreduce cell, for the benchmark's tests.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cycles.hpp"
#include "ncsend/plan/comm_plan.hpp"
#include "probes.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::uint64_t kDefaultSeed = 1;

/// `setup_s` on the direct workloads: batches of input generations that
/// last at least this long, this many before every round.
constexpr double kSetupBatchSeconds = 2e-3;
constexpr int kSetupBatchesPerRound = 4;

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 30.0;
  bool trace = false;
  std::string digests = "perfbench/digests.txt";
  std::string trace_out;
  std::string print;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload W --seed N --seconds S "
               "--trace 0|1 [--digests FILE] [--trace-out FILE]\n"
               "       perfbench --print digests|inputs --workload W "
               "[--seed N]\n"
               "       perfbench --print identity\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      std::size_t used = 0;
      if (flag == "--workload") {
        a.workload = value;
      } else if (flag == "--seed") {
        a.seed = std::stoull(value, &used);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value, &used);
        if (!(a.seconds > 0.0 && a.seconds <= 3600.0))
          usage("--seconds must be in (0, 3600]");
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        a.trace = value == "1";
      } else if (flag == "--digests") {
        a.digests = value;
      } else if (flag == "--trace-out") {
        a.trace_out = value;
      } else if (flag == "--print") {
        if (value != "digests" && value != "inputs" && value != "identity")
          usage("--print takes digests, inputs or identity");
        a.print = value;
      } else {
        usage("unknown flag " + flag);
      }
      if (used != 0 && used != value.size()) usage("bad number " + value);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  const auto& names = workload_names();
  if (a.print != "identity" &&
      std::find(names.begin(), names.end(), a.workload) == names.end())
    usage("--workload must name one of pingpong_functional, "
          "allreduce_direct, allreduce_replay, ring1k_direct");
  return a;
}

/// Pinned digests, keyed "<workload>\t<slot>".
using Pins = std::map<std::string, std::string>;

Pins load_pins(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot read digests file " + path);
  Pins pins;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto tab = line.rfind('\t');
    if (tab == std::string::npos)
      throw std::runtime_error("malformed digests line: " + line);
    pins[line.substr(0, tab)] = line.substr(tab + 1);
  }
  return pins;
}

/// Empty when `digest` is the one pinned under `key`, else what is wrong.
std::string check_pin(const Pins& pins, const std::string& key,
                      const std::string& digest) {
  const auto it = pins.find(key);
  if (it == pins.end()) return "no pinned digest";
  if (it->second != digest)
    return "digest " + digest + " differs from pinned " + it->second;
  return {};
}

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Run one unit and check it: self-verified, the pinned digest, and
/// `messages` when the slot's count is already fixed.  nullopt if it
/// failed.
std::optional<UnitOutcome> attempt(Workload& w, std::size_t slot,
                                   std::optional<std::uint64_t> messages,
                                   std::shared_ptr<minimpi::TraceLog> log,
                                   Tracer* tracer, const Pins& pins,
                                   Tally& tally) {
  ++tally.attempted;
  const std::string key = w.name() + "\t" + w.slot_key(slot);
  std::string error;
  std::optional<UnitOutcome> out;
  try {
    out = w.run_unit(slot, std::move(log), tracer);
    if (!out->verified)
      error = "self-verification failed";
    if (error.empty())
      error = check_pin(pins, key, out->digest);
    for (const auto& [pin, digest] : out->cross_checks)
      if (error.empty()) {
        error = check_pin(pins, pin, digest);
        if (!error.empty()) error = pin + ": " + error;
      }
    if (error.empty() && messages && out->messages != *messages)
      error = "message count " + std::to_string(out->messages) +
              " differs from the first unit's " + std::to_string(*messages);
  } catch (const std::exception& e) {
    error = std::string("threw: ") + e.what();
  }
  if (error.empty()) return out;
  ++tally.failed;
  std::cerr << "perfbench: " << w.name() << " [" << w.slot_key(slot)
            << "] failed: " << error << "\n";
  return std::nullopt;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Each slot's fastest unit, median unit and unit at quantile `q`,
/// summed over the slots.
struct SlotSums {
  double fastest = 0.0;
  double median = 0.0;
  double at_q = 0.0;
};

SlotSums slot_sums(std::vector<std::vector<double>> samples, double q) {
  SlotSums sums;
  for (std::vector<double>& s : samples) {
    if (s.empty()) continue;
    std::sort(s.begin(), s.end());
    sums.fastest += s.front();
    sums.median += median(s);
    sums.at_q += s[static_cast<std::size_t>(
        std::lround(q * static_cast<double>(s.size() - 1)))];
  }
  return sums;
}

void print_result(bool correct, const Tally& tally,
                  const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << std::setprecision(17);
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << tally.attempted
     << ", \"failed\": " << tally.failed << ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics) {
    os << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
       << m.value << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

bool all_finite(const std::vector<Metric>& metrics) {
  return std::all_of(metrics.begin(), metrics.end(),
                     [](const Metric& m) { return std::isfinite(m.value); });
}

void print_failed_share(const Tally& tally) {
  std::cout << "failed_share "
            << static_cast<double>(tally.failed) /
                   static_cast<double>(std::max<std::uint64_t>(1, tally.attempted))
            << " ratio (" << tally.failed << " of " << tally.attempted
            << " units failed)\n";
}

// --- untraced run: the end-to-end metrics ----------------------------------

int run_untraced(const Args& a, Workload& w, const Pins& pins) {
  const Clock::time_point t_start = Clock::now();
  Tally tally;
  std::vector<double> setup;
  std::vector<double> clock_hz;  // every clock reading of the run
  // Input generation can take well under a microsecond: it is timed in
  // batches long enough for the clock, a few before every round, so that
  // like the units its samples span the whole run.
  int per_batch = 1;
  for (;;) {
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < per_batch; ++i) w.generate_inputs(nullptr);
    if (w.setup_in_unit() || seconds_since(t0) >= kSetupBatchSeconds ||
        per_batch >= 1 << 20)
      break;
    per_batch *= 2;
  }

  const std::size_t n = w.slot_count();
  std::vector<std::optional<std::uint64_t>> msgs(n);
  std::vector<std::vector<double>> seconds(n);  // unit samples per slot
  double rss_mb = 0.0;
  // Round robin over the slots until the time is spent.  Round 0 runs
  // every slot once and fixes its message count; later units must
  // repeat it, and a slot whose first unit failed is not run again.
  for (std::size_t round = 0;; ++round) {
    for (int b = 0; b < kSetupBatchesPerRound && !w.setup_in_unit(); ++b) {
      const Timing t = time_call([&] {
        for (int i = 0; i < per_batch; ++i) w.generate_inputs(nullptr);
      });
      setup.push_back(t.seconds / per_batch);
      clock_hz.push_back(t.hz);
    }
    bool out_of_time = false;
    for (std::size_t slot = 0; slot < n && !out_of_time; ++slot) {
      out_of_time = round > 0 && seconds_since(t_start) >= a.seconds;
      if (out_of_time || (round > 0 && !msgs[slot])) continue;
      const auto o =
          attempt(w, slot, msgs[slot], nullptr, nullptr, pins, tally);
      if (!o) continue;
      msgs[slot] = o->messages;
      seconds[slot].push_back(o->seconds);
      clock_hz.push_back(o->hz);
      if (o->setup_seconds >= 0.0) setup.push_back(o->setup_seconds);
    }
    // Up to the end of round 0 the run's work is fixed, so its peak RSS
    // repeats; the rounds that follow vary in number with the host's
    // speed and would let heap fragmentation into the figure.
    if (round == 0) rss_mb = peak_rss_mb();
    if (out_of_time || seconds_since(t_start) >= a.seconds) break;
  }

  std::uint64_t total_msgs = 0;
  std::size_t fewest = std::numeric_limits<std::size_t>::max(), count = 0;
  bool complete = !setup.empty();
  for (std::size_t slot = 0; slot < n; ++slot) {
    const std::size_t k = seconds[slot].size();
    complete = complete && k > 0;
    if (k == 0) continue;
    total_msgs += *msgs[slot];
    fewest = std::min(fewest, k);
    count += k;
  }
  // Slots may simulate no messages (one-sided cells move data by RMA),
  // but the workload as a whole must.
  complete = complete && total_msgs > 0;
  // The highest percentile with at least ten samples beyond it.
  const bool has_pct = complete && fewest >= 11;
  const double q = has_pct ? static_cast<double>(fewest - 11) /
                                 static_cast<double>(fewest - 1)
                           : 0.0;
  const SlotSums sec = slot_sums(seconds, q);
  const double hz = clock_hz.empty() ? 0.0 : median(clock_hz);
  const double per_msg =
      1.0 / static_cast<double>(std::max<std::uint64_t>(1, total_msgs));
  std::vector<Metric> metrics;
  if (complete)
    metrics = {{"cycles_per_msg", sec.fastest * hz * per_msg, "cycles"},
               {"setup_s",
                *std::min_element(setup.begin(), setup.end()) * hz /
                    kReferenceHz,
                "s"},
               {"peak_rss_mb", rss_mb, "MB"}};
  const bool correct = complete && tally.failed == 0 && all_finite(metrics);

  std::cout << std::setprecision(6) << "workload " << w.name() << " seed "
            << a.seed << ": " << count << " timed units over " << n
            << " slot(s), " << total_msgs << " messages per round, "
            << seconds_since(t_start) << " s\n";
  if (complete) {
    const auto line = [&](const char* name, const SlotSums& v, double scale,
                          const char* unit) {
      std::cout << name << " " << v.fastest * scale << " " << unit
                << " (fastest unit per slot); median " << v.median * scale
                << " " << unit;
      if (has_pct)
        std::cout << "; p" << std::lround(100.0 * q) << " " << v.at_q * scale
                  << " " << unit;
      std::cout << "; " << count << " samples\n";
    };
    line("cycles_per_msg", sec, hz * per_msg, "cycles");
    line("ns_per_msg", sec, per_msg * 1e9, "ns");
    std::cout << "core clock " << hz / 1e9 << " GHz (median of "
              << clock_hz.size() << " readings)\n"
              << "setup_s " << metrics[1].value
              << " s at the reference clock (fastest of " << setup.size()
              << ")\n"
              << "peak_rss_mb " << metrics[2].value << " MB\n";
  }
  print_failed_share(tally);
  print_result(correct, tally, metrics);
  return correct ? 0 : 1;
}

// --- traced run: the per-layer metrics -------------------------------------

int run_traced(const Args& a, Workload& w, const Pins& pins) {
  Tracer tracer;
  Tally tally;
  std::vector<Metric> metrics;
  ++tally.attempted;
  try {
    metrics = run_layer_probes(a.seed, &tracer);
  } catch (const std::exception& e) {
    ++tally.failed;
    std::cerr << "perfbench: layer probes failed: " << e.what() << "\n";
  }

  w.generate_inputs(&tracer);
  int unit = 0;
  minimpi::PerfCounters counters;
  std::uint64_t charges = 0;
  const std::size_t n = w.slot_count();
  std::vector<std::optional<std::uint64_t>> msgs(n);
  // The first round, with a TraceLog attached, fixes the message counts
  // and gives the runtime counters.
  for (std::size_t slot = 0; slot < n; ++slot) {
    auto log = std::make_shared<minimpi::TraceLog>();
    tracer.set_unit(unit++);
    const auto o = attempt(w, slot, std::nullopt, log, &tracer, pins, tally);
    if (!o) continue;
    msgs[slot] = o->messages;
    counters.add(o->counters);
    charges += log->charges().size();
  }

  // Untraced and traced units alternate, so both see the same host
  // phases; the ratio of their fastest is the tracing overhead.
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> plain(n, inf), traced(n, inf);
  const Clock::time_point t_loop = Clock::now();
  // The probes above take ~7 s; the pairs get a quarter of the time.
  const double budget = std::max(1.0, a.seconds / 4.0);
  for (std::size_t round = 0;; ++round) {
    bool out_of_time = false;
    for (std::size_t slot = 0; slot < n && !out_of_time; ++slot) {
      out_of_time = round > 0 && seconds_since(t_loop) >= budget;
      if (out_of_time || !msgs[slot]) continue;
      tracer.set_unit(-1);
      if (const auto o =
              attempt(w, slot, msgs[slot], nullptr, nullptr, pins, tally))
        plain[slot] = std::min(plain[slot], o->seconds);
      tracer.set_unit(unit++);
      if (const auto o =
              attempt(w, slot, msgs[slot], nullptr, &tracer, pins, tally))
        traced[slot] = std::min(traced[slot], o->seconds);
    }
    if (out_of_time || seconds_since(t_loop) >= budget) break;
  }
  tracer.set_unit(-1);
  double plain_sum = 0.0, traced_sum = 0.0;
  for (std::size_t slot = 0; slot < n; ++slot) {
    plain_sum += plain[slot];
    traced_sum += traced[slot];
  }

  const auto m = static_cast<double>(counters.messages);
  metrics.push_back({"runtime.msgs", m, "count"});
  metrics.push_back({"runtime.probes_per_msg", counters.probes_per_message(),
                     "ratio"});
  metrics.push_back({"runtime.requests_per_msg",
                     static_cast<double>(counters.requests) / m, "ratio"});
  metrics.push_back({"pool.allocs_per_msg", counters.allocs_per_message(),
                     "ratio"});
  metrics.push_back({"coop.switches_per_msg",
                     static_cast<double>(counters.fiber_switches) / m,
                     "ratio"});
  metrics.push_back({"net.charges_per_msg", static_cast<double>(charges) / m,
                     "ratio"});
  metrics.push_back({"trace.overhead", traced_sum / plain_sum, "ratio"});

  const bool correct = tally.failed == 0 && all_finite(metrics);
  std::cout << std::setprecision(6) << "traced workload " << w.name()
            << " seed " << a.seed << ": " << tracer.spans().size()
            << " spans\n";
  for (const Metric& mt : metrics)
    std::cout << "  " << mt.name << " = " << mt.value << " " << mt.unit
              << "\n";
  for (const auto& [layer, self] : tracer.self_time_by_layer())
    std::cout << "self_s " << layer << " = " << self << " s\n";
  std::cout << "trace.overhead." << w.name() << " = "
            << traced_sum / plain_sum << " ratio\n";
  if (!a.trace_out.empty()) {
    std::ofstream os(a.trace_out);
    if (os) tracer.write_json(os);
    if (!os) std::cerr << "perfbench: could not write " << a.trace_out << "\n";
  }
  print_failed_share(tally);
  print_result(correct, tally, metrics);
  return correct ? 0 : 1;
}

// --- --print modes ----------------------------------------------------------

int print_mode(const Args& a) {
  if (a.print == "identity") {
    // allreduce at equal reps, direct and compiled + replayed.
    constexpr int reps = 3;
    const ModeledCell cell = allreduce_cell(reps);
    const ncsend::RunResult direct = ncsend::run_pattern_experiment(
        cell.opts, *cell.pattern, cell.scheme, cell.layout, cell.cfg);
    const ncsend::plan::CommPlan plan = ncsend::plan::compile_cell(
        cell.opts, *cell.pattern, cell.scheme, cell.layout, cell.cfg);
    if (!plan.valid) {
      std::cerr << "perfbench: invalid plan: " << plan.invalid_reason << "\n";
      return 1;
    }
    std::cout << "direct " << digest_of(direct) << "\nreplay "
              << digest_of(plan.replay(reps)) << "\n";
    return 0;
  }
  const auto w = make_workload(a.workload, a.seed);
  w->generate_inputs(nullptr);
  if (a.print == "inputs") std::cout << "inputs " << w->inputs_digest() << "\n";
  bool ok = true;
  for (std::size_t slot = 0; slot < w->slot_count(); ++slot) {
    const UnitOutcome o = w->run_unit(slot, nullptr, nullptr);
    ok = ok && o.verified;
    if (a.print == "digests")
      std::cout << w->name() << "\t" << w->slot_key(slot) << "\t" << o.digest
                << "\n";
    else
      std::cout << "messages\t" << w->slot_key(slot) << "\t" << o.messages
                << "\n";
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args a = parse(argc, argv);
  try {
    if (!a.print.empty()) return print_mode(a);
    const Pins pins = load_pins(a.digests);
    const auto w = make_workload(a.workload, a.seed);
    return a.trace ? run_traced(a, *w, pins) : run_untraced(a, *w, pins);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
