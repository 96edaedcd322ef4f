#pragma once
/// \file cycles.hpp
/// \brief The core clock, read in place, to count host time in cycles.
///
/// The benchmark's host is shared, and its core clock follows the other
/// tenants' load (turbo): on a 4-vCPU KVM guest it moved from 2.7-3.0
/// to 3.5-3.7 GHz between two sets of runs, taking every timing with
/// it.  The cycles a unit of work costs move far less, so the gated
/// metrics are host seconds times the run's clock.  The clock is read
/// from a chain of dependent 64-bit multiply-adds: each step is one
/// `imul` (3 cycles) and one `add` (1 cycle) on current x86 cores, so
/// the chain's length in cycles is fixed.  A thread sharing the core
/// can still slow a single reading, and the fastest unit of a run, if
/// it were converted with its own readings, would be the one whose
/// reading was slowed most; so a run converts its fastest units with
/// the median of all its readings.  On a core with other latencies the
/// cycle counts are scaled by a constant, which a comparison on one
/// machine does not see.

#include <chrono>
#include <cstdint>

namespace perfbench {

inline constexpr long kChainSteps = 1 << 15;  // ~45 us at 3 GHz
inline constexpr double kCyclesPerStep = 4.0;

/// `setup_s` is a set-up's cycles at this clock, so that it does not
/// move with the host's clock either.
inline constexpr double kReferenceHz = 3.0e9;

/// Core clock in Hz: the fastest of three chain runs, so a run the
/// scheduler interrupted does not count.
inline double core_hz() {
  double best = 0.0;
  for (int r = 0; r < 3; ++r) {
    std::uint64_t x = static_cast<std::uint64_t>(r) + 1;
    const auto t0 = std::chrono::steady_clock::now();
    for (long i = 0; i < kChainSteps; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      asm volatile("" : "+r"(x));  // keep every step, in order
    }
    const double t =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    asm volatile("" : : "r"(x));
    if (r == 0 || t < best) best = t;
  }
  return kCyclesPerStep * static_cast<double>(kChainSteps) / best;
}

/// Host seconds of one call, and the core clock around it.
struct Timing {
  double seconds = 0.0;
  double hz = 0.0;  ///< mean of the clock read before and after
};

template <class Fn>
Timing time_call(Fn&& fn) {
  const double hz0 = core_hz();
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const double s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return {s, 0.5 * (hz0 + core_hz())};
}

}  // namespace perfbench
