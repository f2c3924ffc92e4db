// Host stamp and run-validity probes: what machine and build produced a
// result, and whether the host stalled or lost parallelism around it.
#ifndef PERFBENCH_HOST_H_
#define PERFBENCH_HOST_H_

#include <string>

namespace perfbench {

/// CPU model, vCPUs, dispatched MBR kernel ISA, compiler, flags, build
/// type and `git_sha`, as one human-readable block.
std::string HostStamp(const std::string& git_sha);

struct ProbeResult {
  /// Longest gap between two consecutive clock reads of a 20 ms spin:
  /// how long the host took the CPU away.
  double stall_ms = 0.0;
  /// Time of one fixed integer loop alone over the slowest of four
  /// copies run at once (1.0: four free cores).
  double scaling = 0.0;
};

ProbeResult RunProbe();

/// Keeps every vCPU busy for at least 1.5 s, then until half a second
/// passes with at most 2% of the CPU stolen (at most 8 s in all), and
/// returns the steal share of that last half second. A VM that sat
/// mostly idle may run all its vCPUs on one physical core at first (a
/// fresh 4-thread probe then shows 1/4 scaling) until the host spreads
/// them about a second into sustained load, and contention from other
/// tenants comes in bursts; every measured phase starts after this.
double WarmHost();

/// CPU time the hypervisor gave to others ("steal") and total CPU time,
/// in clock ticks since boot, from /proc/stat; zeros where unavailable.
struct CpuTicks {
  double steal = 0.0;
  double total = 0.0;
};
CpuTicks ReadCpuTicks();

/// Share of CPU time stolen between two readings (0 when unknown).
double StealShare(const CpuTicks& from, const CpuTicks& to);

/// A probe that shows a stalled or oversubscribed host.
bool ProbeDegraded(const ProbeResult& probe);

}  // namespace perfbench

#endif  // PERFBENCH_HOST_H_
