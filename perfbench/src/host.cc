#include "host.h"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "common/timer.h"
#include "index/mbr_kernels.h"
#include "trace.h"

namespace perfbench {

namespace {

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  for (unsigned leaf = 0; leaf < 3; ++leaf) {
    if (__get_cpuid(0x80000002u + leaf, &regs[leaf * 4], &regs[leaf * 4 + 1],
                    &regs[leaf * 4 + 2], &regs[leaf * 4 + 3]) == 0) {
      return "unknown";
    }
  }
  char brand[sizeof(regs) + 1] = {};
  std::memcpy(brand, regs, sizeof(regs));
  std::string model(brand);
  const size_t first = model.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : model.substr(first);
#else
  return "unknown";
#endif
}

int UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return -1;
  return CPU_COUNT(&set);
}

/// A fixed amount of dependent integer work.
uint64_t Spin(uint64_t iterations) {
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

constexpr uint64_t kSpinIterations = 20'000'000;
constexpr int kProbeThreads = 4;
/// WarmHost runs at least kWarmMinNs, then until a kWarmSliceNs slice
/// sees at most kWarmCalmSteal of the CPU stolen, for at most kWarmMaxNs.
constexpr int64_t kWarmMinNs = 1'500'000'000;
constexpr int64_t kWarmMaxNs = 8'000'000'000;
constexpr int64_t kWarmSliceNs = 500'000'000;
constexpr double kWarmCalmSteal = 0.02;

}  // namespace

std::string HostStamp(const std::string& git_sha) {
  std::ostringstream out;
  out << "host: cpu=\"" << CpuModel() << "\" vcpus_online="
      << sysconf(_SC_NPROCESSORS_ONLN) << " vcpus_usable=" << UsableCpus()
      << " mbr_kernel_isa=" << prj::MbrKernelIsa() << "\n";
#if defined(__clang__)
  out << "build: compiler=\"clang " << __clang_version__ << "\"";
#elif defined(__GNUC__)
  out << "build: compiler=\"gcc " << __VERSION__ << "\"";
#else
  out << "build: compiler=unknown";
#endif
  out << " build_type=" << PERFBENCH_BUILD_TYPE << " flags=\""
      << PERFBENCH_CXX_FLAGS << "\" git_sha=" << git_sha;
  return out.str();
}

ProbeResult RunProbe() {
  ProbeResult probe;
  const int64_t stop = NowNs() + 20'000'000;
  int64_t prev = NowNs();
  int64_t worst = 0;
  while (prev < stop) {
    const int64_t now = NowNs();
    worst = std::max(worst, now - prev);
    prev = now;
  }
  probe.stall_ms = static_cast<double>(worst) * 1e-6;

  std::atomic<uint64_t> sink{0};
  const prj::WallTimer alone;
  sink += Spin(kSpinIterations);
  const double t_alone = alone.ElapsedSeconds();
  // The copies spin until released, so the scheduler has spread them over
  // the vCPUs before the timed work starts.
  std::atomic<bool> go{false};
  std::vector<double> seconds(kProbeThreads, 0.0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kProbeThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) {
      }
      const prj::WallTimer timer;
      sink += Spin(kSpinIterations);
      seconds[static_cast<size_t>(t)] = timer.ElapsedSeconds();
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  probe.scaling = t_alone / *std::max_element(seconds.begin(), seconds.end());
  return probe;
}

CpuTicks ReadCpuTicks() {
  CpuTicks ticks;
  std::ifstream stat("/proc/stat");
  std::string label;
  if (!(stat >> label) || label != "cpu") return ticks;
  double field = 0.0;
  // user nice system idle iowait irq softirq steal ...
  for (int i = 0; i < 8 && stat >> field; ++i) {
    ticks.total += field;
    if (i == 7) ticks.steal = field;
  }
  return ticks;
}

double StealShare(const CpuTicks& from, const CpuTicks& to) {
  const double total = to.total - from.total;
  return total > 0 ? (to.steal - from.steal) / total : 0.0;
}

double WarmHost() {
  std::atomic<uint64_t> sink{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kProbeThreads; ++t) {
    threads.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) sink += Spin(10'000);
    });
  }
  const int64_t start = NowNs();
  CpuTicks last = ReadCpuTicks();
  double steal = 0.0;
  for (;;) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(kWarmSliceNs));
    const CpuTicks now = ReadCpuTicks();
    steal = StealShare(last, now);
    last = now;
    const int64_t waited = NowNs() - start;
    if ((waited >= kWarmMinNs && steal <= kWarmCalmSteal) ||
        waited >= kWarmMaxNs) {
      break;
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads) t.join();
  return steal;
}

bool ProbeDegraded(const ProbeResult& probe) {
  return probe.stall_ms > 5.0 || probe.scaling < 0.5;
}

}  // namespace perfbench
