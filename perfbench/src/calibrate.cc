#include "calibrate.h"

#include <time.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory_resource>
#include <unordered_map>
#include <vector>

namespace perfbench {

namespace {

double ClockMs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

double KernelCpuMs() {
  // Node-based hash-table inserts like the program's own tables, but
  // from an arena of the kernel's own, so its time depends on the core
  // and its caches and not on the state of the program's heap.
  static std::vector<std::byte> arena(16u << 20);
  const double t0 = ThreadCpuMs();
  std::pmr::monotonic_buffer_resource pool(arena.data(), arena.size(),
                                           std::pmr::null_memory_resource());
  std::pmr::unordered_map<uint32_t, uint32_t> table(&pool);
  uint32_t x = 12345;
  for (uint32_t i = 0; i < 150000; ++i) {
    x = x * 1103515245u + 12345u;
    table[x % 50000] += i;
  }
  volatile size_t sink = table.size();
  (void)sink;
  return ThreadCpuMs() - t0;
}

}  // namespace

double ThreadCpuMs() { return ClockMs(CLOCK_THREAD_CPUTIME_ID); }

double ProcessCpuMs() { return ClockMs(CLOCK_PROCESS_CPUTIME_ID); }

double CalibrationMs() {
  return std::min({KernelCpuMs(), KernelCpuMs(), KernelCpuMs()});
}

}  // namespace perfbench
