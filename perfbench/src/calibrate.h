// CPU clocks and host-speed calibration.
//
// On a small shared VM the host steals whole time slices (5-13 % of the
// CPU during a run, in regimes lasting minutes) and neighbours sharing
// its caches slow every core by up to a third. Wall time then says as
// much about the neighbours as about the program: two runs of one input
// differ by 2.5x in read throughput. The bounded metrics therefore count
// CPU time, which stolen slices and I/O waits do not advance, and scale
// it by a calibration kernel of the benchmark's own run around each timed
// stretch, which cancels the cache and frequency effects. A change to the
// program moves the figures as it moves the program's CPU time; a change
// in the host moves the kernel too.
#ifndef PERFBENCH_CALIBRATE_H_
#define PERFBENCH_CALIBRATE_H_

namespace perfbench {

/// CPU time of the calling thread, ms.
double ThreadCpuMs();
/// CPU time of the whole process (every thread), ms.
double ProcessCpuMs();

/// The kernel's CPU time on the host the benchmark was tuned on (4-vCPU
/// x86 VM): the unit of the bounded metrics is CPU time at that speed.
inline constexpr double kReferenceCalibrationMs = 4.5;

/// Runs the kernel (150,000 hash-table inserts into an arena allocated
/// once) three times and returns the least CPU time, ms.
double CalibrationMs();

/// Multiplier from measured CPU time to reference CPU time for a stretch
/// whose bracketing kernel runs took `before_ms` and `after_ms`.
inline double HostFactor(double before_ms, double after_ms) {
  return kReferenceCalibrationMs / ((before_ms + after_ms) / 2);
}

}  // namespace perfbench

#endif  // PERFBENCH_CALIBRATE_H_
