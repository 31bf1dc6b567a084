// Host-speed calibration.
//
// The host is shared, and co-tenants slow it by up to half for seconds to
// minutes at a time. A fixed reference kernel built from the simulator's own
// kind of work (std::function calls, virtual dispatch, small heap
// allocations) slows down with it: sampled between simulator ops, the
// fastest kernel time and the fastest op time over 5-second windows move
// together (correlation 0.9), and their ratio spreads 3-5x less between
// windows than the op time alone. So the benchmark reports host times scaled
// to a reference host, on which the kernel takes kReferenceKernelMs. The
// kernel is the benchmark's own code: no change to the simulator moves it.

#ifndef PERFBENCH_SRC_HOST_SPEED_H_
#define PERFBENCH_SRC_HOST_SPEED_H_

#include <vector>

namespace perfbench {

// The kernel's fastest time on an uncontended host of the kind the baseline
// was measured on (Intel Xeon, 2.1 GHz, 4 vCPUs).
inline constexpr double kReferenceKernelMs = 0.22;

class HostSpeed {
 public:
  // Runs the reference kernel `n` times.
  void Sample(int n);

  // Reference-host time per measured host time: kReferenceKernelMs over the
  // fastest kernel run so far (1 before any sample). Below 1 when this host
  // is slower than the reference.
  double Scale() const;

 private:
  std::vector<double> ms_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_HOST_SPEED_H_
