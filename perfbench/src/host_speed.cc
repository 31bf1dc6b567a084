#include "perfbench/src/host_speed.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "perfbench/src/spans.h"

namespace perfbench {
namespace {

struct Step {
  virtual ~Step() = default;
  virtual uint64_t Apply(uint64_t x) const = 0;
};
struct Scale3 : Step {
  uint64_t Apply(uint64_t x) const override { return x * 3 + 1; }
};
struct Fold : Step {
  uint64_t Apply(uint64_t x) const override { return x ^ (x >> 3); }
};
struct Offset : Step {
  uint64_t Apply(uint64_t x) const override { return x + 0x9E37; }
};

constexpr int kIterations = 4000;

// Kept in a global so the compiler cannot drop the kernel's work.
uint64_t g_sink = 0;

double KernelMs() {
  static const std::array<std::unique_ptr<Step>, 3> steps = {
      std::make_unique<Scale3>(), std::make_unique<Fold>(),
      std::make_unique<Offset>()};
  int64_t start = NowNs();
  uint64_t x = g_sink | 1;
  for (int i = 0; i < kIterations; ++i) {
    std::function<uint64_t(uint64_t)> f = [](uint64_t v) {
      return steps[v % steps.size()]->Apply(v);
    };
    std::string s(24 + (x & 15), 'a');
    std::vector<uint64_t> v(8 + (x & 7), x);
    x = f(x + s.size() + v.size());
  }
  g_sink = x;
  return static_cast<double>(NowNs() - start) / 1e6;
}

}  // namespace

void HostSpeed::Sample(int n) {
  for (int i = 0; i < n; ++i) {
    ms_.push_back(KernelMs());
  }
}

double HostSpeed::Scale() const {
  return ms_.empty() ? 1.0
                     : kReferenceKernelMs /
                           *std::min_element(ms_.begin(), ms_.end());
}

}  // namespace perfbench
