#include "src/cpu/trace.h"

#include <cstdio>
#include <sstream>

namespace neve {

std::string CpuTrace::AttributionReport() const {
  const char* names[kNumTraceClasses] = {"hvc/smc", "sysreg",     "eret",
                                         "aborts",  "interrupts", "other"};
  uint64_t total = total_attributed_cycles();
  std::ostringstream oss;
  oss << "  cycles by trap class (outermost episodes):\n";
  for (size_t i = 0; i < kNumTraceClasses; ++i) {
    if (cycles_by_class_[i] == 0) {
      continue;
    }
    double pct = total != 0
                     ? 100.0 * static_cast<double>(cycles_by_class_[i]) /
                           static_cast<double>(total)
                     : 0.0;
    char line[96];
    std::snprintf(line, sizeof(line), "    %-11s %12llu  (%5.1f%%)\n",
                  names[i],
                  static_cast<unsigned long long>(cycles_by_class_[i]), pct);
    oss << line;
  }
  return oss.str();
}

std::string CpuTrace::Dump() const {
  std::ostringstream oss;
  for (const TrapRecord& r : records_) {
    oss << "  #" << r.sequence << " @" << r.cycles_at_entry << "cyc  "
        << r.syndrome.ToString() << "\n";
  }
  oss << "  total traps to EL2: " << traps_to_el2_ << " (sysreg "
      << traps(TraceClass::kSysReg) << ", hvc " << traps(TraceClass::kHvc)
      << ", eret " << traps(TraceClass::kEret) << ", abort "
      << traps(TraceClass::kAbort) << ", irq " << traps(TraceClass::kIrq)
      << ")\n";
  return oss.str();
}

}  // namespace neve
