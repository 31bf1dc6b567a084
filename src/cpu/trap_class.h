// How the CPU handles a trap of each exception class, from the last three
// columns of src/arch/ec_defs.inc: one row per class plus the catch-all,
// indexed by EcRow, so a trap reads all of it with one lookup.

#ifndef NEVE_SRC_CPU_TRAP_CLASS_H_
#define NEVE_SRC_CPU_TRAP_CLASS_H_

#include <cstddef>
#include <cstdint>

#include "src/arch/esr.h"
#include "src/cpu/cost_model.h"
#include "src/obs/attr.h"

namespace neve {

// CpuTrace's trap classes, in its counters' wire order. kOther has cycles
// but no counter.
enum class TraceClass : uint8_t { kHvc, kSysReg, kEret, kAbort, kIrq, kOther };
inline constexpr size_t kNumTraceClasses =
    static_cast<size_t>(TraceClass::kOther) + 1;

struct TrapClass {
  uint32_t CostModel::*detect;  // added to trap_entry; nullptr: no delta
  AttrCat attribution;          // of the whole trap episode
  TraceClass trace;
};

inline constexpr TrapClass kTrapClasses[kNumEcRows + 1] = {
#define NEVE_EC(id, value, name, detect, attribution, trace) \
  {detect, AttrCat::attribution, TraceClass::trace},
#include "src/arch/ec_defs.inc"
#undef NEVE_EC
    {nullptr, AttrCat::kTrapOther, TraceClass::kOther},
};

constexpr const TrapClass& TrapClassOf(Ec ec) {
  return kTrapClasses[EcRow(ec)];
}

}  // namespace neve

#endif  // NEVE_SRC_CPU_TRAP_CLASS_H_
