// Execution trace and trap accounting.
//
// Table 7 of the paper reports *traps to the host hypervisor* per
// microbenchmark operation; section 5 narrates individual exit-multiplication
// traces. The trace records every exception taken to (real) EL2 with its
// syndrome, plus coarse counters, so benches and examples can reproduce both.

#ifndef NEVE_SRC_CPU_TRACE_H_
#define NEVE_SRC_CPU_TRACE_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/arch/esr.h"
#include "src/cpu/trap_class.h"

namespace neve {

struct TrapRecord {
  uint64_t sequence = 0;  // monotonically increasing per CPU
  Syndrome syndrome;
  uint64_t cycles_at_entry = 0;

  bool operator==(const TrapRecord&) const = default;

  // The fields a snapshot carries, in wire order (src/snap/wire.h's Writer
  // or Reader). Syndrome's are named here: a trap record is the only
  // snapshotted place that holds one.
  template <class Ar>
  void SnapFields(Ar& ar) {
    ar.U64(sequence);
    ar.U8(syndrome.ec);
    ar.U32(syndrome.imm16);
    ar.U32(syndrome.sysreg);
    ar.U8(syndrome.is_write);
    ar.U64(syndrome.write_value);
    ar.U64(syndrome.far);
    ar.U64(syndrome.hpfar);
    ar.U8(syndrome.abort_is_write);
    ar.U8(syndrome.access_size);
    ar.U32(syndrome.intid);
    ar.U64(cycles_at_entry);
  }
};

class CpuTrace {
 public:
  // When detailed recording is off, only counters are maintained (benches
  // run millions of ops; keeping full records would be wasteful).
  void set_record_details(bool on) { record_details_ = on; }

  void OnTrapToEl2(const Syndrome& s, uint64_t cycles) {
    ++traps_to_el2_;
    TraceClass c = TrapClassOf(s.ec).trace;
    if (c != TraceClass::kOther) {
      ++traps_[static_cast<size_t>(c)];
    }
    if (record_details_) {
      records_.push_back(
          {.sequence = traps_to_el2_, .syndrome = s, .cycles_at_entry = cycles});
    }
  }

  // Attributes `cycles` of handling time to exception class `ec`. The CPU
  // calls this for outermost traps only, so nested handling (a guest
  // hypervisor's emulation traps inside a forwarded exit) rolls up into the
  // class that started the episode.
  void AttributeCycles(Ec ec, uint64_t cycles) {
    cycles_by_class_[static_cast<size_t>(TrapClassOf(ec).trace)] += cycles;
  }

  uint64_t cycles_for(Ec ec) const {
    return cycles_by_class_[static_cast<size_t>(TrapClassOf(ec).trace)];
  }
  uint64_t total_attributed_cycles() const {
    uint64_t sum = 0;
    for (uint64_t c : cycles_by_class_) {
      sum += c;
    }
    return sum;
  }

  void Reset() {
    traps_to_el2_ = 0;
    traps_.fill(0);
    records_.clear();
    cycles_by_class_.fill(0);
  }

  uint64_t traps_to_el2() const { return traps_to_el2_; }
  // Traps of one class; kOther has no counter.
  uint64_t traps(TraceClass c) const {
    return traps_.at(static_cast<size_t>(c));
  }

  const std::vector<TrapRecord>& records() const { return records_; }

  // Multi-line rendering of the recorded trace (examples/nested_boot).
  std::string Dump() const;

  // "Where the cycles went": per-exception-class handling time.
  std::string AttributionReport() const;

  bool operator==(const CpuTrace&) const = default;

  // Every field, in wire order: a snapshot copies a CpuTrace whole and
  // encodes it through this list.
  template <class Ar>
  void SnapFields(Ar& ar) {
    ar.U8(record_details_);
    ar.U64(traps_to_el2_);
    for (uint64_t& n : traps_) {
      ar.U64(n);
    }
    ar.Vec(records_, 8 + 42 + 8, [&ar](TrapRecord& r) { r.SnapFields(ar); });
    ar.Vec(cycles_by_class_, 8, [&ar](uint64_t& c) { ar.U64(c); });
  }

 private:
  bool record_details_ = false;
  uint64_t traps_to_el2_ = 0;
  std::array<uint64_t, kNumTraceClasses - 1> traps_ = {};  // by TraceClass
  std::vector<TrapRecord> records_;
  std::array<uint64_t, kNumTraceClasses> cycles_by_class_ = {};
};

}  // namespace neve

#endif  // NEVE_SRC_CPU_TRACE_H_
