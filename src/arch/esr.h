// Exception Syndrome Register (ESR_EL2 / ESR_EL1) model.
//
// A trimmed but faithful encoding of the syndrome information the hypervisor
// needs: exception class, plus a class-specific payload. We keep the payload
// as a decoded struct rather than packing everything into ISS bits -- the
// simulator charges the same cycle costs either way, and decoded syndromes
// make hypervisor code and tests far easier to read. The 16-bit HVC immediate
// and the trapped-sysreg identity are preserved exactly, since the paper's
// paravirtualization scheme (section 4) rides on them.

#ifndef NEVE_SRC_ARCH_ESR_H_
#define NEVE_SRC_ARCH_ESR_H_

#include <cstdint>
#include <string>

#include "src/arch/sysreg.h"

namespace neve {

// Exception class, values matching the AArch64 ESR.EC encodings.
enum class Ec : uint8_t {
  kUnknown = 0x00,
  kWfx = 0x01,
  kHvc64 = 0x16,
  kSmc64 = 0x17,
  kSysReg = 0x18,      // trapped MSR/MRS
  kTlbi = 0x19,        // trapped TLB maintenance (HCR_EL2.TTLB-style)
  kEretTrap = 0x1A,    // ARMv8.3-NV: trapped eret from EL1
  kInstAbortLow = 0x20,
  kDataAbortLow = 0x24,
  kIrq = 0x80,         // not an ESR EC; marker for asynchronous interrupts
};

// Inline: every trap names its trace span with it, observed or not.
constexpr const char* EcName(Ec ec) {
  switch (ec) {
    case Ec::kUnknown:
      return "UNKNOWN";
    case Ec::kWfx:
      return "WFX";
    case Ec::kHvc64:
      return "HVC64";
    case Ec::kSmc64:
      return "SMC64";
    case Ec::kSysReg:
      return "SYSREG";
    case Ec::kTlbi:
      return "TLBI";
    case Ec::kEretTrap:
      return "ERET";
    case Ec::kInstAbortLow:
      return "IABT_LOW";
    case Ec::kDataAbortLow:
      return "DABT_LOW";
    case Ec::kIrq:
      return "IRQ";
  }
  return "EC?";
}

// Decoded syndrome for an exception taken to EL2 (or emulated into a virtual
// EL2 by the host hypervisor).
struct Syndrome {
  Ec ec = Ec::kUnknown;

  // kHvc64 / kSmc64: the 16-bit immediate.
  uint16_t imm16 = 0;

  // kSysReg: which encoding trapped and the access direction/value.
  SysReg sysreg = SysReg::kNumSysRegs;
  bool is_write = false;
  uint64_t write_value = 0;  // value the guest attempted to write

  // kDataAbortLow: faulting addresses. far is the virtual address; hpfar the
  // IPA page (what hardware reports in HPFAR_EL2 on a Stage-2 fault).
  uint64_t far = 0;
  uint64_t hpfar = 0;
  bool abort_is_write = false;
  uint8_t access_size = 8;  // bytes

  // kIrq: the interrupt id pending at the time of the exit.
  uint32_t intid = 0;

  bool operator==(const Syndrome&) const = default;

  static Syndrome Hvc(uint16_t imm) {
    Syndrome s;
    s.ec = Ec::kHvc64;
    s.imm16 = imm;
    return s;
  }
  static Syndrome SysRegTrap(SysReg enc, bool is_write, uint64_t value) {
    Syndrome s;
    s.ec = Ec::kSysReg;
    s.sysreg = enc;
    s.is_write = is_write;
    s.write_value = value;
    return s;
  }
  static Syndrome EretTrap() {
    Syndrome s;
    s.ec = Ec::kEretTrap;
    return s;
  }
  static Syndrome Tlbi() {
    Syndrome s;
    s.ec = Ec::kTlbi;
    return s;
  }
  static Syndrome DataAbort(uint64_t far, uint64_t hpfar, bool is_write,
                            uint8_t size) {
    Syndrome s;
    s.ec = Ec::kDataAbortLow;
    s.far = far;
    s.hpfar = hpfar;
    s.abort_is_write = is_write;
    s.access_size = size;
    return s;
  }
  static Syndrome Irq(uint32_t intid) {
    Syndrome s;
    s.ec = Ec::kIrq;
    s.intid = intid;
    return s;
  }
  static Syndrome Wfx() {
    Syndrome s;
    s.ec = Ec::kWfx;
    return s;
  }

  // Packs ec/imm16 into an architectural-looking 64-bit ESR value for storage
  // in ESR_EL1/ESR_EL2 register slots (EC in [31:26], IL set, imm16 in ISS).
  uint64_t ToEsrBits() const;

  std::string ToString() const;
};

}  // namespace neve

#endif  // NEVE_SRC_ARCH_ESR_H_
