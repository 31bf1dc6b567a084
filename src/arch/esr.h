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

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>

#include "src/arch/sysreg.h"

namespace neve {

// Exception class, values matching the AArch64 ESR.EC encodings.
enum class Ec : uint8_t {
#define NEVE_EC(id, value, name, detect, attribution, trace) id = value,
#include "src/arch/ec_defs.inc"
#undef NEVE_EC
};

// Each ec_defs.inc row's name, then the catch-all row's.
inline constexpr const char* kEcRowNames[] = {
#define NEVE_EC(id, value, name, detect, attribution, trace) name,
#include "src/arch/ec_defs.inc"
#undef NEVE_EC
    "EC?"};
inline constexpr size_t kNumEcRows = std::size(kEcRowNames) - 1;

// The row of each of the 256 values, the catch-all's for a value with no
// row: a decoded snapshot's trap record may carry any byte.
inline constexpr std::array<uint8_t, 256> kEcRowIndex = [] {
  std::array<uint8_t, 256> index{};
  index.fill(kNumEcRows);
  uint8_t row = 0;
#define NEVE_EC(id, value, name, detect, attribution, trace) \
  index[value] = row++;
#include "src/arch/ec_defs.inc"
#undef NEVE_EC
  return index;
}();
// Every row's value maps back to its own row: two rows with one value would
// leave fewer than kNumEcRows values mapped, silently sharing a row.
static_assert(std::count(kEcRowIndex.begin(), kEcRowIndex.end(), kNumEcRows) ==
                  256 - kNumEcRows,
              "two ec_defs.inc rows share one ESR.EC value");

constexpr size_t EcRow(Ec ec) { return kEcRowIndex[static_cast<uint8_t>(ec)]; }

// Inline: every trap names its trace span with it, observed or not.
constexpr const char* EcName(Ec ec) { return kEcRowNames[EcRow(ec)]; }

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
