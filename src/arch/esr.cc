#include "src/arch/esr.h"

#include <sstream>

#include "src/base/bits.h"

namespace neve {

uint64_t Syndrome::ToEsrBits() const {
  uint64_t esr = 0;
  esr = InsertBits(esr, 31, 26, static_cast<uint64_t>(ec));
  esr = SetBit(esr, 25);  // IL: 32-bit instruction
  if (ec == Ec::kHvc64 || ec == Ec::kSmc64) {
    esr = InsertBits(esr, 15, 0, imm16);
  } else if (ec == Ec::kSysReg) {
    // Encode the SysReg ordinal and direction in the ISS. Real hardware packs
    // op0/op1/CRn/CRm/op2; the simulator's stable ordinal is equivalent
    // information for software.
    esr = InsertBits(esr, 21, 5, static_cast<uint64_t>(sysreg));
    esr = AssignBit(esr, 0, !is_write);  // ISS.Direction: 1 = read
  }
  return esr;
}

std::string Syndrome::ToString() const {
  std::ostringstream oss;
  oss << EcName(ec);
  switch (ec) {
    case Ec::kHvc64:
    case Ec::kSmc64:
      oss << " imm=" << imm16;
      break;
    case Ec::kSysReg:
      oss << " " << (is_write ? "write " : "read ") << SysRegName(sysreg);
      break;
    case Ec::kDataAbortLow:
      oss << (abort_is_write ? " write" : " read") << " far=0x" << std::hex
          << far << " hpfar=0x" << hpfar;
      break;
    case Ec::kIrq:
      oss << " intid=" << intid;
      break;
    default:
      break;
  }
  return oss.str();
}

}  // namespace neve
