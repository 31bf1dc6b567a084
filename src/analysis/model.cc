#include "src/analysis/model.h"

#include <array>
#include <sstream>

#include "src/base/status.h"

namespace neve::analysis {
namespace {

// __LINE__ inside an included file expands to the line within *that* file,
// so re-including the .inc tables with a line-capturing macro yields the
// source row of every table entry.
constexpr std::array<int, kNumRegIds> kRegLines = {
#define NEVE_REGID(id, name, owner, klass, redirect) __LINE__,
#include "src/arch/regid_defs.inc"
#undef NEVE_REGID
};

constexpr std::array<int, kNumSysRegs> kEncLines = {
#define NEVE_SYSREG(id, name, storage, min_el, kind, rw) __LINE__,
#include "src/arch/sysreg_defs.inc"
#undef NEVE_SYSREG
};

}  // namespace

std::string Diagnostic::ToString() const {
  std::ostringstream oss;
  oss << file;
  if (line > 0) {
    oss << ":" << line;
  }
  oss << ": [" << check << "] " << message;
  return oss.str();
}

std::string FormatDiagnostics(const std::vector<Diagnostic>& diags) {
  std::ostringstream oss;
  for (const Diagnostic& d : diags) {
    oss << d.ToString() << "\n";
  }
  return oss.str();
}

int RegDefLine(RegId reg) {
  auto idx = static_cast<size_t>(reg);
  NEVE_CHECK(idx < kRegLines.size());
  return kRegLines[idx];
}

int EncDefLine(SysReg enc) {
  auto idx = static_cast<size_t>(enc);
  NEVE_CHECK(idx < kEncLines.size());
  return kEncLines[idx];
}

}  // namespace neve::analysis
