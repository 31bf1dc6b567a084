// Diagnostics shared by archlint and srclint, and the source locations of
// the architecture tables.
//
// A finding names a repo-relative file and line. The .inc row of every
// register and encoding is known, so archlint's sweep and golden passes
// point at the offending table row, not just at a register name. The rows'
// own shape is checked at compile time, next to the live tables in
// src/arch/sysreg.cc.

#ifndef NEVE_SRC_ANALYSIS_MODEL_H_
#define NEVE_SRC_ANALYSIS_MODEL_H_

#include <string>
#include <vector>

#include "src/arch/sysreg.h"

namespace neve::analysis {

// Repo-relative paths of the table sources, used as diagnostic locations.
inline constexpr char kRegIdDefsPath[] = "src/arch/regid_defs.inc";
inline constexpr char kSysRegDefsPath[] = "src/arch/sysreg_defs.inc";

// One finding. `file` is repo-relative; line 0 means "whole file / no row".
struct Diagnostic {
  std::string file;
  int line = 0;
  std::string check;  // short kebab-case id of the violated rule
  std::string message;

  std::string ToString() const;
};

std::string FormatDiagnostics(const std::vector<Diagnostic>& diags);

// Line (in the respective .inc file) of a register's or an encoding's row.
int RegDefLine(RegId reg);
int EncDefLine(SysReg enc);

}  // namespace neve::analysis

#endif  // NEVE_SRC_ANALYSIS_MODEL_H_
