// Static verification of the architecture model's behaviour.
//
// The shape of each .inc table row is asserted at compile time beside the
// live tables (src/arch/sysreg.cc). What needs the resolution pipeline is
// checked here, in two passes, each returning file:line diagnostics
// (empty == clean):
//
//  1. SweepResolution -- exhaustively drives ResolveSysRegAccess over the
//                        cross-product of every encoding x EL x feature
//                        generation (incl. NEVE ablations) x HCR{E2H,NV,NV1,
//                        IMO} x VNCR enable x read/write, and checks
//                        architectural invariants on every cell. Every cell
//                        is also resolved through a ResolutionCache twice
//                        (miss-then-hit) and compared against the plain tree
//                        walk -- the differential oracle for the CPU's
//                        fast-path cache.
//  2. CheckGoldenTables - per-class register sets and virtual-EL2 behaviour
//                        must exactly match the paper's Tables 3-5 golden
//                        data (golden_tables.h).
//
// A third entry point dumps the full resolution cross-product as CSV or
// JSON so model behaviour can be diffed between commits.

#ifndef NEVE_SRC_ANALYSIS_ARCHLINT_H_
#define NEVE_SRC_ANALYSIS_ARCHLINT_H_

#include <iosfwd>
#include <vector>

#include "src/analysis/golden_tables.h"
#include "src/analysis/model.h"

namespace neve::analysis {

std::vector<Diagnostic> SweepResolution();
std::vector<Diagnostic> CheckGoldenTables(const GoldenTables& golden);

// Both passes over the live tables and the paper golden data.
std::vector<Diagnostic> RunArchLint();

enum class MatrixFormat { kCsv, kJson };

// Emits one row per (features, HCR, VNCR, EL, direction, encoding) cell of
// the resolution cross-product.
void WriteResolutionMatrix(std::ostream& os, MatrixFormat format);

}  // namespace neve::analysis

#endif  // NEVE_SRC_ANALYSIS_ARCHLINT_H_
