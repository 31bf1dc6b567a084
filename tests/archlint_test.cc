// Tests for the archlint verification passes.
//
// Two halves: the live model must come back clean from both passes, and the
// golden checks must demonstrably fire when a violation is seeded into the
// golden data -- a linter whose checks cannot fail verifies nothing. The
// table rows' own checks are compile-time asserts, which the table_asserts
// ctest seeds.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "src/analysis/archlint.h"
#include "src/analysis/golden_tables.h"
#include "src/analysis/model.h"

namespace neve::analysis {
namespace {

bool HasCheck(const std::vector<Diagnostic>& diags, const std::string& check) {
  return std::any_of(diags.begin(), diags.end(), [&](const Diagnostic& d) {
    return d.check == check;
  });
}

// --- the live tree is clean --------------------------------------------------

TEST(ArchLintTest, ResolutionSweepIsClean) {
  std::vector<Diagnostic> d = SweepResolution();
  EXPECT_TRUE(d.empty()) << FormatDiagnostics(d);
}

TEST(ArchLintTest, PaperGoldenTablesMatch) {
  std::vector<Diagnostic> d = CheckGoldenTables(GoldenTables::Paper());
  EXPECT_TRUE(d.empty()) << FormatDiagnostics(d);
}

// --- seeded violations flip checks to FAIL -----------------------------------

TEST(ArchLintSeededTest, PerturbedGoldenClassIsCaught) {
  GoldenTables g = GoldenTables::Paper();
  // Claim CNTHCTL_EL2 is a full redirect register: the model (correctly)
  // classifies it trap-on-write, so both the membership check and the
  // behavioural probe must fire.
  g.table4_trap_on_write.clear();
  g.table4_redirect.push_back("CNTHCTL_EL2");
  std::vector<Diagnostic> d = CheckGoldenTables(g);
  EXPECT_TRUE(HasCheck(d, "golden-class-mismatch")) << FormatDiagnostics(d);
}

TEST(ArchLintSeededTest, GoldenTableOmissionIsCaught) {
  GoldenTables g = GoldenTables::Paper();
  // Drop a register the model classifies: the reverse containment check
  // must notice the model knows more than the "paper".
  ASSERT_FALSE(g.table5_gic_cached.empty());
  g.table5_gic_cached.pop_back();
  EXPECT_TRUE(HasCheck(CheckGoldenTables(g), "golden-extra-register"));
}

TEST(ArchLintSeededTest, UnknownGoldenRegisterIsCaught) {
  GoldenTables g = GoldenTables::Paper();
  g.table3_vm_trap_control.push_back("TOTALLY_FAKE_EL2");
  EXPECT_TRUE(HasCheck(CheckGoldenTables(g), "golden-missing-register"));
}

TEST(ArchLintSeededTest, GoldenProbeNamesTheRegisterReached) {
  GoldenTables g = GoldenTables::Paper();
  // Claim AFSR0_EL2 is a Table 3 deferred register: the model redirects it
  // to AFSR0_EL1, and the probe's diagnostic must say so by name.
  auto& redirect = g.table4_redirect;
  auto it = std::find(redirect.begin(), redirect.end(), "AFSR0_EL2");
  ASSERT_NE(it, redirect.end());
  redirect.erase(it);
  g.table3_vm_trap_control.push_back("AFSR0_EL2");
  std::vector<Diagnostic> d = CheckGoldenTables(g);
  EXPECT_TRUE(std::any_of(d.begin(), d.end(), [](const Diagnostic& x) {
    return x.check == "golden-table3-deferred" &&
           x.message.find("AFSR0_EL1") != std::string::npos;
  })) << FormatDiagnostics(d);
}

// --- diagnostics carry usable locations --------------------------------------

TEST(ArchLintTest, TableRowsHaveSourceLines) {
  // Rows appear in .inc order, so line numbers are positive and strictly
  // increasing.
  int prev = 0;
  for (int r = 0; r < kNumRegIds; ++r) {
    auto reg = static_cast<RegId>(r);
    EXPECT_GT(RegDefLine(reg), prev) << RegName(reg);
    prev = RegDefLine(reg);
  }
  prev = 0;
  for (int e = 0; e < kNumSysRegs; ++e) {
    auto enc = static_cast<SysReg>(e);
    EXPECT_GT(EncDefLine(enc), prev) << SysRegName(enc);
    prev = EncDefLine(enc);
  }
}

TEST(ArchLintTest, DiagnosticToStringIsFileLineFormatted) {
  Diagnostic d{"src/arch/regid_defs.inc", 42, "some-check", "message"};
  EXPECT_EQ(d.ToString(), "src/arch/regid_defs.inc:42: [some-check] message");
  Diagnostic whole_file{"src/cpu/cpu.cc", 0, "c", "m"};
  EXPECT_EQ(whole_file.ToString(), "src/cpu/cpu.cc: [c] m");
}

// --- matrix dump -------------------------------------------------------------

TEST(MatrixDumpTest, CsvHasHeaderAndFullCrossProduct) {
  std::ostringstream oss;
  WriteResolutionMatrix(oss, MatrixFormat::kCsv);
  std::string out = oss.str();
  ASSERT_EQ(out.rfind("features,el,e2h,nv,nv1,vncr,write,encoding,kind,"
                      "target,mem_offset\n",
                      0),
            0u);
  // 4 feature generations x {v8.0,vhe,nv: 8 HCR combos; neve: 8 x 2 VNCR}
  // x 3 ELs x 2 directions x all encodings, plus the header line.
  size_t rows = static_cast<size_t>(std::count(out.begin(), out.end(), '\n'));
  EXPECT_EQ(rows, 1u + (3u * 8 + 16) * 3 * 2 * kNumSysRegs);
  // A known NEVE deferral shows up with its page offset.
  EXPECT_NE(out.find("neve,EL1,0,1,1,1,0,HCR_EL2,memory,HCR_EL2,"),
            std::string::npos);
}

TEST(MatrixDumpTest, JsonRowsMatchCsvRows) {
  std::ostringstream csv;
  std::ostringstream json;
  WriteResolutionMatrix(csv, MatrixFormat::kCsv);
  WriteResolutionMatrix(json, MatrixFormat::kJson);
  std::string c = csv.str();
  std::string j = json.str();
  size_t csv_rows =
      static_cast<size_t>(std::count(c.begin(), c.end(), '\n')) - 1;
  size_t json_rows =
      static_cast<size_t>(std::count(j.begin(), j.end(), '{'));
  EXPECT_EQ(csv_rows, json_rows);
  EXPECT_EQ(j.front(), '[');
}

}  // namespace
}  // namespace neve::analysis
