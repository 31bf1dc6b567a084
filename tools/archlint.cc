// archlint: static verification of the architecture model.
//
// Default mode runs both verification passes (exhaustive resolution sweep,
// paper golden tables) and exits nonzero with file:line diagnostics if any
// invariant is violated. The table rows' own shape is checked when
// src/arch/sysreg.cc compiles.
//
//   archlint                 run all checks
//   archlint --dump-matrix   dump the resolution cross-product as CSV
//   archlint --dump-matrix=json   ... as JSON
//   archlint --dump-matrix=csv -o FILE   write the dump to FILE (-o without
//                                        --dump-matrix is a usage error)

#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "src/analysis/archlint.h"

namespace {

int Usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--dump-matrix[=csv|json] [-o FILE]]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool dump = false;
  neve::analysis::MatrixFormat format = neve::analysis::MatrixFormat::kCsv;
  std::string out_path;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--dump-matrix" || arg == "--dump-matrix=csv") {
      dump = true;
    } else if (arg == "--dump-matrix=json") {
      dump = true;
      format = neve::analysis::MatrixFormat::kJson;
    } else if (arg == "-o" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      return Usage(argv[0]);
    }
  }
  if (!out_path.empty() && !dump) {
    return Usage(argv[0]);
  }

  if (dump) {
    if (!out_path.empty()) {
      std::ofstream out(out_path);
      if (!out) {
        std::cerr << "archlint: cannot open " << out_path << "\n";
        return 2;
      }
      neve::analysis::WriteResolutionMatrix(out, format);
    } else {
      neve::analysis::WriteResolutionMatrix(std::cout, format);
    }
    return 0;
  }

  std::vector<neve::analysis::Diagnostic> diags =
      neve::analysis::RunArchLint();
  if (diags.empty()) {
    std::cout << "archlint: model clean (sweep + golden)\n";
    return 0;
  }
  std::cerr << neve::analysis::FormatDiagnostics(diags);
  std::cerr << "archlint: " << diags.size() << " finding(s)\n";
  return 1;
}
