// srclint: repo-convention lint over the simulator sources.
//
//   srclint <repo-root>            lint; exit nonzero on findings
//   srclint --lockset <repo-root>  print the shared-mutation inventory
//
// Scans <repo-root>/src/**.{h,cc} and exits nonzero with file:line
// diagnostics on violations of the rules listed in src/analysis/srclint.h.
//
// --lockset prints the audit's raw material: every member-convention field,
// where it is declared, whether it is GUARDED_BY / single-mutator
// justified, and which TUs mutate it. Informational; always exits 0.

#include <iostream>
#include <string>
#include <vector>

#include "src/analysis/srclint.h"

namespace {

int RunLockset(const std::vector<neve::analysis::SourceFile>& files) {
  for (const neve::analysis::LocksetMember& m :
       neve::analysis::LocksetInventory(files)) {
    if (!m.audited) {
      continue;
    }
    std::cout << m.name << " @ " << m.declared_in << ":" << m.declared_line;
    if (m.guarded) {
      std::cout << " [guarded]";
    }
    if (m.justified) {
      std::cout << " [single-mutator]";
    }
    std::cout << " writers:";
    if (m.writer_tus.empty()) {
      std::cout << " (none)";
    }
    for (const std::string& tu : m.writer_tus) {
      std::cout << " " << tu;
    }
    if (!m.foreign_writes.empty()) {
      std::cout << " FOREIGN:";
      for (const neve::analysis::LocksetWrite& w : m.foreign_writes) {
        std::cout << " " << w.path << ":" << w.line;
      }
    }
    std::cout << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool lockset = false;
  std::string root;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--lockset") {
      lockset = true;
    } else if (root.empty()) {
      root = arg;
    } else {
      root.clear();
      break;
    }
  }
  if (root.empty()) {
    std::cerr << "usage: " << argv[0] << " [--lockset] <repo-root>\n";
    return 2;
  }
  std::vector<neve::analysis::SourceFile> files =
      neve::analysis::LoadRepoSources(root);
  if (files.empty()) {
    std::cerr << "srclint: no sources found under " << root << "/src\n";
    return 2;
  }
  if (lockset) {
    return RunLockset(files);
  }
  std::vector<neve::analysis::Diagnostic> diags =
      neve::analysis::LintSources(files);
  if (diags.empty()) {
    std::cout << "srclint: " << files.size() << " files clean\n";
    return 0;
  }
  std::cerr << neve::analysis::FormatDiagnostics(diags);
  std::cerr << "srclint: " << diags.size() << " finding(s)\n";
  return 1;
}
