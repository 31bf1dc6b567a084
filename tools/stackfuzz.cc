// stackfuzz: coverage-guided differential fuzzer for the nested stack.
//
// Fuzz mode:
//   stackfuzz --seed=7 --runs=10000 [--threads=8] [--corpus-out=DIR]
//             [--keep-going]
// Output and any written seed files are byte-identical for the same
// (seed, runs) regardless of --threads (see src/fuzz/fuzzer.h).
//
// Replay mode:
//   stackfuzz --replay=FILE_OR_DIR [--replay=...] [--threads=N]
// Replays checked-in corpus seeds through the full oracle matrix; exits
// non-zero when any oracle fails. Directories replay every *.seed inside,
// sorted by name. Seeds replay one after another, in that order; --threads
// fans each seed's stack variants out, and never changes the output.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "src/fuzz/fuzzer.h"

namespace {

bool ParseU64(const char* s, uint64_t* out) {
  char* end = nullptr;
  *out = std::strtoull(s, &end, 10);
  return end != s && *end == '\0';
}

int Usage() {
  std::fprintf(stderr,
               "usage: stackfuzz --seed=N --runs=N [--threads=N]\n"
               "                 [--corpus-out=DIR] [--keep-going]\n"
               "       stackfuzz --replay=FILE_OR_DIR [--replay=...]"
               " [--threads=N]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  neve::fuzz::FuzzOptions opts;
  std::vector<std::string> replay;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    uint64_t u = 0;
    if (const char* v = value("--seed=")) {
      if (!ParseU64(v, &opts.seed)) return Usage();
    } else if (const char* v2 = value("--runs=")) {
      if (!ParseU64(v2, &opts.runs)) return Usage();
    } else if (const char* v3 = value("--threads=")) {
      if (!ParseU64(v3, &u)) return Usage();
      opts.threads = static_cast<unsigned>(u);
    } else if (const char* v4 = value("--corpus-out=")) {
      opts.corpus_out = v4;
    } else if (arg == "--keep-going") {
      opts.keep_going = true;
    } else if (const char* v5 = value("--replay=")) {
      replay.push_back(v5);
    } else {
      return Usage();
    }
  }

  if (!replay.empty()) {
    std::vector<std::string> files;
    for (const std::string& r : replay) {
      if (std::filesystem::is_directory(r)) {
        for (const auto& e : std::filesystem::directory_iterator(r)) {
          if (e.path().extension() == ".seed") {
            files.push_back(e.path().string());
          }
        }
      } else {
        files.push_back(r);
      }
    }
    std::sort(files.begin(), files.end());
    if (files.empty()) {
      std::cout << "[stackfuzz] no seed files to replay\n";
      return 0;
    }
    int failed = 0;
    for (const std::string& f : files) {
      if (!neve::fuzz::ReplaySeedFile(f, std::cout, opts.threads)) {
        ++failed;
      }
    }
    std::cout << "[stackfuzz] replayed " << files.size() << " seed(s), "
              << failed << " failure(s)\n";
    return failed == 0 ? 0 : 1;
  }

  neve::fuzz::Fuzzer fuzzer(opts);
  return fuzzer.Run(std::cout) == 0 ? 0 : 1;
}
