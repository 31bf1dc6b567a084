// The coverage-guided campaign engine.
//
// Determinism contract: Run() output (and the corpus/failure files written)
// is a pure function of (seed, runs) -- independent of --threads and of
// wall-clock anything. The engine achieves this by working in fixed-size
// batches: inputs for a batch are generated serially from per-case seeds
// (DigestOf(master_seed, case_index)) against a corpus frozen at the start
// of the batch, one pure RunCases call runs every stack variant of every
// case across the threads, and results merge serially in case order
// (coverage accounting, corpus growth, minimization and reporting all
// happen on the merge path). Minimization is a sequence of pure re-runs in
// rounds: at more than one thread a round runs the next two candidates the
// one-at-a-time loop would try if the first were rejected, in one RunCases
// call, and reads them in order up to the first kept one. Runs past it are
// discarded uncounted, so `execs`, the re-run budget and every kept byte
// match the one-at-a-time loop at every thread count (see Shrink).

#ifndef NEVE_SRC_FUZZ_FUZZER_H_
#define NEVE_SRC_FUZZ_FUZZER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "src/fuzz/harness.h"
#include "src/obs/coverage.h"

namespace neve::fuzz {

struct FuzzOptions {
  uint64_t seed = 1;
  uint64_t runs = 1000;          // fuzz cases (each runs 2 to 8 stack variants)
  unsigned threads = 1;
  std::string corpus_out;        // directory for seed files ("" = don't write)
  bool keep_going = false;       // keep fuzzing past the first oracle failure
  uint64_t minimize_budget = 96; // RunCase executions per minimization
};

struct FailureRecord {
  uint64_t case_index = 0;
  std::string failure;
  std::vector<uint8_t> bytes;  // minimized reproducer
  std::string file;            // written seed file ("" when not writing)
};

class Fuzzer {
 public:
  explicit Fuzzer(const FuzzOptions& opts) : opts_(opts) {}

  // Runs the campaign, streaming deterministic progress/report lines to
  // `out`. Returns the number of oracle failures (0 = clean).
  int Run(std::ostream& out);

  const std::vector<FailureRecord>& failures() const { return failures_; }
  uint64_t cases_run() const { return cases_run_; }
  uint64_t execs() const { return execs_; }
  uint64_t corpus_size() const { return corpus_.size(); }
  uint64_t coverage_bits() const { return bitmap_.bits_set(); }

 private:
  std::vector<uint8_t> GenerateInput(uint64_t case_index) const;
  // Shrink on RunCases at the campaign's thread count, two candidates per
  // round at more than one thread.
  std::vector<uint8_t> Minimize(
      const std::vector<uint8_t>& bytes,
      const std::function<bool(const CaseResult&)>& keep, uint64_t budget,
      CaseResult* last_kept);
  std::vector<uint8_t> MinimizeFailure(const std::vector<uint8_t>& bytes,
                                       const std::string& failure);
  std::vector<uint8_t> MinimizeForCoverage(const std::vector<uint8_t>& bytes,
                                           CaseResult* result);
  std::string WriteCorpusFile(const char* prefix, uint64_t case_index,
                              const std::vector<uint8_t>& bytes,
                              const std::string& comment);

  FuzzOptions opts_;
  CoverageBitmap bitmap_;
  std::vector<std::vector<uint8_t>> corpus_;
  std::vector<FailureRecord> failures_;
  uint64_t cases_run_ = 0;
  uint64_t execs_ = 0;
};

// Runs one round of shrink candidates: one result per candidate, in order.
using CandidateRunner = std::function<std::vector<CaseResult>(
    const std::vector<std::vector<uint8_t>>& candidates)>;

// Greedy chunked shrinking: deletes chunks of `bytes` (halving the chunk
// size down to one byte), keeping each deletion whose re-run `keep`
// accepts, until the input is one byte long, no deletion is left or
// `*budget` re-runs are spent. Each round hands `run` the next `per_round`
// candidates the one-at-a-time loop (per_round = 1) would try if every
// earlier one were rejected, and reads their results in order up to the
// first kept one; later results are discarded uncounted. Every read result
// adds its execs to `*execs` and takes one from `*budget`, so the returned
// bytes, `*execs`, `*budget` and `*last_kept` (the last kept result, when
// not null) do not depend on `per_round`.
std::vector<uint8_t> Shrink(std::vector<uint8_t> bytes,
                            const std::function<bool(const CaseResult&)>& keep,
                            size_t per_round, const CandidateRunner& run,
                            uint64_t* budget, uint64_t* execs,
                            CaseResult* last_kept);

// --- replayable seed files ---------------------------------------------------
// Format: "# stackfuzz seed v1" header, optional "# ..." comment lines, then
// the input bytes in hex (64 chars per line).
void WriteSeedFile(const std::string& path, const std::vector<uint8_t>& bytes,
                   const std::string& comment);
std::optional<std::vector<uint8_t>> LoadSeedFile(const std::string& path);

// Replays one seed file through the oracle matrix, its stack variants fanned
// out across `threads`; prints "<path>: OK" or the failure. Returns true when
// every oracle passed.
bool ReplaySeedFile(const std::string& path, std::ostream& out,
                    unsigned threads = 1);

}  // namespace neve::fuzz

#endif  // NEVE_SRC_FUZZ_FUZZER_H_
