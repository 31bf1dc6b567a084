// Paired-stack execution of a fuzzed guest program, plus the differential
// oracles.
//
// One *case* (a decoded Program) runs through several stack variants; each
// variant produces a RunResult carrying two digests:
//
//   full_digest  everything the variant computed -- per-op values, per-op
//                trap deltas, final architectural state, cycle count, trap
//                count, status, fault log. Two runs differing only in the
//                resolution-cache setting must produce IDENTICAL full
//                digests: the cache is a simulator fast-path and must be
//                invisible, cycles included.
//
//   arch_digest  the architecture-independent guest-visible view -- values
//                the guest program read (minus live counters/GIC state),
//                op/irq/nested-entry counts, how the program ended. An
//                ARMv8.3-NV stack and a NEVE stack running the same program
//                must produce IDENTICAL arch digests: NEVE changes *where*
//                accesses resolve and how often they trap, never what
//                software observes (the paper's transparency claim).
//
// Per-op oracles run inside the executor:
//
//   trap-predict  before each sysreg access the executor consults
//                 ResolveSysRegAccess (the same pure function archlint
//                 verifies against the paper tables) and checks the observed
//                 trap delta: non-trapping resolutions take zero traps; a
//                 predicted trap takes exactly one in a single-level stack
//                 (>= 1 at L2, where forwarding multiplies exits).
//
//   vel2-golden   a shadow model of the virtual-EL2 register file: values
//                 written from virtual EL2 to plain-storage registers must
//                 read back unchanged, whether they landed in a trapped
//                 vreg, the deferred access page, or a redirected EL1
//                 register. Registers the host legitimately rewrites
//                 (exception frames, GIC, timers) are excluded.
//
// Both per-op oracles are disabled when fault injection is armed (faults
// perturb trap counts and redirected values by design); the cache-identity
// oracle is NOT -- fault campaigns draw from a seeded stream keyed by
// machine behaviour the cache must not alter.

#ifndef NEVE_SRC_FUZZ_HARNESS_H_
#define NEVE_SRC_FUZZ_HARNESS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/fault/fault.h"
#include "src/fuzz/program.h"

namespace neve::fuzz {

struct VariantSpec {
  bool neve = false;          // ARMv8.4 NEVE stack vs plain ARMv8.3-NV
  bool cache_enabled = true;  // sysreg resolution cache on/off
  bool snap_restore = false;  // split the run: checkpoint mid-program,
                              // restore into a fresh stack, finish there
                              // (mode B only; requires cfg.snap_restore)
  bool batch = false;         // batched superblock engine (src/sim/batch) on:
                              // trap-free runs execute as one batched step;
                              // must be byte-invisible (full identity)
  FaultConfig fault{};        // armed => fault dimension
};

struct RunResult {
  Status status;
  bool died = false;  // program ended in a confined guest fault
  uint64_t ops_executed = 0;
  uint64_t irqs_taken = 0;
  uint64_t receiver_irqs = 0;  // deliveries observed by the SMP receiver vCPU
  uint64_t nested_entries = 0;
  uint64_t full_digest = 0;
  uint64_t arch_digest = 0;
  uint64_t end_cycles = 0;
  uint64_t traps = 0;
  std::string fault_log;
  std::vector<uint64_t> features;
  std::vector<std::string> violations;  // per-op oracle failures
};

RunResult RunProgramVariant(const Program& program, const VariantSpec& v);

struct CaseResult {
  bool ok = true;
  std::string failure;  // "<oracle>: detail" for the first failed oracle
  uint64_t execs = 0;   // stack variants executed
  std::vector<uint64_t> features;
};

// Runs the full oracle matrix for one input:
//   fault armed:  one architecture, cache on vs off (full identity).
//   otherwise:    {v8.3, NEVE} x {cache on, cache off}; cache identity per
//                 architecture, per-op oracles per run, transparency across
//                 architectures. When cfg.snap_restore is armed, each
//                 architecture additionally runs once as a checkpoint/
//                 restore split (capture mid-program, restore into a fresh
//                 Machine, finish there) and must reproduce the
//                 uninterrupted run's digests byte-for-byte -- a snapshot
//                 is a simulator artifact and must be invisible to the
//                 guest, cycles and trap counts included. When cfg.batch is
//                 armed, each architecture additionally runs once with the
//                 batched superblock engine enabled, under the same full-
//                 identity demand (batching is a simulator fast path, like
//                 the resolution cache).
//
// Every variant the program needs (the fault pair, or the four base variants
// plus the batch and snapshot-split pairs the header arms) runs first; the
// oracles then check the results serially, in the order above, stopping at
// the first failure. `execs` counts only the variants whose oracle stage was
// reached (2 for the fault pair; otherwise 4, +2 batch, +2 snap). Because
// the batch and snap variants run before the base oracles are checked, a
// case that fails a base oracle and would also panic in a later variant
// aborts -- at every thread count.
//
// RunCases runs every variant of every input in one fan-out across
// `threads` workers, into index-addressed slots, then judges each input on
// its own: result i is what RunCase(inputs[i]) returns. The thread count
// never changes a result. RunCase is the one-input case.
std::vector<CaseResult> RunCases(
    const std::vector<std::vector<uint8_t>>& inputs, unsigned threads = 1);
CaseResult RunCase(const std::vector<uint8_t>& bytes, unsigned threads = 1);

}  // namespace neve::fuzz

#endif  // NEVE_SRC_FUZZ_HARNESS_H_
