// Deterministic, seed-driven fault injection for the simulated machine.
//
// A FaultInjector is owned by each Machine (like the obs layer) and handed to
// the CPU, GIC, shadow-S2 and hypervisor layers, which consult it at *named
// injection points*: places where real hardware or a buggy/malicious guest
// could present the stack with off-nominal state -- a dropped or misrouted
// interrupt, a spurious IAR read, corrupted VNCR page contents, a stale
// shadow Stage-2, a torn virtio ring index, a panicking guest hypervisor.
//
// Determinism contract: the injector draws from one xoshiro256** stream per
// machine, and a machine is single-threaded, so the injection log for a given
// (seed, rate, points, workload) is byte-identical across runs and across any
// bench `--threads=` fan-out (parallel bench cells each own a machine and a
// seed). fault_test.cc asserts this.
//
// Zero-cost contract: every instrumentation site is gated on
// `FaultActive(injector)` -- a null check plus one bool load -- mirroring
// ObsActive. With the injector absent or disabled no RNG draw, no logging and
// no behavioural change happens; tools/chaos.sh byte-compares a disabled run
// against an armed-at-rate-zero run to prove the gates are inert.

#ifndef NEVE_SRC_FAULT_FAULT_H_
#define NEVE_SRC_FAULT_FAULT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/obs/attr.h"
#include "src/obs/observability.h"

namespace neve {

namespace snap {
class Serializer;  // src/snap: checkpoints the injector's stream and log
}  // namespace snap

// Every named injection point in the stack. Keep FaultPointName() and
// kNumFaultPoints in sync when adding one.
enum class FaultPoint : uint32_t {
  kShadowS2TranslationFault = 0,  // shadow_s2: drop the shadow before fixup
  kShadowS2ExternalAbort,         // host_kvm: synthesized SEA on an S2 fault
  kGicSpuriousIrq,                // gic: IAR read acks nothing, returns 1023
  kGicDroppedIrq,                 // gic: SPI/PPI/SGI silently swallowed
  kGicMisroutedIrq,               // gic: SPI delivered to the wrong CPU
  kVncrCorruption,                // cpu: deferred sysreg read returns flipped bits
  kVncrStale,                     // cpu: deferred sysreg write never lands
  kVirtioRingCorruption,          // virtio: used.idx torn by the backend
  kGuestHypPanic,                 // guest_kvm: the L1 hypervisor panics
  kTrapLoop,                      // guest_kvm: runaway hypercall storm
  // Migration-transport points (src/snap/migrate.cc). These model failures
  // of the migration *machinery*, not of the guest or the machine: they are
  // consulted only by a MigrationEngine and never on a guest execution path,
  // so arming them cannot perturb guest-visible behaviour.
  kMigrateLinkDrop,          // migrate: a pre-copy round's data never arrives
  kMigrateStreamTruncation,  // migrate: stop-copy stream cut short mid-section
  kMigratePageCorruption,    // migrate: bits flipped in a transferred page
  kMigrateDestOom,           // migrate: destination host cannot stage the VM
  kMigrateSourceCrash,       // migrate: source migration task dies mid-round
  kMigrateCommitRace,        // migrate: commit handshake ack lost in flight
};
inline constexpr int kNumFaultPoints = 16;
inline constexpr int kNumGuestFaultPoints = 10;

const char* FaultPointName(FaultPoint p);

// All *guest-path* points armed (the historical "everything" mask; chaos
// campaigns and their golden logs predate the migration points, which live
// behind their own mask below and fire only inside a MigrationEngine).
inline constexpr uint32_t kAllFaultPoints = (1u << kNumGuestFaultPoints) - 1;

// The migration-transport points (everything from kMigrateLinkDrop up).
inline constexpr uint32_t kMigrateFaultPoints =
    ((1u << kNumFaultPoints) - 1) & ~kAllFaultPoints;

inline constexpr uint32_t FaultPointBit(FaultPoint p) {
  return 1u << static_cast<uint32_t>(p);
}

// Per-machine injection campaign parameters (MachineConfig::fault).
struct FaultConfig {
  // Master switch. When false the injector is inert and every gated site
  // reduces to a single branch.
  bool enabled = false;
  // Seed for the deterministic stream. Same seed + same workload => same log.
  uint64_t seed = 0;
  // Per-opportunity injection probability in [0, 1].
  double rate = 0.0;
  // Bitmask of FaultPointBit(); only armed points draw from the stream.
  uint32_t points = kAllFaultPoints;
  // Cycle budget per host RunVcpu entry; when a guest spends more than this
  // many cycles inside one entry the next trap converts into a confined VM
  // kill (trap-livelock watchdog). 0 disables the watchdog. The kTrapLoop
  // point refuses to fire while the watchdog is off -- an injected infinite
  // trap loop with no watchdog would hang the process.
  uint64_t watchdog_budget = 0;
};

// One injected fault, in injection order.
struct InjectionRecord {
  uint64_t seq = 0;      // 0-based injection sequence number
  FaultPoint point = FaultPoint::kShadowS2TranslationFault;
  int cpu = -1;          // simulated CPU at the injection site (-1: none)
  uint64_t cycles = 0;   // that CPU's cycle clock at injection
  uint64_t detail = 0;   // site-specific (intid, IPA, sysreg encoding, ...)
  // Packed attribution key (attr.h) of the CPU's active frame at injection
  // time (kNoAttrKey when no attribution was wired or cpu is -1); says which
  // (vm, layer, category) the fault landed in -- chaos triage reads this via
  // UnpackAttrKey. Deliberately not part of LogText(): the determinism
  // contract compares that string across configurations that may differ only
  // in attribution wiring.
  uint64_t attr_key = kNoAttrKey;

  bool operator==(const InjectionRecord&) const = default;
};

class FaultInjector {
 public:
  FaultInjector() = default;
  explicit FaultInjector(const FaultConfig& config) { Configure(config); }

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  void Configure(const FaultConfig& config) {
    config_ = config;
    rng_ = Rng(config.seed);
  }
  const FaultConfig& config() const { return config_; }

  // Wired by Machine; injections are mirrored into fault.* metrics and
  // tracer instants when the obs layer is enabled.
  void SetObservability(Observability* obs) { obs_ = obs; }

  // Wired by Machine; when present, each InjectionRecord is tagged with the
  // injecting CPU's current attribution context (attr_key).
  void SetAttribution(const CycleAttribution* attr) { attr_ = attr; }

  // The cheap gate every site checks first (via FaultActive).
  bool armed() const { return config_.enabled; }
  void set_enabled(bool enabled) { config_.enabled = enabled; }

  // Draws from the stream and decides whether the fault fires at this
  // opportunity; when it does, appends an InjectionRecord. Only call behind
  // FaultActive() -- the draw itself perturbs the deterministic stream.
  bool ShouldInject(FaultPoint point, int cpu, uint64_t cycles,
                    uint64_t detail = 0);

  // A deterministic nonzero 64-bit corruption pattern (for XOR-flipping a
  // value at a corruption site).
  uint64_t CorruptBits();

  // --- reconciliation ----------------------------------------------------
  const std::vector<InjectionRecord>& log() const { return log_; }
  uint64_t count(FaultPoint p) const {
    return counts_[static_cast<size_t>(p)];
  }
  uint64_t total_injections() const { return log_.size(); }

  // One line per injection: "<seq> <point> cpu=<c> cycles=<n> detail=0x<x>".
  // The determinism tests compare this string across runs.
  std::string LogText() const;

 private:
  friend class snap::Serializer;

  FaultConfig config_;      // not-snapshotted: campaign parameters, not state
  Rng rng_{0};
  Observability* obs_ = nullptr;           // not-snapshotted: host wiring
  const CycleAttribution* attr_ = nullptr; // not-snapshotted: host wiring
  std::vector<InjectionRecord> log_;
  uint64_t counts_[kNumFaultPoints] = {};
};

// Mirror of ObsActive: true when fault injection is wired and armed. Sites
// do `if (FaultActive(f) && f->ShouldInject(...))`.
inline bool FaultActive(const FaultInjector* f) {
  return f != nullptr && f->armed();
}

}  // namespace neve

#endif  // NEVE_SRC_FAULT_FAULT_H_
