// Resolution fast-path cache: memoizes ResolveSysRegAccess results.
//
// The outcome of a system-register access depends on (encoding, EL,
// direction) plus the machine configuration: the implemented features
// (immutable per CPU), HCR_EL2 and VNCR_EL2. The configuration changes only
// when the host hypervisor writes HCR_EL2 or VNCR_EL2, which is rare
// compared with the millions of sysreg accesses a bench run executes -- so
// steady-state accesses can skip the full E2H/NV/NEVE decision tree and load
// a previously computed AccessResolution from a flat table.
//
// Invalidation is generation-based: every entry is stamped with the
// generation it was filled under, and anything that makes the configuration
// unknown moves to a fresh generation, making stale entries unreachable in
// O(1). On top of that sits a small set of *banks*, one per recently seen
// (HCR_EL2, VNCR_EL2) value pair. The Cpu reports every write (cycle-charged
// or simulator Poke) to those registers via OnConfigChange(); rewriting the
// same values is a no-op, and toggling between configurations -- the
// world-switch pattern, where the host flips guest trap controls in and out
// around every trap -- lands back in the still-warm bank for that
// configuration instead of discarding the cache twice per trap. Only a
// genuinely new configuration pays a bank eviction (fresh generation).
// Features never change after construction, so no hook is needed for them.
//
// A nested round trip visits up to six configurations: on NEVE stacks the
// (HCR, VNCR) pairs (G,P), (H,P), (H,0), (G,0), (N,P) and (N,0), where H, G
// and N are the host's, the guest hypervisor's and the nested VM's HCR and
// P/0 is VNCR with the deferred page set or cleared. SwitchIntoGuest writes
// HCR before VNCR, which is what creates the mixed pairs. Eight banks hold
// all six, so steady-state nested traps take no misses and no evictions,
// and the generations the Cpu's list plans key on stay put.
//
// The fingerprint is the registers' full values, not the subset of bits the
// resolution pipeline currently reads: value-identity can never go stale
// against trap_rules.cc changes, and the cost is only that a write flipping
// an irrelevant bit re-fills a bank it could in principle have kept.
//
// This is a host-side speedup only. Cycle charging, trap behaviour and every
// architectural outcome are unchanged: archlint's SweepResolution runs a
// cached-vs-uncached differential over the full ~200k-cell cross-product,
// and `archlint --dump-matrix` must be byte-identical with the cache on and
// off (tools/ci.sh smoke stage).

#ifndef NEVE_SRC_CPU_RESOLUTION_CACHE_H_
#define NEVE_SRC_CPU_RESOLUTION_CACHE_H_

#include <array>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "src/cpu/trap_rules.h"

namespace neve {

class ResolutionCache {
 public:
  static constexpr size_t kNumEls = 3;  // EL0, EL1, EL2
  static constexpr size_t kNumSlots =
      static_cast<size_t>(kNumSysRegs) * kNumEls * 2;
  // Distinct (HCR_EL2, VNCR_EL2) configurations kept warm at once: the six
  // of a NEVE round trip (see above) plus headroom.
  static constexpr size_t kNumBanks = 8;

  // Leaves every bank's slots uninitialized, so a Cpu's construction pays
  // no 50 KB fill: a bank's slots are zeroed when it first takes a
  // generation (Claim), and only the current bank is ever read.
  ResolutionCache() {
    Claim(banks_[0]);
    banks_[0].tagged = true;  // the reset configuration: HCR = VNCR = 0
  }

  // Hot-path probe: fills *out with the memoized resolution and returns
  // true, or returns false on a miss. Deliberately takes no AccessContext --
  // a hit must not pay for building one (that construction reads HCR_EL2/
  // VNCR_EL2 and copies the feature set, which on a hit is all wasted
  // work). The caller resolves misses itself and stores the result with
  // Insert().
  bool Lookup(SysReg enc, El el, bool is_write, AccessResolution* out) {
    const Bank& b = banks_[current_];
    const Entry& e = b.slots[SlotIndex(enc, el, is_write)];
    if (e.stamp != Stamp(b.generation)) {
      ++misses_;
      return false;
    }
    ++hits_;
    *out = e.Unpack();
    return true;
  }

  // Memoizes a freshly computed resolution under the current generation.
  void Insert(SysReg enc, El el, bool is_write, const AccessResolution& res) {
    Bank& b = banks_[current_];
    b.slots[SlotIndex(enc, el, is_write)] = Entry::Pack(Stamp(b.generation),
                                                        res);
  }

  // Convenience wrapper used by archlint's differential sweeps: one array
  // load on a hit, a full ResolveSysRegAccess walk (then memoized) on a
  // miss. `ctx.el` must match the EL the caller keys with -- the context's
  // feature/HCR/VNCR state is what the current generation stands for.
  AccessResolution Resolve(const AccessContext& ctx, SysReg enc,
                           bool is_write, bool* was_hit = nullptr) {
    AccessResolution res;
    bool hit = Lookup(enc, ctx.el, is_write, &res);
    if (was_hit != nullptr) {
      *was_hit = hit;
    }
    if (!hit) {
      res = ResolveSysRegAccess(ctx, enc, is_write);
      Insert(enc, ctx.el, is_write, res);
    }
    return res;
  }

  // Reports the post-write (HCR_EL2, VNCR_EL2) values. Switches to the bank
  // memoized for that configuration (possibly the current one: a rewrite of
  // identical values is a no-op), or recycles the least-recently-used bank
  // under a fresh generation when the configuration is new.
  void OnConfigChange(uint64_t hcr, uint64_t vncr) {
    ++tick_;
    Bank& cur = banks_[current_];
    if (cur.tagged && cur.hcr == hcr && cur.vncr == vncr) {
      cur.last_used = tick_;
      return;
    }
    for (size_t i = 0; i < kNumBanks; ++i) {
      Bank& b = banks_[i];
      if (b.tagged && b.hcr == hcr && b.vncr == vncr) {
        b.last_used = tick_;
        current_ = i;
        ++revalidations_;
        return;
      }
    }
    size_t victim = 0;
    for (size_t i = 1; i < kNumBanks; ++i) {
      if (banks_[i].last_used < banks_[victim].last_used) {
        victim = i;
      }
    }
    Bank& b = banks_[victim];
    Claim(b);
    b.hcr = hcr;
    b.vncr = vncr;
    b.tagged = true;
    b.last_used = tick_;
    current_ = victim;
    ++invalidations_;
  }

  // Drops every memoized resolution in O(1): the current bank moves to a
  // fresh generation and every bank's configuration tag is cleared, so
  // nothing can revalidate by fingerprint either. This is the blunt hammer
  // for callers that change configuration without going through
  // OnConfigChange (archlint's sweeps build AccessContexts directly).
  void Invalidate() {
    for (Bank& b : banks_) {
      b.tagged = false;
    }
    Claim(banks_[current_]);
    ++invalidations_;
  }

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  // The current bank's generation: a value-identity fingerprint of the live
  // (HCR_EL2, VNCR_EL2) configuration, moved by every OnConfigChange to a
  // genuinely new configuration and *restored* when a warm one returns. The
  // batch engine (src/sim/batch) keys compiled superblocks on it, which is
  // how "invalidate formed blocks on any trap-config write" reuses this
  // cache's generation machinery instead of growing its own. Maintained
  // even with the cache disabled (OnConfigChange is called unconditionally).
  // Never reused: a generation names one bank fill for the cache's life.
  uint64_t config_generation() const { return banks_[current_].generation; }
  // The bank holding the live configuration. Each bank holds one
  // generation at a time, which is what lets Cpu index its list plans by
  // bank without two live keys ever sharing a slot.
  size_t current_bank() const { return current_; }

  // Counts `n` hits served outside Lookup: a planned list transfer
  // (Cpu::ReadList/WriteList) whose entries this generation already holds.
  void AddHits(uint64_t n) { hits_ += n; }

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t invalidations() const { return invalidations_; }
  uint64_t revalidations() const { return revalidations_; }

  // Test seam: moves the generation counter to the end of its 32-bit stamp
  // range, so the next fresh generation wraps the stamps (Claim) without
  // 2^32 configuration changes first.
  void SkipToStampWrapForTest() { next_generation_ |= 0xFFFF'FFFFull; }

 private:
  // One memoized resolution in eight bytes, so eight banks fit in less
  // memory than four banks of unpacked entries did: a 32-bit generation
  // stamp, the target register, and the kind and VNCR page offset in one
  // half-word. Trivially default-constructible, so a bank's slots stay
  // uninitialized until the bank is claimed; a zeroed entry is unfilled.
  struct Entry {
    uint32_t stamp;  // valid iff == Stamp(owning bank's generation)
    RegId target;
    uint16_t kind : 3;
    uint16_t mem_offset : 13;

    static Entry Pack(uint32_t stamp, const AccessResolution& r) {
      return {.stamp = stamp,
              .target = r.target,
              .kind = static_cast<uint16_t>(r.kind),
              .mem_offset = static_cast<uint16_t>(r.mem_offset)};
    }
    AccessResolution Unpack() const {
      return {.kind = static_cast<AccessResolution::Kind>(kind),
              .target = target,
              .mem_offset = mem_offset};
    }
  };
  static_assert(sizeof(Entry) == 8);
  static_assert(std::is_trivially_default_constructible_v<Entry>);
  static_assert(kDeferredPageSize <= (1u << 13), "mem_offset is 13 bits");

  struct Bank {
    std::array<Entry, kNumSlots> slots;  // zeroed by Claim before first use
    uint64_t hcr = 0;
    uint64_t vncr = 0;
    uint64_t generation = 0;  // 0: slots not zeroed since construction/wrap
    uint64_t last_used = 0;
    bool tagged = false;  // hcr/vncr identify a real configuration
  };

  static size_t SlotIndex(SysReg enc, El el, bool is_write) {
    return (static_cast<size_t>(enc) * kNumEls + static_cast<size_t>(el)) * 2 +
           (is_write ? 1 : 0);
  }

  static uint32_t Stamp(uint64_t generation) {
    return static_cast<uint32_t>(generation);
  }

  // Gives `b` the next generation, the only way a bank becomes current
  // under a new one. Stamps are a generation's low 32 bits and zero means
  // "never filled". A bank whose generation is 0 has not been zeroed since
  // construction or since the stamps last wrapped, so its slots are zeroed
  // now, before anything can look them up. When the stamps wrap, every bank
  // tag is dropped and every generation set to 0: no old stamp can then
  // match a new generation, and no bank is revalidated into stale entries.
  void Claim(Bank& b) {
    ++next_generation_;
    if (Stamp(next_generation_) == 0) {
      for (Bank& other : banks_) {
        other.tagged = false;
        other.generation = 0;
      }
      ++next_generation_;
    }
    if (b.generation == 0) {
      std::memset(b.slots.data(), 0, sizeof(b.slots));
    }
    b.generation = next_generation_;
  }

  // not-snapshotted: the whole cache is a cycle-invisible fast path,
  // rebuilt via InvalidateResolutionsFor/OnConfigChange after restore.
  std::array<Bank, kNumBanks> banks_;
  size_t current_ = 0;  // not-snapshotted: see banks_
  // Zero-filled entries are stale in every bank, since no generation's
  // stamp is 0; bank 0 claims generation 1 at construction and is tagged
  // with the reset configuration (HCR_EL2 = VNCR_EL2 = 0), matching a fresh
  // Cpu.
  uint64_t next_generation_ = 0;  // not-snapshotted: see banks_
  uint64_t tick_ = 0;             // not-snapshotted: see banks_
  uint64_t hits_ = 0;             // not-snapshotted: host-side metric
  uint64_t misses_ = 0;           // not-snapshotted: host-side metric
  uint64_t invalidations_ = 0;    // not-snapshotted: host-side metric
  uint64_t revalidations_ = 0;    // not-snapshotted: host-side metric
  bool enabled_ = true;  // not-snapshotted: fixed by MachineConfig
};

}  // namespace neve

#endif  // NEVE_SRC_CPU_RESOLUTION_CACHE_H_
