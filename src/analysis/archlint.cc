#include "src/analysis/archlint.h"

#include <iterator>
#include <map>
#include <optional>
#include <ostream>
#include <set>
#include <sstream>
#include <string>
#include <utility>

#include "src/arch/esr.h"
#include "src/arch/features.h"
#include "src/arch/hcr.h"
#include "src/base/bits.h"
#include "src/cpu/cost_model.h"
#include "src/cpu/resolution_cache.h"
#include "src/cpu/trap_rules.h"

namespace neve::analysis {
namespace {

// A runaway model produces the same diagnostic for thousands of cells; cap
// the output so a broken tree still prints something readable.
constexpr size_t kMaxDiagnostics = 200;

bool Full(std::vector<Diagnostic>& diags) {
  if (diags.size() < kMaxDiagnostics) {
    return false;
  }
  if (diags.size() == kMaxDiagnostics) {
    diags.push_back({"", 0, "truncated",
                     "diagnostic limit reached; further findings suppressed"});
  }
  return true;
}

void Diag(std::vector<Diagnostic>& diags, std::string file, int line,
          std::string check, std::string message) {
  if (!Full(diags)) {
    diags.push_back(
        {std::move(file), line, std::move(check), std::move(message)});
  }
}

const char* KindName(AccessResolution::Kind k) {
  switch (k) {
    case AccessResolution::Kind::kRegister:
      return "register";
    case AccessResolution::Kind::kGicCpuIf:
      return "gic";
    case AccessResolution::Kind::kMemory:
      return "memory";
    case AccessResolution::Kind::kTrapEl2:
      return "trap";
    case AccessResolution::Kind::kUndefined:
      return "undef";
  }
  return "?";
}

// --- sweep configuration -----------------------------------------------------

struct FeatureCase {
  const char* name;
  ArchFeatures f;
};

ArchFeatures NeveWithout(bool deferred, bool redirect, bool cached) {
  ArchFeatures f = ArchFeatures::Armv84Neve();
  f.neve_deferred = deferred;
  f.neve_redirect = redirect;
  f.neve_cached = cached;
  return f;
}

const FeatureCase kFeatureCases[] = {
    {"v8.0", ArchFeatures::Armv80()},
    {"v8.1-vhe", ArchFeatures::Armv81Vhe()},
    {"v8.3-nv", ArchFeatures::Armv83Nv()},
    {"neve", ArchFeatures::Armv84Neve()},
    {"neve-no-deferred", NeveWithout(false, true, true)},
    {"neve-no-redirect", NeveWithout(true, false, true)},
    {"neve-no-cached", NeveWithout(true, true, false)},
};

// HCR bit subsets swept: E2H, NV, NV1, IMO.
constexpr unsigned kSweptHcrBits[] = {HcrBits::kE2h, HcrBits::kNv,
                                      HcrBits::kNv1, HcrBits::kImo};

uint64_t HcrFromMask(unsigned combo) {
  uint64_t bits = 0;
  for (size_t i = 0; i < std::size(kSweptHcrBits); ++i) {
    if ((combo >> i) & 1u) {
      bits = SetBit(bits, kSweptHcrBits[i]);
    }
  }
  return bits;
}

std::string DescribeContext(const FeatureCase& fc, const AccessContext& ctx,
                            bool is_write) {
  std::ostringstream oss;
  oss << "features=" << fc.name << " el=" << ElName(ctx.el) << " hcr=";
  bool any = false;
  auto bit = [&](bool on, const char* name) {
    if (on) {
      oss << (any ? "|" : "") << name;
      any = true;
    }
  };
  bit(ctx.hcr.e2h(), "E2H");
  bit(ctx.hcr.nv(), "NV");
  bit(ctx.hcr.nv1(), "NV1");
  bit(ctx.hcr.imo(), "IMO");
  if (!any) {
    oss << "0";
  }
  oss << " vncr=" << (ctx.vncr_enabled ? 1 : 0)
      << (is_write ? " write" : " read");
  return oss.str();
}

bool SameResolution(const AccessResolution& a, const AccessResolution& b) {
  return a.kind == b.kind && a.target == b.target &&
         a.mem_offset == b.mem_offset;
}

}  // namespace

// --- pass 1: exhaustive resolution sweep -------------------------------------

std::vector<Diagnostic> SweepResolution() {
  std::vector<Diagnostic> d;

  const CostModel cost = CostModel::Default();
  if (cost.trap_entry == 0 || cost.trap_return == 0 ||
      cost.sysreg_access == 0 || cost.mem_access == 0 ||
      cost.gic_vcpuif_access == 0) {
    Diag(d, "src/cpu/cost_model.h", 0, "cost-model-entries",
         "a resolution outcome has no nonzero cost-model entry");
  }

  // ESR round-trip is per (encoding, direction); dedup across contexts.
  std::set<std::pair<int, bool>> esr_checked;

  // The fast-path cache, differentially checked against the plain tree walk
  // on every cell. Feature/HCR/VNCR changes happen at the loop boundaries
  // below; Invalidate() there mirrors the CPU's configuration-write hook
  // (features are immutable per CPU, so the CPU itself only ever invalidates
  // on HCR_EL2/VNCR_EL2 writes).
  ResolutionCache cache;

  for (const FeatureCase& fc : kFeatureCases) {
    for (unsigned combo = 0; combo < (1u << std::size(kSweptHcrBits));
         ++combo) {
      for (bool vncr : {false, true}) {
        if (vncr && !fc.f.neve) {
          continue;  // VNCR enable is meaningless pre-NEVE
        }
        cache.Invalidate();  // new configuration: all cached cells are stale
        for (El el : {El::kEl0, El::kEl1, El::kEl2}) {
          AccessContext ctx{.features = fc.f,
                            .el = el,
                            .hcr = Hcr{HcrFromMask(combo)},
                            .vncr_enabled = vncr};
          const bool nv_active = fc.f.nv && ctx.hcr.nv();
          const bool neve_active = fc.f.neve && nv_active && vncr;

          for (int e = 0; e < kNumSysRegs; ++e) {
            auto enc = static_cast<SysReg>(e);
            const RegId storage = SysRegStorage(enc);
            const El min_el = SysRegMinEl(enc);
            for (bool w : {false, true}) {
              if (Full(d)) {
                return d;
              }
              AccessResolution res = ResolveSysRegAccess(ctx, enc, w);
              auto fail = [&](const char* check, const std::string& msg) {
                Diag(d, kSysRegDefsPath, EncDefLine(enc), check,
                     std::string(SysRegName(enc)) + " [" +
                         DescribeContext(fc, ctx, w) + " -> " +
                         KindName(res.kind) + "] " + msg);
              };

              // Determinism: the pipeline is a pure function of its inputs.
              if (!SameResolution(res, ResolveSysRegAccess(ctx, enc, w))) {
                fail("resolve-deterministic",
                     "two identical resolutions disagree");
              }

              // Cached-vs-uncached differential: the first cache resolve
              // fills the slot, the second must hit it; both must agree with
              // the plain tree walk on every cell of the cross-product.
              bool hit = false;
              AccessResolution cached = cache.Resolve(ctx, enc, w, &hit);
              AccessResolution cached_again = cache.Resolve(ctx, enc, w, &hit);
              if (!SameResolution(cached, res) ||
                  !SameResolution(cached_again, res)) {
                fail("cache-differential",
                     "fast-path cache resolution diverges from the tree walk");
              }
              if (!hit) {
                fail("cache-hit-after-fill",
                     "second cache resolve of an unchanged configuration "
                     "missed");
              }

              // Access kinds (RO/WO) are honored at every EL and config.
              const Rw rw = SysRegRw(enc);
              if ((w && rw == Rw::kRO) || (!w && rw == Rw::kWO)) {
                if (res.kind != AccessResolution::Kind::kUndefined) {
                  fail("rw-honored",
                       "wrong-direction access must be UNDEFINED");
                }
                continue;  // remaining invariants assume a legal direction
              }

              // The host hypervisor (real EL2) never traps or hits the
              // deferred page, and direct encodings always work for it.
              if (el == El::kEl2) {
                if (res.kind == AccessResolution::Kind::kTrapEl2 ||
                    res.kind == AccessResolution::Kind::kMemory) {
                  fail("el2-never-traps",
                       "real-EL2 access trapped or deferred");
                }
                if (res.kind == AccessResolution::Kind::kUndefined &&
                    SysRegEncKind(enc) == EncKind::kDirect) {
                  fail("el2-direct-defined",
                       "direct encoding UNDEFINED at real EL2");
                }
              }

              // ARMv8.0/8.1 crash story: EL2 encodings below EL2 without NV
              // are UNDEFINED -- never silently resolved to a register.
              if (el != El::kEl2 && min_el == El::kEl2 && !nv_active &&
                  res.kind != AccessResolution::Kind::kUndefined) {
                fail("no-nv-undefined",
                     "EL2 encoding resolved below EL2 without NV");
              }

              // Plain ARMv8.3 NV: every EL2 encoding traps from EL1.
              if (el == El::kEl1 && min_el == El::kEl2 && nv_active &&
                  !neve_active &&
                  res.kind != AccessResolution::Kind::kTrapEl2) {
                fail("nv-traps-el2-encodings",
                     "EL2 encoding at virtual EL2 under plain NV must trap");
              }

              // EL0 software may only use EL0 encodings.
              if (el == El::kEl0 && min_el != El::kEl0 &&
                  res.kind != AccessResolution::Kind::kUndefined) {
                fail("el0-privileged-undefined",
                     "privileged encoding resolved at EL0");
              }

              // EL02 timer aliases always trap at virtual EL2 (section 7.1).
              if (el == El::kEl1 && nv_active &&
                  SysRegEncKind(enc) == EncKind::kEl02 &&
                  res.kind != AccessResolution::Kind::kTrapEl2) {
                fail("el02-always-traps",
                     "EL02 alias must trap at virtual EL2 even under NEVE");
              }

              switch (res.kind) {
                case AccessResolution::Kind::kMemory: {
                  if (!neve_active || el == El::kEl2) {
                    fail("memory-only-under-neve",
                         "deferred-page resolution without active NEVE");
                    break;
                  }
                  if (static_cast<int>(res.target) >= kNumRegIds) {
                    fail("memory-target-valid", "invalid backing register");
                    break;
                  }
                  if (res.mem_offset != DeferredPageOffset(res.target) ||
                      res.mem_offset % 8 != 0 ||
                      res.mem_offset + 8 > kDeferredPageSize) {
                    fail("memory-offset-valid",
                         "deferred-page offset mismatch");
                  }
                  NeveClass k = RegNeveClass(res.target);
                  if (k != NeveClass::kDeferred &&
                      k != NeveClass::kTrapOnWrite &&
                      k != NeveClass::kGicCached &&
                      k != NeveClass::kRedirectOrTrap) {
                    fail("memory-class", "NEVE class never goes in-memory");
                  }
                  if (w && k != NeveClass::kDeferred) {
                    fail("memory-write-deferred-only",
                         "only Table 3 registers take in-memory writes; "
                         "cached copies trap on write");
                  }
                  break;
                }
                case AccessResolution::Kind::kRegister:
                  if (static_cast<int>(res.target) >= kNumRegIds) {
                    fail("register-target-valid", "invalid backing register");
                    break;
                  }
                  // An EL2 encoding resolving to a register at EL1 is
                  // exclusively the NEVE Table 4 redirection.
                  if (el == El::kEl1 && min_el == El::kEl2) {
                    if (SysRegEncKind(enc) != EncKind::kDirect) {
                      fail("redirect-direct-only",
                           "alias encoding redirected to a register");
                    } else if (std::optional<RegId> t =
                                   RegRedirectTarget(storage);
                               !t.has_value() || *t != res.target ||
                               RegOwnerEl(res.target) == El::kEl2) {
                      fail("redirect-target-honored",
                           "EL2 encoding resolved to a register that is not "
                           "its Table 4 EL1 redirect target");
                    }
                  }
                  break;
                case AccessResolution::Kind::kGicCpuIf:
                  if (!IsGicCpuInterfaceReg(res.target)) {
                    fail("gic-route", "non-ICC register routed to the GIC");
                  }
                  break;
                case AccessResolution::Kind::kTrapEl2: {
                  auto key = std::make_pair(e, w);
                  if (esr_checked.insert(key).second) {
                    uint64_t esr = Syndrome::SysRegTrap(enc, w, 0).ToEsrBits();
                    if (ExtractBits(esr, 31, 26) !=
                            static_cast<uint64_t>(Ec::kSysReg) ||
                        ExtractBits(esr, 21, 5) != static_cast<uint64_t>(e) ||
                        TestBit(esr, 0) != !w) {
                      fail("trap-esr-roundtrip",
                           "ESR encoding does not round-trip the trapped "
                           "encoding and direction");
                    }
                  }
                  break;
                }
                case AccessResolution::Kind::kUndefined:
                  break;
              }

              // NEVE is an optimization, not a semantics change: whatever NV
              // would have completed without trapping must resolve
              // identically, and NEVE cannot legalize an UNDEFINED access.
              if (fc.f.neve) {
                AccessContext base_ctx = ctx;
                base_ctx.features.neve = false;
                base_ctx.vncr_enabled = false;
                AccessResolution base =
                    ResolveSysRegAccess(base_ctx, enc, w);
                if ((base.kind == AccessResolution::Kind::kRegister ||
                     base.kind == AccessResolution::Kind::kGicCpuIf) &&
                    !SameResolution(res, base)) {
                  fail("neve-preserves-untrapped",
                       "NEVE changed an access NV would not have trapped");
                }
                if (base.kind == AccessResolution::Kind::kUndefined &&
                    res.kind != AccessResolution::Kind::kUndefined) {
                  fail("neve-preserves-undefined",
                       "NEVE legalized an UNDEFINED access");
                }
              }
            }
          }
        }
      }
    }
  }
  return d;
}

// --- pass 2: golden tables ---------------------------------------------------

namespace {

struct GoldenCtx {
  AccessContext vhe_guest;   // vE2H guest hypervisor: HCR = NV, VNCR on
  AccessContext nv1_guest;   // non-VHE guest hypervisor: HCR = NV|NV1
};

GoldenCtx MakeGoldenCtx() {
  GoldenCtx g;
  g.vhe_guest = {.features = ArchFeatures::Armv84Neve(),
                 .el = El::kEl1,
                 .hcr = Hcr{Hcr::Make({HcrBits::kNv})},
                 .vncr_enabled = true};
  g.nv1_guest = g.vhe_guest;
  g.nv1_guest.hcr = Hcr{Hcr::Make({HcrBits::kNv, HcrBits::kNv1})};
  return g;
}

// Expected outcome of one golden behavioural probe.
struct Expect {
  AccessResolution::Kind kind;
  std::optional<RegId> target;  // checked when set
};

// "trap", "register AFSR0_EL1", "memory TPIDR_EL2 at page offset 0x90".
std::string Describe(const AccessResolution& r) {
  std::ostringstream oss;
  oss << KindName(r.kind);
  if (r.target != RegId::kNumRegIds) {
    oss << ' ' << RegName(r.target);
  }
  if (r.kind == AccessResolution::Kind::kMemory) {
    oss << " at page offset 0x" << std::hex << r.mem_offset;
  }
  return oss.str();
}

void Probe(std::vector<Diagnostic>& d, const AccessContext& ctx, SysReg enc,
           bool is_write, const Expect& want, const char* check,
           const std::string& detail) {
  AccessResolution res = ResolveSysRegAccess(ctx, enc, is_write);
  bool ok = res.kind == want.kind &&
            (!want.target.has_value() || res.target == *want.target);
  if (ok && want.kind == AccessResolution::Kind::kMemory &&
      res.mem_offset != DeferredPageOffset(res.target)) {
    ok = false;
  }
  if (!ok) {
    AccessResolution table{.kind = want.kind};
    if (want.target.has_value()) {
      table.target = *want.target;
      table.mem_offset = DeferredPageOffset(*want.target);
    }
    Diag(d, kSysRegDefsPath, EncDefLine(enc), check,
         std::string(SysRegName(enc)) + (is_write ? " write" : " read") +
             ": resolved to " + Describe(res) + ", paper table says " +
             Describe(table) + " (" + detail + ")");
  }
}

}  // namespace

std::vector<Diagnostic> CheckGoldenTables(const GoldenTables& g) {
  std::vector<Diagnostic> d;
  const GoldenCtx ctx = MakeGoldenCtx();

  // 1. Class membership must match the paper exactly, in both directions.
  std::map<std::string, NeveClass> expected;
  auto add_class = [&](const std::vector<std::string>& names, NeveClass k) {
    for (const std::string& n : names) {
      expected[n] = k;
    }
  };
  add_class(g.DeferredNames(), NeveClass::kDeferred);
  add_class(g.table4_redirect, NeveClass::kRedirect);
  add_class(g.table4_redirect_vhe, NeveClass::kRedirectVhe);
  add_class(g.table4_trap_on_write, NeveClass::kTrapOnWrite);
  add_class(g.trap_on_write_el1, NeveClass::kTrapOnWrite);
  add_class(g.table4_redirect_or_trap, NeveClass::kRedirectOrTrap);
  add_class(g.table5_gic_cached, NeveClass::kGicCached);
  add_class(g.timer_trap, NeveClass::kTimerTrap);

  for (const auto& [name, klass] : expected) {
    std::optional<RegId> reg = RegIdFromName(name);
    if (!reg.has_value()) {
      Diag(d, kRegIdDefsPath, 0, "golden-missing-register",
           "paper table register " + name + " is not in the model");
      continue;
    }
    if (RegNeveClass(*reg) != klass) {
      Diag(d, kRegIdDefsPath, RegDefLine(*reg), "golden-class-mismatch",
           name + ": model NEVE class disagrees with the paper tables");
    }
  }
  for (int r = 0; r < kNumRegIds; ++r) {
    auto reg = static_cast<RegId>(r);
    if (RegNeveClass(reg) == NeveClass::kNone) {
      continue;
    }
    if (expected.find(RegName(reg)) == expected.end()) {
      Diag(d, kRegIdDefsPath, RegDefLine(reg), "golden-extra-register",
           std::string(RegName(reg)) +
               ": NEVE-classified register absent from the paper tables");
    }
  }

  // 2. Behaviour at virtual EL2 must match the tables row by row.
  auto direct = [](const std::string& name) {
    return SysRegFromName(name);
  };
  auto el1_counterpart = [](const std::string& el2_name) {
    std::string n = el2_name;
    n.back() = '1';  // FOO_EL2 -> FOO_EL1
    return RegIdFromName(n);
  };

  // Table 3, EL2-owned rows + TPIDR_EL2: in-memory from either guest kind.
  for (const auto* list : {&g.table3_vm_trap_control, &g.table3_thread_id}) {
    for (const std::string& name : *list) {
      std::optional<SysReg> enc = direct(name);
      if (!enc.has_value()) {
        continue;  // reported by the membership pass
      }
      for (const AccessContext* c : {&ctx.vhe_guest, &ctx.nv1_guest}) {
        for (bool w : {false, true}) {
          Probe(d, *c, *enc, w,
                {AccessResolution::Kind::kMemory, SysRegStorage(*enc)},
                "golden-table3-deferred", "Table 3 VM system register");
        }
      }
    }
  }

  // Table 3, EL1-owned VM execution context, and the extended rows (EL0's
  // PMU registers among them): the non-VHE guest reaches them through their
  // own encodings (NV1), the VHE guest through *_EL12 aliases (or the
  // EL2-only direct encoding, e.g. SP_EL1).
  for (const auto* list :
       {&g.table3_vm_execution_control, &g.table3_extended}) {
    for (const std::string& name : *list) {
      std::optional<SysReg> el1_enc = direct(name);
      if (!el1_enc.has_value()) {
        continue;
      }
      for (bool w : {false, true}) {
        Probe(d, ctx.nv1_guest, *el1_enc, w,
              {AccessResolution::Kind::kMemory, SysRegStorage(*el1_enc)},
              "golden-table3-nv1-deferred",
              "Table 3 VM execution register under NV1");
      }
      // FOO_EL1 -> FOO_EL12
      std::optional<SysReg> vhe_enc = direct(name + "2");
      if (!vhe_enc.has_value() && SysRegMinEl(*el1_enc) == El::kEl2) {
        vhe_enc = el1_enc;  // SP_EL1: EL2-only encoding, no alias
      }
      if (vhe_enc.has_value()) {
        for (bool w : {false, true}) {
          Probe(d, ctx.vhe_guest, *vhe_enc, w,
                {AccessResolution::Kind::kMemory, SysRegStorage(*vhe_enc)},
                "golden-table3-el12-deferred",
                "Table 3 VM execution register via VHE alias");
        }
      }
    }
  }

  // Table 4 redirect rows: both guest kinds land on the EL1 counterpart.
  for (const auto* list : {&g.table4_redirect, &g.table4_redirect_vhe}) {
    for (const std::string& name : *list) {
      std::optional<SysReg> enc = direct(name);
      std::optional<RegId> target = el1_counterpart(name);
      if (!enc.has_value() || !target.has_value()) {
        continue;
      }
      for (const AccessContext* c : {&ctx.vhe_guest, &ctx.nv1_guest}) {
        for (bool w : {false, true}) {
          Probe(d, *c, *enc, w,
                {AccessResolution::Kind::kRegister, target},
                "golden-table4-redirect", "Table 4 redirect to *_EL1");
        }
      }
    }
  }

  // Table 4 trap-on-write rows: cached reads, trapped writes.
  for (const std::string& name : g.table4_trap_on_write) {
    std::optional<SysReg> enc = direct(name);
    if (!enc.has_value()) {
      continue;
    }
    for (const AccessContext* c : {&ctx.vhe_guest, &ctx.nv1_guest}) {
      Probe(d, *c, *enc, false,
            {AccessResolution::Kind::kMemory, SysRegStorage(*enc)},
            "golden-table4-cached-read", "Table 4 trap-on-write: cached read");
      Probe(d, *c, *enc, true, {AccessResolution::Kind::kTrapEl2, {}},
            "golden-table4-write-traps", "Table 4 trap-on-write: write");
    }
  }
  for (const std::string& name : g.trap_on_write_el1) {
    std::optional<SysReg> enc = direct(name);
    if (!enc.has_value()) {
      continue;
    }
    Probe(d, ctx.nv1_guest, *enc, false,
          {AccessResolution::Kind::kMemory, SysRegStorage(*enc)},
          "golden-mdscr-cached-read", "section 6.1 debug register read");
    Probe(d, ctx.nv1_guest, *enc, true, {AccessResolution::Kind::kTrapEl2, {}},
          "golden-mdscr-write-traps", "section 6.1 debug register write");
  }

  // Table 4 redirect-or-trap rows: redirect for VHE guests, cached/trap for
  // non-VHE guests (register formats differ, section 6.1).
  for (const std::string& name : g.table4_redirect_or_trap) {
    std::optional<SysReg> enc = direct(name);
    std::optional<RegId> target = el1_counterpart(name);
    if (!enc.has_value() || !target.has_value()) {
      continue;
    }
    for (bool w : {false, true}) {
      Probe(d, ctx.vhe_guest, *enc, w,
            {AccessResolution::Kind::kRegister, target},
            "golden-redirect-or-trap-vhe", "redirect for VHE guest");
    }
    Probe(d, ctx.nv1_guest, *enc, false,
          {AccessResolution::Kind::kMemory, SysRegStorage(*enc)},
          "golden-redirect-or-trap-read", "cached read for non-VHE guest");
    Probe(d, ctx.nv1_guest, *enc, true,
          {AccessResolution::Kind::kTrapEl2, {}},
          "golden-redirect-or-trap-write", "trapped write for non-VHE guest");
  }

  // Table 5: ICH_* cached copies; writes (where legal) trap.
  for (const std::string& name : g.table5_gic_cached) {
    std::optional<SysReg> enc = direct(name);
    if (!enc.has_value()) {
      continue;
    }
    for (const AccessContext* c : {&ctx.vhe_guest, &ctx.nv1_guest}) {
      Probe(d, *c, *enc, false,
            {AccessResolution::Kind::kMemory, SysRegStorage(*enc)},
            "golden-table5-cached-read", "Table 5 cached GIC state");
      if (SysRegRw(*enc) == Rw::kRW) {
        Probe(d, *c, *enc, true, {AccessResolution::Kind::kTrapEl2, {}},
              "golden-table5-write-traps", "Table 5 write");
      }
    }
  }

  // Section 6.1: EL2 hypervisor timers always trap.
  for (const std::string& name : g.timer_trap) {
    std::optional<SysReg> enc = direct(name);
    if (!enc.has_value()) {
      continue;
    }
    for (const AccessContext* c : {&ctx.vhe_guest, &ctx.nv1_guest}) {
      for (bool w : {false, true}) {
        Probe(d, *c, *enc, w, {AccessResolution::Kind::kTrapEl2, {}},
              "golden-timer-traps", "EL2 hypervisor timer");
      }
    }
  }

  // Unclassified EL2 registers keep plain NV behaviour: trap.
  for (int r = 0; r < kNumRegIds; ++r) {
    auto reg = static_cast<RegId>(r);
    if (RegNeveClass(reg) != NeveClass::kNone || RegOwnerEl(reg) != El::kEl2) {
      continue;
    }
    SysReg enc = DirectEncodingOf(reg);
    for (bool w : {false, true}) {
      if ((w && SysRegRw(enc) == Rw::kRO) ||
          (!w && SysRegRw(enc) == Rw::kWO)) {
        continue;
      }
      Probe(d, ctx.vhe_guest, enc, w, {AccessResolution::Kind::kTrapEl2, {}},
            "golden-unclassified-traps",
            "EL2 register outside Tables 3-5 keeps NV trapping");
    }
  }

  return d;
}

std::vector<Diagnostic> RunArchLint() {
  std::vector<Diagnostic> all = SweepResolution();
  std::vector<Diagnostic> golden = CheckGoldenTables(GoldenTables::Paper());
  all.insert(all.end(), golden.begin(), golden.end());
  return all;
}

// --- matrix dump -------------------------------------------------------------

void WriteResolutionMatrix(std::ostream& os, MatrixFormat format) {
  bool json = format == MatrixFormat::kJson;
  if (json) {
    os << "[\n";
  } else {
    os << "features,el,e2h,nv,nv1,vncr,write,encoding,kind,target,"
          "mem_offset\n";
  }
  bool first = true;
  // The four architecture generations the paper compares; ablation variants
  // are sweep-only (they exist to check invariants, not to be diffed).
  for (size_t fi = 0; fi < 4; ++fi) {
    const FeatureCase& fc = kFeatureCases[fi];
    for (unsigned combo = 0; combo < 8; ++combo) {  // E2H, NV, NV1
      for (bool vncr : {false, true}) {
        if (vncr && !fc.f.neve) {
          continue;
        }
        for (El el : {El::kEl0, El::kEl1, El::kEl2}) {
          AccessContext ctx{.features = fc.f,
                            .el = el,
                            .hcr = Hcr{HcrFromMask(combo)},
                            .vncr_enabled = vncr};
          for (int e = 0; e < kNumSysRegs; ++e) {
            auto enc = static_cast<SysReg>(e);
            for (bool w : {false, true}) {
              AccessResolution res = ResolveSysRegAccess(ctx, enc, w);
              bool has_target =
                  res.kind == AccessResolution::Kind::kRegister ||
                  res.kind == AccessResolution::Kind::kGicCpuIf ||
                  res.kind == AccessResolution::Kind::kMemory;
              const char* target = has_target ? RegName(res.target) : "";
              if (json) {
                os << (first ? "" : ",\n") << "{\"features\":\"" << fc.name
                   << "\",\"el\":\"" << ElName(el) << "\",\"e2h\":"
                   << (ctx.hcr.e2h() ? 1 : 0) << ",\"nv\":"
                   << (ctx.hcr.nv() ? 1 : 0) << ",\"nv1\":"
                   << (ctx.hcr.nv1() ? 1 : 0) << ",\"vncr\":" << (vncr ? 1 : 0)
                   << ",\"write\":" << (w ? 1 : 0) << ",\"encoding\":\""
                   << SysRegName(enc) << "\",\"kind\":\"" << KindName(res.kind)
                   << "\",\"target\":\"" << target
                   << "\",\"mem_offset\":" << res.mem_offset << "}";
                first = false;
              } else {
                os << fc.name << "," << ElName(el) << ","
                   << (ctx.hcr.e2h() ? 1 : 0) << "," << (ctx.hcr.nv() ? 1 : 0)
                   << "," << (ctx.hcr.nv1() ? 1 : 0) << "," << (vncr ? 1 : 0)
                   << "," << (w ? 1 : 0) << "," << SysRegName(enc) << ","
                   << KindName(res.kind) << "," << target << ","
                   << res.mem_offset << "\n";
              }
            }
          }
        }
      }
    }
  }
  if (json) {
    os << "\n]\n";
  }
}

}  // namespace neve::analysis
