// Compile-time verification of the declarative tables.
//
// These static_asserts re-include the .inc tables into constexpr arrays and
// prove the invariants that can be stated without running the resolution
// pipeline: a bad table row stops the build of neve_analysis instead of
// silently skewing every trap count downstream. The runtime linter
// (archlint.cc) re-checks the same properties over an injectable ArchModel so
// tests can watch each check fail; this file is the layer that cannot be
// bypassed by forgetting to run a tool.

#include <array>
#include <cstddef>
#include <string_view>

#include "src/arch/el.h"
#include "src/arch/sysreg.h"

namespace neve::analysis {
namespace {

struct CtReg {
  El owner;
  NeveClass klass;
  RegId redirect;
};

constexpr std::array<CtReg, kNumRegIds> kCtRegs = {{
#define NEVE_REGID(id, name, owner, klass, redirect) \
  CtReg{owner, klass, RegId::redirect},
#include "src/arch/regid_defs.inc"
#undef NEVE_REGID
}};

struct CtEnc {
  RegId storage;
  El min_el;
  EncKind kind;
};

constexpr std::array<CtEnc, kNumSysRegs> kCtEncs = {{
#define NEVE_SYSREG(id, name, storage, min_el, kind, rw) \
  CtEnc{storage, min_el, kind},
#include "src/arch/sysreg_defs.inc"
#undef NEVE_SYSREG
}};

// Every row's identifier is 'k' + its quoted NAME, so the enumerator and
// RegIdName/SysRegName spell the same register. A repeated identifier needs
// no check here: it redeclares an enumerator in sysreg.h.
#define NEVE_REGID(id, name, owner, klass, redirect) \
  static_assert(std::string_view(#id) == "k" name, #id " is not k + NAME");
#include "src/arch/regid_defs.inc"
#undef NEVE_REGID
#define NEVE_SYSREG(id, name, storage, min_el, kind, rw) \
  static_assert(std::string_view(#id) == "k" name, #id " is not k + NAME");
#include "src/arch/sysreg_defs.inc"
#undef NEVE_SYSREG

// Encoding kinds appear grouped: every kDirect row, then the kEl12 aliases,
// then the kEl02 ones (the EncKind declaration order).
constexpr bool EncodingKindsAreGrouped() {
  for (size_t i = 1; i < kCtEncs.size(); ++i) {
    if (kCtEncs[i].kind < kCtEncs[i - 1].kind) {
      return false;
    }
  }
  return true;
}
static_assert(EncodingKindsAreGrouped(),
              "sysreg_defs.inc encoding kinds must be grouped kDirect, then "
              "kEl12, then kEl02");

constexpr bool IsRedirectClass(NeveClass k) {
  return k == NeveClass::kRedirect || k == NeveClass::kRedirectVhe ||
         k == NeveClass::kRedirectOrTrap;
}

// Every encoding names a defined backing register.
constexpr bool EveryEncodingMapsToDefinedRegId() {
  for (const CtEnc& e : kCtEncs) {
    if (static_cast<size_t>(e.storage) >= kCtRegs.size()) {
      return false;
    }
  }
  return true;
}
static_assert(EveryEncodingMapsToDefinedRegId(),
              "sysreg_defs.inc row references an undefined RegId");

// The deferred access page assigns slot idx*8 per register (sysreg.cc); all
// slots must fit the 4 KiB page, which also makes them unique and 8-aligned.
static_assert(static_cast<uint64_t>(kNumRegIds) * 8 <= kDeferredPageSize,
              "deferred access page overflow: too many backing registers for "
              "one 4 KiB VNCR page");

// VHE aliases reach exactly the storage their name implies: *_EL12 -> EL1,
// *_EL02 -> EL0, and both are EL2-only encodings.
constexpr bool AliasesTargetLowerElStorage() {
  for (const CtEnc& e : kCtEncs) {
    if (e.kind == EncKind::kDirect) {
      continue;
    }
    El owner = kCtRegs[static_cast<size_t>(e.storage)].owner;
    if (e.min_el != El::kEl2) {
      return false;
    }
    if (e.kind == EncKind::kEl12 && owner != El::kEl1) {
      return false;
    }
    if (e.kind == EncKind::kEl02 && owner != El::kEl0) {
      return false;
    }
  }
  return true;
}
static_assert(AliasesTargetLowerElStorage(),
              "EL12/EL02 alias encoding targets storage of the wrong EL");

// Exactly one canonical (kDirect) encoding per backing register.
constexpr bool OneDirectEncodingPerRegister() {
  for (size_t r = 0; r < kCtRegs.size(); ++r) {
    int count = 0;
    for (const CtEnc& e : kCtEncs) {
      if (e.kind == EncKind::kDirect &&
          static_cast<size_t>(e.storage) == r) {
        ++count;
      }
    }
    if (count != 1) {
      return false;
    }
  }
  return true;
}
static_assert(OneDirectEncodingPerRegister(),
              "every RegId needs exactly one kDirect SysReg encoding");

// Redirect targets exist, differ from their source and land on EL1 storage
// (Table 4 always redirects EL2 registers to EL1 counterparts).
constexpr bool RedirectTargetsAreEl1() {
  for (size_t r = 0; r < kCtRegs.size(); ++r) {
    const CtReg& reg = kCtRegs[r];
    if (!IsRedirectClass(reg.klass)) {
      continue;
    }
    auto t = static_cast<size_t>(reg.redirect);
    if (t >= kCtRegs.size() || t == r || kCtRegs[t].owner != El::kEl1) {
      return false;
    }
  }
  return true;
}
static_assert(RedirectTargetsAreEl1(),
              "Table 4 redirect row must target a distinct EL1 register");

// The ICH_LR<n> block must be contiguous and in order: IchListRegister()
// computes RegIds arithmetically from kICH_LR0_EL2.
constexpr bool IchListRegistersAreContiguous() {
  auto first = static_cast<size_t>(RegId::kICH_LR0_EL2);
  auto last = static_cast<size_t>(RegId::kICH_LR15_EL2);
  if (last - first != 15) {
    return false;
  }
  for (size_t r = first; r <= last; ++r) {
    if (kCtRegs[r].klass != NeveClass::kGicCached) {
      return false;
    }
  }
  return true;
}
static_assert(IchListRegistersAreContiguous(),
              "ICH_LR0..15 must be 16 consecutive kGicCached RegId rows");

}  // namespace
}  // namespace neve::analysis
