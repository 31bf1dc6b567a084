#include "src/arch/sysreg.h"

#include <array>
#include <string_view>

#include "src/base/status.h"

namespace neve {
namespace {

struct RegInfo {
  const char* name;
  El owner;
  NeveClass neve_class;
  RegId redirect;
};

constexpr std::array<RegInfo, kNumRegIds> kRegInfo = {{
#define NEVE_REGID(id, name, owner, klass, redirect) \
  RegInfo{name, owner, klass, RegId::redirect},
#include "src/arch/regid_defs.inc"
#undef NEVE_REGID
}};

struct EncInfo {
  const char* name;
  RegId storage;
  El min_el;
  EncKind kind;
  Rw rw;
};

constexpr std::array<EncInfo, kNumSysRegs> kEncInfo = {{
#define NEVE_SYSREG(id, name, storage, min_el, kind, rw) \
  EncInfo{name, storage, min_el, kind, rw},
#include "src/arch/sysreg_defs.inc"
#undef NEVE_SYSREG
}};

// Table 4's three classes: their rows' redirect column names an EL1
// register; every other row names itself there.
constexpr bool IsRedirectClass(NeveClass k) {
  return k == NeveClass::kRedirect || k == NeveClass::kRedirectVhe ||
         k == NeveClass::kRedirectOrTrap;
}

// A storage or redirect column may name RegId::kNumRegIds, which no row
// owns. These helpers skip it, so every assert below stays a constant
// expression and the storage column's own assert reports it.
constexpr bool IsOwnedBy(RegId reg, El el) {
  return reg != RegId::kNumRegIds &&
         kRegInfo[static_cast<size_t>(reg)].owner == el;
}

constexpr bool IsBelowOwnerOf(El el, RegId reg) {
  return reg != RegId::kNumRegIds &&
         el < kRegInfo[static_cast<size_t>(reg)].owner;
}

constexpr bool IsDirectRow(const EncInfo& e) {
  return e.kind == EncKind::kDirect && e.storage != RegId::kNumRegIds;
}

// Each register's kDirect encoding. The row asserts below hold that every
// register has exactly one, so no entry keeps the kNumSysRegs fill.
constexpr std::array<SysReg, kNumRegIds> kDirectEncoding = [] {
  std::array<SysReg, kNumRegIds> table{};
  table.fill(SysReg::kNumSysRegs);
  for (size_t e = 0; e < kEncInfo.size(); ++e) {
    if (IsDirectRow(kEncInfo[e])) {
      table[static_cast<size_t>(kEncInfo[e].storage)] = static_cast<SysReg>(e);
    }
  }
  return table;
}();

constexpr std::array<int, kNumRegIds> kDirectEncodingCount = [] {
  std::array<int, kNumRegIds> count{};
  for (const EncInfo& e : kEncInfo) {
    if (IsDirectRow(e)) {
      ++count[static_cast<size_t>(e.storage)];
    }
  }
  return count;
}();

// True when `reg` has no kDirect encoding (its own assert says so) or the
// one it has is spelled `name`.
constexpr bool DirectEncodingIsNamed(RegId reg, std::string_view name) {
  SysReg enc = kDirectEncoding[static_cast<size_t>(reg)];
  return enc == SysReg::kNumSysRegs ||
         name == kEncInfo[static_cast<size_t>(enc)].name;
}

// --- Row asserts -------------------------------------------------------------
// One static_assert per property per row, expanded at the row: a bad row
// fails the build with a message that names its identifier, and the
// compiler's "in expansion of macro" note gives its .inc file and line.
// tools/table_asserts.sh seeds one bad row per property and requires each
// message. Names are unique because each identifier is k + NAME and an
// enumerator cannot be declared twice.

#define NEVE_REGID(id, reg_name, reg_owner, klass, target)                    \
  static_assert(std::string_view(#id) == "k" reg_name,                        \
                #id ": register identifier is not k + NAME");                 \
  static_assert(kDirectEncodingCount[static_cast<size_t>(RegId::id)] == 1,    \
                #id ": needs exactly one kDirect row in sysreg_defs.inc");    \
  static_assert(DirectEncodingIsNamed(RegId::id, reg_name),                   \
                #id ": its kDirect encoding carries another NAME");           \
  static_assert(!IsRedirectClass(klass) || reg_owner == El::kEl2,             \
                #id ": a Table 4 redirect row must be an EL2 register");      \
  static_assert(!IsRedirectClass(klass) ||                                    \
                    (RegId::target != RegId::id &&                            \
                     IsOwnedBy(RegId::target, El::kEl1)),                     \
                #id ": a Table 4 redirect must target a distinct EL1 "        \
                    "register");                                              \
  static_assert(IsRedirectClass(klass) || RegId::target == RegId::id,         \
                #id ": a non-redirect row must name itself as its target");   \
  static_assert(klass != NeveClass::kGicCached ||                             \
                    (reg_owner == El::kEl2 &&                                 \
                     std::string_view(reg_name).starts_with("ICH_")),         \
                #id ": a Table 5 kGicCached row must be an EL2 ICH_* "        \
                    "register");                                              \
  static_assert(klass != NeveClass::kTimerTrap || reg_owner == El::kEl2,      \
                #id ": a kTimerTrap row must be an EL2 timer register");
#include "src/arch/regid_defs.inc"
#undef NEVE_REGID

#define NEVE_SYSREG(id, enc_name, storage, min_el, kind, rw)                  \
  static_assert(std::string_view(#id) == "k" enc_name,                        \
                #id ": encoding identifier is not k + NAME");                 \
  static_assert(storage != RegId::kNumRegIds,                                 \
                #id ": storage names RegId::kNumRegIds, which is no "         \
                    "register");                                              \
  static_assert(kind != EncKind::kDirect || !IsBelowOwnerOf(min_el, storage), \
                #id ": a kDirect encoding's minimum EL is below its "         \
                    "register's owner EL");                                   \
  static_assert(kind == EncKind::kDirect || min_el == El::kEl2,               \
                #id ": a VHE alias encoding must be EL2-only");               \
  static_assert(kind != EncKind::kEl12 || IsOwnedBy(storage, El::kEl1),       \
                #id ": an *_EL12 alias must reach EL1 storage");              \
  static_assert(kind != EncKind::kEl02 || IsOwnedBy(storage, El::kEl0),       \
                #id ": an *_EL02 alias must reach EL0 storage");
#include "src/arch/sysreg_defs.inc"
#undef NEVE_SYSREG

// --- Whole-table asserts -----------------------------------------------------

// Encoding kinds appear grouped: every kDirect row, then the kEl12 aliases,
// then the kEl02 ones (the EncKind declaration order).
constexpr bool EncodingKindsAreGrouped() {
  for (size_t i = 1; i < kEncInfo.size(); ++i) {
    if (kEncInfo[i].kind < kEncInfo[i - 1].kind) {
      return false;
    }
  }
  return true;
}
static_assert(EncodingKindsAreGrouped(),
              "sysreg_defs.inc encoding kinds must be grouped kDirect, then "
              "kEl12, then kEl02");

// DeferredPageOffset gives register r the slot r * 8: all slots fit the
// 4 KiB page, which also makes them unique and 8-byte aligned.
static_assert(static_cast<uint64_t>(kNumRegIds) * 8 <= kDeferredPageSize,
              "deferred access page overflow: too many backing registers for "
              "one 4 KiB VNCR page");

// IchListRegister() computes RegIds arithmetically from kICH_LR0_EL2.
constexpr bool IchListRegistersAreContiguous() {
  auto first = static_cast<size_t>(RegId::kICH_LR0_EL2);
  auto last = static_cast<size_t>(RegId::kICH_LR15_EL2);
  if (last - first != 15) {
    return false;
  }
  for (size_t r = first; r <= last; ++r) {
    if (kRegInfo[r].neve_class != NeveClass::kGicCached) {
      return false;
    }
  }
  return true;
}
static_assert(IchListRegistersAreContiguous(),
              "ICH_LR0..15 must be 16 consecutive kGicCached RegId rows");

const RegInfo& InfoOf(RegId reg) {
  auto idx = static_cast<size_t>(reg);
  NEVE_CHECK(idx < kRegInfo.size());
  return kRegInfo[idx];
}

const EncInfo& InfoOf(SysReg enc) {
  auto idx = static_cast<size_t>(enc);
  NEVE_CHECK(idx < kEncInfo.size());
  return kEncInfo[idx];
}

}  // namespace

const char* RegName(RegId reg) { return InfoOf(reg).name; }

std::optional<RegId> RegIdFromName(std::string_view name) {
  for (int r = 0; r < kNumRegIds; ++r) {
    if (name == kRegInfo[r].name) {
      return static_cast<RegId>(r);
    }
  }
  return std::nullopt;
}

std::optional<SysReg> SysRegFromName(std::string_view name) {
  for (int e = 0; e < kNumSysRegs; ++e) {
    if (name == kEncInfo[e].name) {
      return static_cast<SysReg>(e);
    }
  }
  return std::nullopt;
}
El RegOwnerEl(RegId reg) { return InfoOf(reg).owner; }
NeveClass RegNeveClass(RegId reg) { return InfoOf(reg).neve_class; }

std::optional<RegId> RegRedirectTarget(RegId reg) {
  const RegInfo& info = InfoOf(reg);
  if (IsRedirectClass(info.neve_class)) {
    return info.redirect;
  }
  return std::nullopt;
}

uint64_t DeferredPageOffset(RegId reg) {
  auto idx = static_cast<uint64_t>(reg);
  NEVE_CHECK(idx < static_cast<uint64_t>(kNumRegIds));
  uint64_t offset = idx * 8;
  NEVE_CHECK(offset + 8 <= kDeferredPageSize);
  return offset;
}

const char* SysRegName(SysReg enc) { return InfoOf(enc).name; }
RegId SysRegStorage(SysReg enc) { return InfoOf(enc).storage; }
EncKind SysRegEncKind(SysReg enc) { return InfoOf(enc).kind; }
Rw SysRegRw(SysReg enc) { return InfoOf(enc).rw; }
El SysRegMinEl(SysReg enc) { return InfoOf(enc).min_el; }

SysReg DirectEncodingOf(RegId reg) {
  auto idx = static_cast<size_t>(reg);
  NEVE_CHECK(idx < kDirectEncoding.size());
  return kDirectEncoding[idx];
}

bool IsIchRegister(RegId reg) {
  return RegNeveClass(reg) == NeveClass::kGicCached;
}

bool IsIchListRegister(RegId reg, int* index) {
  auto first = static_cast<int>(RegId::kICH_LR0_EL2);
  auto last = static_cast<int>(RegId::kICH_LR15_EL2);
  auto r = static_cast<int>(reg);
  if (r < first || r > last) {
    return false;
  }
  if (index != nullptr) {
    *index = r - first;
  }
  return true;
}

RegId IchListRegister(int n) {
  NEVE_CHECK(n >= 0 && n < 16);
  return static_cast<RegId>(static_cast<int>(RegId::kICH_LR0_EL2) + n);
}

SysReg IchListRegisterEncoding(int n) {
  return DirectEncodingOf(IchListRegister(n));
}

}  // namespace neve
