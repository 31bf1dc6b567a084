#!/usr/bin/env bash
# Compile-fail test for the register-table row asserts (src/arch/sysreg.cc)
# and the ESR.EC assert (src/arch/esr.h).
#
#   tools/table_asserts.sh <c++ compiler>
#
# Copies the three .inc tables into a temporary src/arch/, seeds one bad row
# per asserted property with sed, and compiles sysreg.cc and esr.cc against
# the copies: -I<tmp> comes before -I<repo>, so every quoted include of a
# table, sysreg.h's too, finds the seeded copy. Passes only if the compile
# fails with every property's own message. A seed that changes nothing fails
# the test, so a reformatted row cannot silently retire its case.

set -euo pipefail

CXX="${1:?usage: tools/table_asserts.sh <c++ compiler>}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

ARCH="$TMP/src/arch"
mkdir -p "$ARCH"
cp "$ROOT"/src/arch/{regid_defs,sysreg_defs,ec_defs}.inc "$ARCH/"

fail=0
expected=()

# seed <table> <sed script> <message the seeded table must produce>
seed() {
  local file="$ARCH/$1"
  cp "$file" "$TMP/before"
  sed -i "$2" "$file"
  if cmp -s "$file" "$TMP/before"; then
    echo "FAIL: seed '$2' changed nothing in $1"
    fail=1
  fi
  expected+=("$3")
}

# Register rows.
seed regid_defs.inc 's/\(NEVE_REGID(kVMPIDR_EL2, *\)"VMPIDR_EL2"/\1"VMPIDR"/' \
  'kVMPIDR_EL2: register identifier is not k + NAME'
seed sysreg_defs.inc 's/\(NEVE_SYSREG(kVTCR_EL2, .*\)RegId::kVTCR_EL2,/\1RegId::kVPIDR_EL2,/' \
  'kVTCR_EL2: needs exactly one kDirect row in sysreg_defs.inc'
seed sysreg_defs.inc 's/NEVE_SYSREG(kHSTR_EL2, *"HSTR_EL2"/NEVE_SYSREG(kHSTRX_EL2, "HSTRX_EL2"/' \
  'kHSTR_EL2: its kDirect encoding carries another NAME'
seed regid_defs.inc 's/\(NEVE_REGID(kAFSR0_EL2, .*\)El::kEl2/\1El::kEl1/' \
  'kAFSR0_EL2: a Table 4 redirect row must be an EL2 register'
seed regid_defs.inc 's/\(NEVE_REGID(kELR_EL2, .*\)kELR_EL1)/\1kESR_EL2)/' \
  'kELR_EL2: a Table 4 redirect must target a distinct EL1 register'
seed regid_defs.inc 's/\(NEVE_REGID(kHACR_EL2, .*\)kHACR_EL2)/\1kHCR_EL2)/' \
  'kHACR_EL2: a non-redirect row must name itself as its target'
seed regid_defs.inc 's/\(NEVE_REGID(kICH_VTR_EL2, .*\)El::kEl2/\1El::kEl1/' \
  'kICH_VTR_EL2: a Table 5 kGicCached row must be an EL2 ICH_* register'
seed regid_defs.inc 's/\(NEVE_REGID(kCNTHV_CTL_EL2, .*\)El::kEl2/\1El::kEl1/' \
  'kCNTHV_CTL_EL2: a kTimerTrap row must be an EL2 timer register'

# Encoding rows.
seed sysreg_defs.inc 's/\(NEVE_SYSREG(kTCR_EL12, *\)"TCR_EL12"/\1"TCR_EL21"/' \
  'kTCR_EL12: encoding identifier is not k + NAME'
seed sysreg_defs.inc 's/\(NEVE_SYSREG(kFAR_EL12, .*\)RegId::kFAR_EL1,/\1RegId::kNumRegIds,/' \
  'kFAR_EL12: storage names RegId::kNumRegIds, which is no register'
seed sysreg_defs.inc 's/\(NEVE_SYSREG(kVBAR_EL2, .*\)El::kEl2/\1El::kEl1/' \
  "kVBAR_EL2: a kDirect encoding's minimum EL is below its register's owner EL"
seed sysreg_defs.inc 's/\(NEVE_SYSREG(kESR_EL12, .*\)El::kEl2/\1El::kEl1/' \
  'kESR_EL12: a VHE alias encoding must be EL2-only'
seed sysreg_defs.inc 's/\(NEVE_SYSREG(kMAIR_EL12, .*\)RegId::kMAIR_EL1,/\1RegId::kMAIR_EL2,/' \
  'kMAIR_EL12: an *_EL12 alias must reach EL1 storage'
seed sysreg_defs.inc 's/\(NEVE_SYSREG(kCNTV_CTL_EL02, .*\)RegId::kCNTV_CTL_EL0,/\1RegId::kCNTHV_CTL_EL2,/' \
  'kCNTV_CTL_EL02: an *_EL02 alias must reach EL0 storage'

# Whole tables. The page seed adds 512 registers, each with its own direct
# encoding, so that only the page-size assert fires for them.
seed sysreg_defs.inc '/NEVE_SYSREG(kSCTLR_EL12,/{h;d};/NEVE_SYSREG(kCNTP_CVAL_EL02,/G' \
  'sysreg_defs.inc encoding kinds must be grouped kDirect, then kEl12, then kEl02'
for i in $(seq 512); do
  echo "NEVE_REGID(kPAD${i}_EL0, \"PAD${i}_EL0\", El::kEl0, NeveClass::kNone, kPAD${i}_EL0)" >>"$TMP/pad_regs"
  echo "NEVE_SYSREG(kPAD${i}_EL0, \"PAD${i}_EL0\", RegId::kPAD${i}_EL0, El::kEl0, EncKind::kDirect, Rw::kRW)" >>"$TMP/pad_encs"
done
seed regid_defs.inc "/NEVE_REGID(kSP_EL2,/r $TMP/pad_regs" \
  'deferred access page overflow'
seed sysreg_defs.inc "/NEVE_SYSREG(kCNTFRQ_EL0,/r $TMP/pad_encs" \
  'deferred access page overflow'
seed regid_defs.inc 's/\(NEVE_REGID(kICH_LR7_EL2, .*\)NeveClass::kGicCached/\1NeveClass::kDeferred/' \
  'ICH_LR0..15 must be 16 consecutive kGicCached RegId rows'
seed ec_defs.inc 's/\(NEVE_EC(kTlbi, *\)0x19/\10x1A/' \
  'two ec_defs.inc rows share one ESR.EC value'

# Clang stops after 20 errors unless told otherwise; GCC has no limit.
flags=(-std=c++20 -fsyntax-only)
if "$CXX" --version | grep -qi clang; then
  flags+=(-ferror-limit=0)
fi
if "$CXX" "${flags[@]}" -I"$TMP" -I"$ROOT" "$ROOT/src/arch/sysreg.cc" \
     "$ROOT/src/arch/esr.cc" >"$TMP/out.txt" 2>&1; then
  echo "FAIL: the seeded tables compiled"
  fail=1
fi
for msg in "${expected[@]}"; do
  if ! grep -qF -- "$msg" "$TMP/out.txt"; then
    echo "FAIL: no assert reported: $msg"
    fail=1
  fi
done
if ((fail)); then
  echo "---- compiler output"
  cat "$TMP/out.txt"
  exit 1
fi
echo "table_asserts: all ${#expected[@]} seeds reported"
