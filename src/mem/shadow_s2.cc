#include "src/mem/shadow_s2.h"

#include "src/base/status.h"
#include "src/fault/fault.h"
#include "src/fault/guest_fault.h"

namespace neve {

Pa GuestPhysView::Translate(Pa ipa_as_pa, bool is_write) const {
  WalkResult walk = host_s2_->Walk(Ipa(ipa_as_pa.value), is_write);
  // A guest hypervisor controls the guest-physical addresses walked through
  // this view (its table roots, its virtual Stage-2 contents), so an
  // unmapped IPA here is guest-attributable: confine it to the VM.
  NEVE_GUEST_CHECK(walk.ok, "bad_guest_mapping",
                   "GuestPhysView: IPA not mapped in the VM's Stage-2");
  return walk.pa;
}

uint64_t GuestPhysView::Read64(Pa ipa_as_pa) const {
  return parent_->Read64(Translate(ipa_as_pa, /*is_write=*/false));
}

void GuestPhysView::Write64(Pa ipa_as_pa, uint64_t value) {
  parent_->Write64(Translate(ipa_as_pa, /*is_write=*/true), value);
}

void GuestPhysView::Write64Run(Pa ipa_as_pa, std::span<const uint64_t> words) {
  parent_->Write64Run(Translate(ipa_as_pa, /*is_write=*/true), words);
}

void GuestPhysView::ZeroPage(Pa page_base) {
  parent_->ZeroPage(Translate(page_base, /*is_write=*/true));
}

bool GuestPhysView::Contains(Pa ipa_as_pa, uint64_t bytes) const {
  // Bounded by the Stage-2 mapping itself; delegate the final check to the
  // machine memory after translation on access. Straddle checks still apply.
  (void)ipa_as_pa;
  (void)bytes;
  return true;
}

ShadowS2::ShadowS2(MemIo* mem, PageAllocator* alloc) : table_(mem, alloc) {}

ShadowS2::FixupResult ShadowS2::HandleFault(Ipa l2_ipa, bool is_write,
                                            const Stage2Table& virtual_s2,
                                            const Stage2Table& host_s2) {
  // The table object's own memory view and root are authoritative here.
  WalkResult virt = virtual_s2.Walk(l2_ipa, is_write);
  return FinishFault(l2_ipa, virt, is_write, host_s2);
}

ShadowS2::FixupResult ShadowS2::HandleFault(Ipa l2_ipa, bool is_write,
                                            const MemIo& guest_view,
                                            Pa virtual_s2_root,
                                            const Stage2Table& host_s2) {
  WalkResult virt =
      PageTable::WalkFrom(guest_view, virtual_s2_root, l2_ipa.value, is_write);
  return FinishFault(l2_ipa, virt, is_write, host_s2);
}

ShadowS2::FixupResult ShadowS2::FinishFault(Ipa l2_ipa, const WalkResult& virt,
                                            bool is_write,
                                            const Stage2Table& host_s2) {
  // Injected stale shadow: drop the whole shadow tree before this fixup, as
  // if a lost TLBI left it out of sync. The current fault still installs its
  // page (below), but every other previously-shadowed page refaults -- extra
  // exit-multiplication pressure with unchanged final state.
  if (FaultActive(fault_) &&
      fault_->ShouldInject(FaultPoint::kShadowS2TranslationFault, /*cpu=*/-1,
                           counters_.faults_handled, l2_ipa.value)) {
    table_.Reset();
  }
  if (!virt.ok) {
    ++counters_.virtual_faults;
    return FixupResult::kVirtualFault;
  }
  // Step 2: L1 IPA -> L0 PA through the host's tables.
  Ipa l1_ipa(virt.pa.value);
  WalkResult host = host_s2.Walk(l1_ipa, is_write);
  if (!host.ok) {
    ++counters_.host_faults;
    return FixupResult::kHostFault;
  }
  // Step 3: install the collapsed mapping with intersected permissions.
  PagePerms perms{.write = virt.perms.write && host.perms.write,
                  .user = virt.perms.user};
  table_.MapPage(Ipa(l2_ipa.PageBase().value), host.pa.PageBase(), perms);
  ++counters_.faults_handled;
  ++counters_.installed;
  return FixupResult::kInstalled;
}

}  // namespace neve
