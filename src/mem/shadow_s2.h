// Shadow Stage-2 page tables for nested memory virtualization (paper
// section 4).
//
// ARM hardware performs at most two translation stages, but a nested VM needs
// three: L2 VA -> L2 IPA (guest OS Stage-1), L2 IPA -> L1 IPA (guest
// hypervisor's virtual Stage-2) and L1 IPA -> L0 PA (host Stage-2). The host
// hypervisor collapses the last two into a *shadow* Stage-2 table
// (L2 IPA -> L0 PA) which is what the hardware actually uses while the
// nested VM runs. Shadow entries are built lazily on Stage-2 faults.

#ifndef NEVE_SRC_MEM_SHADOW_S2_H_
#define NEVE_SRC_MEM_SHADOW_S2_H_

#include <cstdint>
#include <span>

#include "src/mem/mem_io.h"
#include "src/mem/page_table.h"
#include "src/mem/phys_mem.h"

namespace neve {

class FaultInjector;

namespace snap {
class Serializer;  // src/snap: serializes shadow roots and fixup counters
}  // namespace snap

// Memory view in a VM's IPA space: every access is translated through the
// VM's (host-maintained) Stage-2 table before touching the parent address
// space. The guest hypervisor's own page tables are built over this view,
// exactly as a guest hypervisor's table walks land in guest-physical memory
// on hardware. Views compose: an L2 guest-physical view stacks a GuestPhysView
// on top of the L1 view, giving the L3-capable recursion of section 6.2.
class GuestPhysView : public MemIo {
 public:
  GuestPhysView(MemIo* parent, const Stage2Table* host_s2)
      : parent_(parent), host_s2_(host_s2) {}

  uint64_t Read64(Pa ipa_as_pa) const override;
  void Write64(Pa ipa_as_pa, uint64_t value) override;
  // A run stays inside one page, so one translation covers it.
  void Write64Run(Pa ipa_as_pa, std::span<const uint64_t> words) override;
  void ZeroPage(Pa page_base) override;
  bool Contains(Pa ipa_as_pa, uint64_t bytes) const override;

 private:
  Pa Translate(Pa ipa_as_pa, bool is_write) const;

  MemIo* parent_;              // not-snapshotted: host wiring
  const Stage2Table* host_s2_; // not-snapshotted: host wiring
};

// The host hypervisor's shadow table for one nested VM.
class ShadowS2 {
 public:
  enum class FixupResult {
    kInstalled,     // mapping created; the faulting access can be replayed
    kVirtualFault,  // guest hypervisor's own Stage-2 lacks a mapping: the
                    // fault must be forwarded to the guest hypervisor
    kHostFault,     // host Stage-2 lacks a mapping (host bug or MMIO region)
  };

  // Table pages come from `alloc`; `mem` is the address space the shadow
  // tree lives in (machine memory for the host hypervisor, a guest-physical
  // view for a guest hypervisor shadowing its own guest's tables).
  ShadowS2(MemIo* mem, PageAllocator* alloc);

  // Collapses the guest hypervisor's virtual Stage-2 (L2 IPA -> L1 IPA,
  // rooted at `virtual_s2_root` in guest-physical space and walked through
  // `guest_view`) with host_s2 (L1 IPA -> L0 PA) for the faulting page and
  // installs the combined mapping. Effective permissions are the
  // intersection.
  FixupResult HandleFault(Ipa l2_ipa, bool is_write, const MemIo& guest_view,
                          Pa virtual_s2_root, const Stage2Table& host_s2);

  // Convenience overload for tests holding a Stage2Table object.
  FixupResult HandleFault(Ipa l2_ipa, bool is_write,
                          const Stage2Table& virtual_s2,
                          const Stage2Table& host_s2);

  // The guest hypervisor changed its virtual Stage-2 (vTTBR write / TLBI):
  // all shadow entries are stale. Under SMP the flush is broadcast to every
  // vCPU's shadow of the same virtual Stage-2 (mem::FlushShadows).
  void Flush() {
    table_.Reset();
    ++counters_.flushes;
  }

  // Machine-wide fault injector; when armed, HandleFault may be hit with an
  // injected stale-shadow drop (the whole shadow tree is discarded before
  // the fixup, forcing later refaults). May stay null.
  void SetFaultInjector(FaultInjector* fault) { fault_ = fault; }

  const Stage2Table& table() const { return table_; }
  Stage2Table& table() { return table_; }

  uint64_t faults_handled() const { return counters_.faults_handled; }

  // Times this shadow tree was discarded wholesale (vTTBR switch or TLBI
  // shootdown); every flush forces refaults for the mappings still in use.
  uint64_t flushes() const { return counters_.flushes; }

  // Per-outcome fault counts (faults_handled() counts only installs). Used
  // by the attribution report to split shadow-fixup cycles between real
  // installs and forwarded virtual faults.
  uint64_t installed() const { return counters_.installed; }
  uint64_t virtual_faults() const { return counters_.virtual_faults; }
  uint64_t host_faults() const { return counters_.host_faults; }

  // The counters above, which a snapshot carries whole (src/snap).
  struct Counters {
    uint64_t faults_handled = 0;
    uint64_t flushes = 0;
    uint64_t installed = 0;
    uint64_t virtual_faults = 0;
    uint64_t host_faults = 0;
    bool operator==(const Counters&) const = default;
  };

 private:
  friend class snap::Serializer;

  FixupResult FinishFault(Ipa l2_ipa, const WalkResult& virt, bool is_write,
                          const Stage2Table& host_s2);

  Stage2Table table_;
  Counters counters_;  // single-mutator: snap restore runs quiesced
  FaultInjector* fault_ = nullptr;  // not-snapshotted: host wiring
};

}  // namespace neve

#endif  // NEVE_SRC_MEM_SHADOW_S2_H_
