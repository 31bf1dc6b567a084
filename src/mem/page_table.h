// 4-level, 4 KB-granule page tables with a software walker.
//
// The same descriptor format serves Stage-1 (VA -> IPA/PA) and Stage-2
// (IPA -> PA) translation. Real AArch64 uses slightly different attribute
// layouts per stage (and EL2's Stage-1 format differs from EL1's -- the
// ARMv8.3-NV "EL2 format at EL1" accommodation); those differences don't
// change trap or cycle behaviour, so the simulator uses one format and the
// CPU model tracks *which* format a translation regime expects (see
// cpu/cpu.h) to preserve the architectural rule the paper discusses.
//
// Descriptor layout (64-bit):
//   bit  0       valid
//   bit  1       table (levels 0-2) / page (level 3)
//   bits 47:12   next-level table PA, or output page PA at level 3
//   bit  53      writable
//   bit  54      EL0-accessible (Stage-1) / unused (Stage-2)
//   bit  55      device / MMIO region (Stage-2: fault to hypervisor even
//                when unmapped-adjacent; used by tests)

#ifndef NEVE_SRC_MEM_PAGE_TABLE_H_
#define NEVE_SRC_MEM_PAGE_TABLE_H_

#include <cstdint>
#include <optional>
#include <string>

#include "src/base/mutex.h"
#include "src/base/thread_annotations.h"
#include "src/mem/addr.h"
#include "src/mem/phys_mem.h"

namespace neve {

namespace snap {
class Serializer;  // src/snap: re-roots restored table trees
}  // namespace snap

struct PagePerms {
  bool write = false;
  bool user = false;  // EL0-accessible (Stage-1 only)

  static PagePerms Rw() { return {.write = true, .user = false}; }
  static PagePerms Ro() { return {.write = false, .user = false}; }
  static PagePerms RwUser() { return {.write = true, .user = true}; }
};

enum class FaultReason : uint8_t {
  kNone = 0,
  kTranslation,  // invalid descriptor on the walk
  kPermission,   // write to read-only page
};

struct WalkResult {
  bool ok = false;
  Pa pa;                 // output address (valid when ok)
  PagePerms perms;       // effective permissions (valid when ok)
  FaultReason fault = FaultReason::kNone;
  int fault_level = -1;  // level at which the walk failed
  uint64_t fault_addr = 0;

  static WalkResult Success(Pa pa, PagePerms perms) {
    return {.ok = true, .pa = pa, .perms = perms};
  }
  static WalkResult Fault(FaultReason reason, int level, uint64_t addr) {
    WalkResult r;
    r.fault = reason;
    r.fault_level = level;
    r.fault_addr = addr;
    return r;
  }
};

// One translation table tree. Input addresses are plain uint64_t so the same
// class serves Stage-1 (Va input) and Stage-2 (Ipa input); callers wrap with
// the typed helpers below.
class PageTable {
 public:
  // Creates an empty root. alloc provides pages for the table tree; it must
  // outlive the PageTable.
  PageTable(MemIo* mem, PageAllocator* alloc);

  Pa root() const { return root_; }

  // Drops every mapping by starting a fresh root. Old table pages are not
  // returned to the allocator (the simulator's regions are sized for this;
  // real hypervisors free them, which has no bearing on trap behaviour).
  void Reset();

  // Maps one page: input page -> output page with perms. Overwrites any
  // existing mapping for the page.
  void MapPage(uint64_t input_page_addr, Pa output_page, PagePerms perms);

  // Maps [input_start, input_start + size) to the same-sized range at
  // output_start with perms, overwriting existing mappings. All three
  // arguments must be page-aligned (aborts otherwise). Leaves memory exactly
  // as one MapPage per page in ascending order would: the same table pages,
  // allocated in the same order, holding the same descriptors. It walks to
  // each level-3 table once and writes that table's run of slots at once.
  void MapRange(uint64_t input_start, Pa output_start, uint64_t size,
                PagePerms perms);

  // Removes a mapping; no-op when not mapped.
  void UnmapPage(uint64_t input_page_addr);

  // Walks the tree. `is_write` checks the write permission.
  WalkResult Walk(uint64_t input_addr, bool is_write) const;

  // Walks an arbitrary table tree given its root, as the MMU does from a
  // TTBR/VTTBR value. Member Walk() delegates here.
  static WalkResult WalkFrom(const MemIo& mem, Pa root, uint64_t input_addr,
                             bool is_write);

  // Descriptor loads in a complete walk, one per level (for TLB-miss cycle
  // costing, which charges every walk as complete).
  static constexpr int kWalkLevels = 4;

 private:
  // Descriptors per table: one 4 KB page of 8-byte slots.
  static constexpr uint64_t kTableEntries = kPageSize / 8;

  static int LevelShift(int level) { return 12 + 9 * (3 - level); }
  static uint64_t LevelIndex(uint64_t addr, int level) {
    return (addr >> LevelShift(level)) & (kTableEntries - 1);
  }

  // Descriptor helpers.
  static bool DescValid(uint64_t d) { return (d & 1) != 0; }
  static Pa DescOutput(uint64_t d) {
    return Pa(d & 0x0000FFFFFFFFF000ull);
  }
  static uint64_t MakeTableDesc(Pa table) { return table.value | 0b11; }
  static uint64_t MakePageDesc(Pa page, PagePerms perms);
  static PagePerms DescPerms(uint64_t d);

  // Returns the PA of the level-3 descriptor slot for input_addr, allocating
  // intermediate tables when `create` is set; nullopt when absent.
  std::optional<Pa> DescSlot(uint64_t input_addr, bool create) REQUIRES(mu_);

  friend class snap::Serializer;

  MemIo* mem_;            // not-snapshotted: host wiring
  PageAllocator* alloc_;  // not-snapshotted: host wiring
  // Serializes structural mutation (Map/Unmap): SMP-engine lanes running
  // sibling nested vCPUs fix up the *shared* nested Stage-2 table
  // concurrently. Walks and root() stay lock-free, as on real hardware (the
  // MMU walks while another CPU maps): descriptor stores are whole-slot
  // writes, and SMP guests observing each other's in-flight mappings must
  // rendezvous first -- the break-before-make + TLBI contract real SMP
  // kernels follow. Reset() swaps the root and is owner-serialized (VM
  // teardown/restart, never under the engine).
  mutable Mutex mu_{"mem.page_table"};
  Pa root_;  // single-mutator: owner-serialized; snap restore quiesced
};

// Typed wrappers ---------------------------------------------------------------

// Stage-1: VA -> next stage input.
class Stage1Table {
 public:
  Stage1Table(MemIo* mem, PageAllocator* alloc) : table_(mem, alloc) {}
  void MapPage(Va va, Ipa out, PagePerms perms) {
    table_.MapPage(va.value, Pa(out.value), perms);
  }
  void MapRange(Va va, Ipa out, uint64_t size, PagePerms perms) {
    table_.MapRange(va.value, Pa(out.value), size, perms);
  }
  WalkResult Walk(Va va, bool is_write) const {
    return table_.Walk(va.value, is_write);
  }
  Pa root() const { return table_.root(); }

 private:
  friend class snap::Serializer;

  PageTable table_;
};

// Stage-2: IPA -> PA.
class Stage2Table {
 public:
  Stage2Table(MemIo* mem, PageAllocator* alloc) : table_(mem, alloc) {}
  void MapPage(Ipa ipa, Pa pa, PagePerms perms) {
    table_.MapPage(ipa.value, pa, perms);
  }
  void MapRange(Ipa ipa, Pa pa, uint64_t size, PagePerms perms) {
    table_.MapRange(ipa.value, pa, size, perms);
  }
  void UnmapPage(Ipa ipa) { table_.UnmapPage(ipa.value); }
  WalkResult Walk(Ipa ipa, bool is_write) const {
    return table_.Walk(ipa.value, is_write);
  }
  void Reset() { table_.Reset(); }
  Pa root() const { return table_.root(); }

 private:
  friend class snap::Serializer;

  PageTable table_;
};

}  // namespace neve

#endif  // NEVE_SRC_MEM_PAGE_TABLE_H_
