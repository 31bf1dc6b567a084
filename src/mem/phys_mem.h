// Sparse physical memory backing the simulated machine.
//
// Pages materialize on first touch; the simulator never cares about the
// host's memory layout, only that every PA within the configured size reads
// back what was last written. A two-level directory finds a page with
// arithmetic plus two atomic loads and no lock: one slot per 2 MB of PA
// points to a chunk of 512 page slots, and a chunk too is allocated on the
// first touch of one of its pages, so an idle Machine costs a directory of
// a few KB rather than one slot per page. PageAllocator, a bump allocator,
// hands out zeroed pages for page tables and deferred access pages; guest
// RAM is carved out elsewhere (Machine::AllocGuestRam for the host's VMs,
// GuestKvm's nested-RAM cursor for a guest hypervisor's).

#ifndef NEVE_SRC_MEM_PHYS_MEM_H_
#define NEVE_SRC_MEM_PHYS_MEM_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <vector>

#include "src/base/mutex.h"
#include "src/base/thread_annotations.h"
#include "src/mem/addr.h"
#include "src/mem/mem_io.h"

namespace neve {

namespace snap {
class Serializer;  // src/snap: restores the page allocator's bump pointer
}  // namespace snap

// One page's index and contents, as restart checkpoints and snapshots copy
// them.
struct PageCopy {
  uint64_t page_index = 0;
  std::array<uint8_t, kPageSize> data{};
  bool operator==(const PageCopy&) const = default;
};

class PhysMem : public MemIo {
 public:
  // size must be page aligned.
  explicit PhysMem(uint64_t size_bytes);

  uint64_t size() const { return size_; }
  bool Contains(Pa pa, uint64_t bytes) const override {
    return pa.value + bytes <= size_ && pa.value + bytes >= pa.value;
  }

  uint64_t Read64(Pa pa) const override;
  void Write64(Pa pa, uint64_t value) override;
  // One range check, one copy and one dirty mark for the whole run.
  void Write64Run(Pa pa, std::span<const uint64_t> words) override;
  uint32_t Read32(Pa pa) const;
  void Write32(Pa pa, uint32_t value);
  uint8_t Read8(Pa pa) const;
  void Write8(Pa pa, uint8_t value);

  // Zeroes an entire page.
  void ZeroPage(Pa page_base) override;

  // Number of pages actually materialized (for tests / stats).
  size_t ResidentPages() const {
    MutexLock lock(pages_mu_);
    return resident_.size();
  }

  // --- host-side page access (checkpoint / restore / migration) -----------
  // None of these charge cycles or appear to the guest; they are the tools
  // the snap layer and HostKvm::CheckpointVm use to move whole pages.

  // Sorted indices of every materialized page.
  std::vector<uint64_t> ResidentPageIndices() const;

  // Copies one page out; false (and *out untouched) when not resident.
  bool ReadPage(uint64_t page_index, std::array<uint8_t, kPageSize>* out) const;

  // Materializes and overwrites one page (counts as a dirtying write).
  void WritePage(uint64_t page_index, const uint8_t* data);

  // Returns the page to implicit-zero (not resident) state. Must not race
  // with any other access to the same page: a reader may still hold it.
  void DropPage(uint64_t page_index);

  // --- dirty-page tracking (migration pre-copy) ---------------------------
  // While enabled, every write records its page index. Pure host
  // bookkeeping: no cycles, no guest-visible effect. Toggled only from
  // single-threaded migration drivers, never while SMP lanes run.
  void SetDirtyTracking(bool on);
  bool dirty_tracking() const { return dirty_enabled_; }

  // Sorted indices dirtied since the last drain; clears the set.
  std::vector<uint64_t> DrainDirtyPages();

 private:
  using Page = std::array<uint8_t, kPageSize>;

  // Pages per directory chunk: 2 MB of PA.
  static constexpr uint64_t kChunkPages = 512;
  using Chunk = std::array<std::atomic<Page*>, kChunkPages>;

  // The page at page_index, or nullptr while it still reads as zero.
  Page* LoadPage(uint64_t page_index) const {
    const Chunk* chunk =
        dir_[page_index / kChunkPages].load(std::memory_order_acquire);
    return chunk == nullptr ? nullptr
                            : (*chunk)[page_index % kChunkPages].load(
                                  std::memory_order_acquire);
  }
  // The page holding pa, or nullptr while it still reads as zero.
  const Page* PageForRead(Pa pa) const { return LoadPage(pa.PageIndex()); }
  // The page holding pa, materialized zeroed on first touch.
  Page& PageFor(Pa pa);
  Page& Materialize(uint64_t page_index);
  void CheckRange(Pa pa, uint64_t bytes) const;
  void CheckPageIndex(uint64_t page_index) const;
  void MarkDirty(uint64_t page_index);

  uint64_t size_;  // not-snapshotted: fixed by MachineConfig, verified on apply
  // One slot per kChunkPages pages of [0, size_), nullptr until the first
  // touch of one of those pages; a chunk's slots stay nullptr until their
  // page's first touch. Accessors find a page with two acquire loads and no
  // lock. Both levels change only under pages_mu_: first touch re-checks
  // each level under the lock and publishes a new chunk, then the zeroed
  // page, with release stores, so SMP-engine lanes touching one page
  // concurrently agree on a single chunk and page. Page payloads need no
  // lock -- a byte is only shared across lanes through the engine's
  // deferred-merge rule, never accessed concurrently.
  // not-snapshotted: pages move through ResidentPageIndices/ReadPage/
  // WritePage/DropPage
  std::unique_ptr<std::atomic<Chunk*>[]> dir_;
  // Serializes slot changes; guards the chunks and the resident and dirty
  // sets.
  mutable Mutex pages_mu_{"mem.phys_pages"};
  // Owns every chunk dir_ points to.
  // not-snapshotted: host-side index over the resident pages
  std::vector<std::unique_ptr<Chunk>> chunks_ GUARDED_BY(pages_mu_);
  // Owns every materialized page, keyed by page index: the sorted resident
  // set, so enumeration and teardown cost O(resident pages), not O(size_).
  // not-snapshotted: pages move through the public page API above
  std::map<uint64_t, std::unique_ptr<Page>> resident_ GUARDED_BY(pages_mu_);
  // Dirty tracking. The enable flag is read without the lock on the write
  // fast path; it only ever changes while the machine is single-threaded
  // (migration drivers toggle it between guest steps).
  bool dirty_enabled_ = false;  // not-snapshotted: migration-driver toggle
  std::set<uint64_t> dirty_ GUARDED_BY(pages_mu_);  // not-snapshotted: ditto
};

// Hands out fresh page-aligned physical pages from a region of PhysMem.
class PageAllocator {
 public:
  // Allocates from [start, start+size) within mem. Region must be page
  // aligned and inside mem.
  PageAllocator(MemIo* mem, Pa start, uint64_t size);

  // Returns a zeroed page. Aborts if the region is exhausted (the simulator
  // sizes regions generously; exhaustion is a configuration bug).
  Pa AllocPage();

  uint64_t PagesAllocated() const {
    MutexLock lock(mu_);
    return (next_ - start_.value) >> kPageShift;
  }
  uint64_t PagesRemaining() const {
    MutexLock lock(mu_);
    return (end_ - next_) >> kPageShift;
  }

 private:
  friend class snap::Serializer;

  MemIo* mem_;  // not-snapshotted: host wiring
  Pa start_;    // not-snapshotted: fixed region geometry, verified on apply
  // Guards the bump pointer: SMP-engine lanes allocate page-table pages
  // concurrently (shadow fixups). NOTE: this makes the *addresses* handed
  // out dependent on lane interleaving -- byte-identity digests must avoid
  // mixing in Pa values (DESIGN.md 6j); page *contents* stay deterministic.
  mutable Mutex mu_{"mem.page_alloc"};
  uint64_t next_ GUARDED_BY(mu_);
  uint64_t end_;  // not-snapshotted: fixed region geometry, verified on apply
};

}  // namespace neve

#endif  // NEVE_SRC_MEM_PHYS_MEM_H_
