#include "src/mem/phys_mem.h"

#include <cstdio>
#include <cstring>
#include <string>
#include <utility>

#include "src/base/bits.h"
#include "src/base/status.h"

namespace neve {
namespace {

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

PhysMem::PhysMem(uint64_t size_bytes) : size_(size_bytes) {
  NEVE_CHECK_MSG(IsAligned(size_bytes, kPageSize), "size must be page aligned");
  uint64_t pages = size_bytes >> kPageShift;
  dir_ = std::make_unique<std::atomic<Chunk*>[]>(
      (pages + kChunkPages - 1) / kChunkPages);
}

void PhysMem::CheckRange(Pa pa, uint64_t bytes) const {
  NEVE_CHECK_MSG(Contains(pa, bytes), "PA out of range: " + Hex(pa.value) +
                                          " size " + std::to_string(size_));
  // Accesses must not straddle a page boundary (hardware would split them;
  // simulator callers always use naturally aligned accesses).
  NEVE_CHECK_MSG(pa.PageOffset() + bytes <= kPageSize, "access crosses page");
}

void PhysMem::CheckPageIndex(uint64_t page_index) const {
  // Compared as an index: page_index << kPageShift could wrap into range.
  NEVE_CHECK_MSG(page_index < (size_ >> kPageShift),
                 "page index out of range: " + std::to_string(page_index));
}

PhysMem::Page& PhysMem::PageFor(Pa pa) {
  Page* page = LoadPage(pa.PageIndex());
  return page != nullptr ? *page : Materialize(pa.PageIndex());
}

PhysMem::Page& PhysMem::Materialize(uint64_t page_index) {
  MutexLock lock(pages_mu_);
  // Another lane may have published the chunk or the page since the
  // caller's loads.
  std::atomic<Chunk*>& chunk_slot = dir_[page_index / kChunkPages];
  Chunk* chunk = chunk_slot.load(std::memory_order_acquire);
  if (chunk == nullptr) {
    chunk = chunks_.emplace_back(std::make_unique<Chunk>()).get();
    chunk_slot.store(chunk, std::memory_order_release);
  }
  std::atomic<Page*>& slot = (*chunk)[page_index % kChunkPages];
  if (Page* page = slot.load(std::memory_order_acquire)) {
    return *page;
  }
  auto page = std::make_unique<Page>();  // value-initialized: all zero
  slot.store(page.get(), std::memory_order_release);
  return *resident_.emplace(page_index, std::move(page)).first->second;
}

void PhysMem::MarkDirty(uint64_t page_index) {
  MutexLock lock(pages_mu_);
  dirty_.insert(page_index);
}

std::vector<uint64_t> PhysMem::ResidentPageIndices() const {
  MutexLock lock(pages_mu_);
  std::vector<uint64_t> out;
  out.reserve(resident_.size());
  for (const auto& [index, page] : resident_) {
    out.push_back(index);
  }
  return out;
}

bool PhysMem::ReadPage(uint64_t page_index,
                       std::array<uint8_t, kPageSize>* out) const {
  CheckPageIndex(page_index);
  const Page* page = LoadPage(page_index);
  if (page == nullptr) {
    return false;
  }
  *out = *page;
  return true;
}

void PhysMem::WritePage(uint64_t page_index, const uint8_t* data) {
  CheckPageIndex(page_index);
  Page& page = PageFor(Pa(page_index << kPageShift));
  std::memcpy(page.data(), data, kPageSize);
  if (dirty_enabled_) {
    MarkDirty(page_index);
  }
}

void PhysMem::DropPage(uint64_t page_index) {
  CheckPageIndex(page_index);
  MutexLock lock(pages_mu_);
  if (Chunk* chunk =
          dir_[page_index / kChunkPages].load(std::memory_order_acquire)) {
    (*chunk)[page_index % kChunkPages].store(nullptr,
                                             std::memory_order_release);
  }
  resident_.erase(page_index);
  if (dirty_enabled_) {
    dirty_.insert(page_index);
  }
}

void PhysMem::SetDirtyTracking(bool on) {
  MutexLock lock(pages_mu_);
  dirty_enabled_ = on;
  dirty_.clear();
}

std::vector<uint64_t> PhysMem::DrainDirtyPages() {
  MutexLock lock(pages_mu_);
  std::vector<uint64_t> out(dirty_.begin(), dirty_.end());
  dirty_.clear();
  return out;
}

uint64_t PhysMem::Read64(Pa pa) const {
  CheckRange(pa, 8);
  const Page* page = PageForRead(pa);
  if (page == nullptr) {
    return 0;
  }
  uint64_t v = 0;
  std::memcpy(&v, page->data() + pa.PageOffset(), 8);
  return v;
}

void PhysMem::Write64(Pa pa, uint64_t value) {
  CheckRange(pa, 8);
  std::memcpy(PageFor(pa).data() + pa.PageOffset(), &value, 8);
  if (dirty_enabled_) {
    MarkDirty(pa.PageIndex());
  }
}

void PhysMem::Write64Run(Pa pa, std::span<const uint64_t> words) {
  CheckRange(pa, words.size_bytes());
  std::memcpy(PageFor(pa).data() + pa.PageOffset(), words.data(),
              words.size_bytes());
  if (dirty_enabled_) {
    MarkDirty(pa.PageIndex());
  }
}

uint32_t PhysMem::Read32(Pa pa) const {
  CheckRange(pa, 4);
  const Page* page = PageForRead(pa);
  if (page == nullptr) {
    return 0;
  }
  uint32_t v = 0;
  std::memcpy(&v, page->data() + pa.PageOffset(), 4);
  return v;
}

void PhysMem::Write32(Pa pa, uint32_t value) {
  CheckRange(pa, 4);
  std::memcpy(PageFor(pa).data() + pa.PageOffset(), &value, 4);
  if (dirty_enabled_) {
    MarkDirty(pa.PageIndex());
  }
}

uint8_t PhysMem::Read8(Pa pa) const {
  CheckRange(pa, 1);
  const Page* page = PageForRead(pa);
  return page == nullptr ? 0 : (*page)[pa.PageOffset()];
}

void PhysMem::Write8(Pa pa, uint8_t value) {
  CheckRange(pa, 1);
  PageFor(pa)[pa.PageOffset()] = value;
  if (dirty_enabled_) {
    MarkDirty(pa.PageIndex());
  }
}

void PhysMem::ZeroPage(Pa page_base) {
  NEVE_CHECK(IsAligned(page_base.value, kPageSize));
  CheckRange(page_base, kPageSize);
  PageFor(page_base).fill(0);
  if (dirty_enabled_) {
    MarkDirty(page_base.PageIndex());
  }
}

PageAllocator::PageAllocator(MemIo* mem, Pa start, uint64_t size)
    : mem_(mem), start_(start), next_(start.value), end_(start.value + size) {
  NEVE_CHECK(mem != nullptr);
  NEVE_CHECK(IsAligned(start.value, kPageSize));
  NEVE_CHECK(IsAligned(size, kPageSize));
  NEVE_CHECK_MSG(mem->Contains(start, size), "allocator region outside mem");
}

Pa PageAllocator::AllocPage() {
  Pa page(0);
  {
    MutexLock lock(mu_);
    NEVE_CHECK_MSG(next_ < end_, "page allocator exhausted");
    page = Pa(next_);
    next_ += kPageSize;
  }
  // Zero outside the lock: the page is ours, and ZeroPage takes the
  // phys-pages lock ("mem.page_alloc" before "mem.phys_pages" would
  // otherwise become an acquisition-graph edge for no reason).
  mem_->ZeroPage(page);
  return page;
}

}  // namespace neve
