#include "src/mem/page_table.h"

#include <algorithm>
#include <array>
#include <span>

#include "src/base/bits.h"
#include "src/base/status.h"

namespace neve {

PageTable::PageTable(MemIo* mem, PageAllocator* alloc)
    : mem_(mem), alloc_(alloc) {
  NEVE_CHECK(mem != nullptr && alloc != nullptr);
  root_ = alloc_->AllocPage();
}

void PageTable::Reset() { root_ = alloc_->AllocPage(); }

uint64_t PageTable::MakePageDesc(Pa page, PagePerms perms) {
  uint64_t d = page.value | 0b11;  // valid + page
  d = AssignBit(d, 53, perms.write);
  d = AssignBit(d, 54, perms.user);
  return d;
}

PagePerms PageTable::DescPerms(uint64_t d) {
  return {.write = TestBit(d, 53), .user = TestBit(d, 54)};
}

std::optional<Pa> PageTable::DescSlot(uint64_t input_addr, bool create) {
  Pa table = root_;
  for (int level = 0; level < 3; ++level) {
    Pa slot(table.value + LevelIndex(input_addr, level) * 8);
    uint64_t desc = mem_->Read64(slot);
    if (!DescValid(desc)) {
      if (!create) {
        return std::nullopt;
      }
      Pa next = alloc_->AllocPage();
      mem_->Write64(slot, MakeTableDesc(next));
      table = next;
    } else {
      table = DescOutput(desc);
    }
  }
  return Pa(table.value + LevelIndex(input_addr, 3) * 8);
}

void PageTable::MapPage(uint64_t input_page_addr, Pa output_page,
                        PagePerms perms) {
  NEVE_CHECK(IsAligned(input_page_addr, kPageSize));
  NEVE_CHECK(IsAligned(output_page.value, kPageSize));
  MutexLock lock(mu_);
  std::optional<Pa> slot = DescSlot(input_page_addr, /*create=*/true);
  mem_->Write64(*slot, MakePageDesc(output_page, perms));
}

void PageTable::MapRange(uint64_t input_start, Pa output_start, uint64_t size,
                         PagePerms perms) {
  NEVE_CHECK(IsAligned(input_start, kPageSize));
  NEVE_CHECK(IsAligned(output_start.value, kPageSize));
  NEVE_CHECK(IsAligned(size, kPageSize));
  MutexLock lock(mu_);
  std::array<uint64_t, kTableEntries> descs{};
  uint64_t pages = size >> kPageShift;
  for (uint64_t page = 0; page < pages;) {
    uint64_t input = input_start + (page << kPageShift);
    // The run ends at the level-3 table's last slot or at the range's end.
    // Every page of a run shares the path to that table, so the first
    // page's walk allocates whatever the per-page walks would have, in the
    // same order.
    uint64_t run =
        std::min(kTableEntries - LevelIndex(input, 3), pages - page);
    for (uint64_t i = 0; i < run; ++i) {
      descs[i] = MakePageDesc(
          Pa(output_start.value + ((page + i) << kPageShift)), perms);
    }
    std::optional<Pa> slot = DescSlot(input, /*create=*/true);
    mem_->Write64Run(*slot, std::span<const uint64_t>(descs.data(), run));
    page += run;
  }
}

void PageTable::UnmapPage(uint64_t input_page_addr) {
  MutexLock lock(mu_);
  std::optional<Pa> slot = DescSlot(input_page_addr, /*create=*/false);
  if (slot.has_value()) {
    mem_->Write64(*slot, 0);
  }
}

WalkResult PageTable::Walk(uint64_t input_addr, bool is_write) const {
  return WalkFrom(*mem_, root_, input_addr, is_write);
}

WalkResult PageTable::WalkFrom(const MemIo& mem, Pa root, uint64_t input_addr,
                               bool is_write) {
  Pa table = root;
  for (int level = 0; level < 4; ++level) {
    Pa slot(table.value + LevelIndex(input_addr, level) * 8);
    uint64_t desc = mem.Read64(slot);
    if (!DescValid(desc)) {
      return WalkResult::Fault(FaultReason::kTranslation, level, input_addr);
    }
    if (level == 3) {
      PagePerms perms = DescPerms(desc);
      if (is_write && !perms.write) {
        return WalkResult::Fault(FaultReason::kPermission, level, input_addr);
      }
      Pa out(DescOutput(desc).value | (input_addr & 0xFFF));
      return WalkResult::Success(out, perms);
    }
    table = DescOutput(desc);
  }
  NEVE_CHECK_MSG(false, "unreachable walk state");
  return {};
}

}  // namespace neve
