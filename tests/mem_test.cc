// Unit tests for src/mem: physical memory, page tables, shadow Stage-2.

#include <gmock/gmock.h>
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "src/fault/guest_fault.h"
#include "src/mem/page_table.h"
#include "src/base/bits.h"
#include "src/mem/phys_mem.h"
#include "src/mem/shadow_s2.h"

namespace neve {
namespace {

constexpr uint64_t kMemSize = 64ull << 20;

class MemFixture : public testing::Test {
 protected:
  MemFixture() : mem_(kMemSize), alloc_(&mem_, Pa(32ull << 20), 16ull << 20) {}

  PhysMem mem_;
  PageAllocator alloc_;
};

// --- PhysMem -------------------------------------------------------------------

TEST_F(MemFixture, ReadsBackWrites) {
  mem_.Write64(Pa(0x1000), 0xDEADBEEFCAFEF00Dull);
  EXPECT_EQ(mem_.Read64(Pa(0x1000)), 0xDEADBEEFCAFEF00Dull);
  mem_.Write32(Pa(0x2000), 0x12345678);
  EXPECT_EQ(mem_.Read32(Pa(0x2000)), 0x12345678u);
  mem_.Write8(Pa(0x3000), 0xAB);
  EXPECT_EQ(mem_.Read8(Pa(0x3000)), 0xAB);
}

TEST_F(MemFixture, UntouchedMemoryReadsZero) {
  EXPECT_EQ(mem_.Read64(Pa(0x123456 & ~7ull)), 0u);
  EXPECT_EQ(mem_.ResidentPages(), 0u);  // reads do not materialize pages
}

TEST_F(MemFixture, PagesMaterializeLazily) {
  mem_.Write64(Pa(0x5000), 1);
  mem_.Write64(Pa(0x5008), 2);
  mem_.Write64(Pa(0x9000), 3);
  EXPECT_EQ(mem_.ResidentPages(), 2u);
}

TEST_F(MemFixture, SubwordWritesCompose) {
  mem_.Write8(Pa(0x1000), 0x11);
  mem_.Write8(Pa(0x1001), 0x22);
  EXPECT_EQ(mem_.Read64(Pa(0x1000)) & 0xFFFF, 0x2211u);
}

TEST_F(MemFixture, ZeroPageClears) {
  mem_.Write64(Pa(0x4000), 0xFFFF);
  mem_.ZeroPage(Pa(0x4000));
  EXPECT_EQ(mem_.Read64(Pa(0x4000)), 0u);
}

TEST_F(MemFixture, OutOfRangeAccessAborts) {
  EXPECT_DEATH(mem_.Read64(Pa(kMemSize)), "PA out of range: 0x4000000");
  EXPECT_DEATH(mem_.Write64(Pa(kMemSize - 4), 1), "");  // straddles the end
}

TEST_F(MemFixture, PageStraddlingAccessAborts) {
  EXPECT_DEATH(mem_.Read64(Pa(0x1FFC)), "crosses page");
  const uint64_t run[2] = {1, 2};
  EXPECT_DEATH(mem_.Write64Run(Pa(0x1FF8), run), "crosses page");
}

TEST(PhysMemTest, UnalignedSizeAborts) {
  EXPECT_DEATH(PhysMem bad(4097), "page aligned");
}

TEST_F(MemFixture, PageIndexBeyondMemoryAborts) {
  std::array<uint8_t, kPageSize> page{};
  EXPECT_DEATH(mem_.ReadPage(kMemSize >> kPageShift, &page),
               "page index out of range");
  // 1 << 52 pages shifts to PA 0: the index itself must be range-checked.
  EXPECT_DEATH(mem_.WritePage(1ull << 52, page.data()),
               "page index out of range");
  EXPECT_DEATH(mem_.DropPage(1ull << 52), "page index out of range");
}

// Eight threads first-touch, write and read the same pages in the same
// order, so first touches collide; each thread uses its own 8-byte slot of
// every page (lanes never share a byte). page_index(k) must ascend in k.
void FirstTouchFromEightThreads(uint64_t (*page_index)(uint64_t)) {
  constexpr int kThreads = 8;
  constexpr uint64_t kPages = 64;
  PhysMem mem(kMemSize);
  auto value = [](int t, uint64_t k) { return (k << 8) | (t + 1); };
  auto slot = [&](int t, uint64_t k) {
    return Pa((page_index(k) << kPageShift) + 8 * static_cast<uint64_t>(t));
  };
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  std::vector<int> mismatches(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      for (uint64_t k = 0; k < kPages; ++k) {
        // Lock-free reads race with other threads' first touch of the page.
        mismatches[t] += mem.Read64(slot(t, k)) != 0;
        mem.Write64(slot(t, k), value(t, k));
        mismatches[t] += mem.Read64(slot(t, k)) != value(t, k);
      }
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }
  EXPECT_THAT(mismatches, testing::Each(0));
  EXPECT_EQ(mem.ResidentPages(), kPages);
  std::vector<uint64_t> expected;
  for (uint64_t k = 0; k < kPages; ++k) {
    expected.push_back(page_index(k));
  }
  EXPECT_EQ(mem.ResidentPageIndices(), expected);
  // A page or chunk materialized twice would have lost the writes made
  // through the copy that lost the race.
  for (uint64_t k = 0; k < kPages; ++k) {
    for (int t = 0; t < kThreads; ++t) {
      EXPECT_EQ(mem.Read64(slot(t, k)), value(t, k)) << "page " << k;
    }
  }
  mem.DropPage(page_index(7));
  EXPECT_EQ(mem.Read64(slot(0, 7)), 0u);
  EXPECT_EQ(mem.ResidentPages(), kPages - 1);
  expected.erase(expected.begin() + 7);
  EXPECT_EQ(mem.ResidentPageIndices(), expected);
}

TEST(PhysMemTest, ConcurrentFirstTouchMaterializesEachPageOnce) {
  // Sparse pages, all in the directory's first chunk.
  FirstTouchFromEightThreads([](uint64_t k) { return 3 + 5 * k; });
}

TEST(PhysMemTest, ConcurrentFirstTouchCreatesEachChunkOnce) {
  // Two pages in each of 32 untouched 2 MB chunks: the threads also race
  // to create every chunk.
  FirstTouchFromEightThreads(
      [](uint64_t k) { return (k / 2) * 512 + (k % 2) * 300 + 1; });
}

TEST(PhysMemTest, LastPageOfAPartialChunk) {
  // 513 pages: the directory's second chunk holds only the last page.
  constexpr uint64_t kLast = 512;
  PhysMem mem((kLast + 1) * kPageSize);
  Pa pa((kLast << kPageShift) + 0xFF8);
  mem.Write64(pa, 0xFEEDull);
  EXPECT_EQ(mem.Read64(pa), 0xFEEDull);
  std::array<uint8_t, kPageSize> page{};
  ASSERT_TRUE(mem.ReadPage(kLast, &page));
  uint64_t word = 0;
  std::memcpy(&word, page.data() + 0xFF8, 8);
  EXPECT_EQ(word, 0xFEEDull);
  EXPECT_EQ(mem.ResidentPageIndices(), std::vector<uint64_t>{kLast});
  mem.DropPage(kLast);
  EXPECT_FALSE(mem.ReadPage(kLast, &page));
  EXPECT_EQ(mem.Read64(pa), 0u);
  EXPECT_EQ(mem.ResidentPages(), 0u);
  EXPECT_DEATH(mem.Read64(Pa((kLast + 1) << kPageShift)), "PA out of range");
}

TEST_F(MemFixture, PageInAnUntouchedChunkIsAbsent) {
  mem_.Write64(Pa(0x1000), 1);  // touches chunk 0 only
  constexpr uint64_t kFar = 5 * 512 + 3;  // chunk 5
  std::array<uint8_t, kPageSize> page;
  page.fill(0xAB);
  EXPECT_FALSE(mem_.ReadPage(kFar, &page));
  EXPECT_THAT(page, testing::Each(0xAB));  // *out untouched
  mem_.DropPage(kFar);
  EXPECT_FALSE(mem_.ReadPage(kFar, &page));
  EXPECT_EQ(mem_.Read64(Pa(kFar << kPageShift)), 0u);
  EXPECT_EQ(mem_.ResidentPageIndices(), std::vector<uint64_t>{1});
  EXPECT_EQ(mem_.Read64(Pa(0x1000)), 1u);
}

// --- PageAllocator ---------------------------------------------------------------

TEST_F(MemFixture, AllocatorHandsOutDistinctZeroedPages) {
  Pa a = alloc_.AllocPage();
  Pa b = alloc_.AllocPage();
  EXPECT_NE(a.value, b.value);
  EXPECT_TRUE(IsAligned(a.value, kPageSize));
  EXPECT_EQ(mem_.Read64(a), 0u);
  EXPECT_EQ(alloc_.PagesAllocated(), 2u);
}

TEST_F(MemFixture, AllocatorExhaustionAborts) {
  PageAllocator tiny(&mem_, Pa(0), 2 * kPageSize);
  tiny.AllocPage();
  tiny.AllocPage();
  EXPECT_DEATH(tiny.AllocPage(), "exhausted");
}

// --- PageTable -------------------------------------------------------------------

TEST_F(MemFixture, MapThenWalk) {
  PageTable pt(&mem_, &alloc_);
  pt.MapPage(0x10000, Pa(0x200000), PagePerms::Rw());
  WalkResult r = pt.Walk(0x10123, /*is_write=*/false);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.pa.value, 0x200123u);
  EXPECT_TRUE(r.perms.write);
}

TEST_F(MemFixture, UnmappedWalkFaultsAtLevelZero) {
  PageTable pt(&mem_, &alloc_);
  WalkResult r = pt.Walk(0xDEAD000, false);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.fault, FaultReason::kTranslation);
  EXPECT_EQ(r.fault_level, 0);
}

TEST_F(MemFixture, PartiallyMappedWalkFaultsAtIntermediateLevel) {
  PageTable pt(&mem_, &alloc_);
  pt.MapPage(0x10000, Pa(0x200000), PagePerms::Rw());
  // Same level-0/1/2 indices, different level-3 index.
  WalkResult r = pt.Walk(0x11000, false);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.fault_level, 3);
}

TEST_F(MemFixture, WritePermissionEnforced) {
  PageTable pt(&mem_, &alloc_);
  pt.MapPage(0x10000, Pa(0x200000), PagePerms::Ro());
  EXPECT_TRUE(pt.Walk(0x10000, /*is_write=*/false).ok);
  WalkResult w = pt.Walk(0x10000, /*is_write=*/true);
  EXPECT_FALSE(w.ok);
  EXPECT_EQ(w.fault, FaultReason::kPermission);
}

TEST_F(MemFixture, RemapOverwrites) {
  PageTable pt(&mem_, &alloc_);
  pt.MapPage(0x10000, Pa(0x200000), PagePerms::Rw());
  pt.MapPage(0x10000, Pa(0x300000), PagePerms::Ro());
  WalkResult r = pt.Walk(0x10000, false);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.pa.value, 0x300000u);
  EXPECT_FALSE(r.perms.write);
}

TEST_F(MemFixture, UnmapRemovesTranslation) {
  PageTable pt(&mem_, &alloc_);
  pt.MapPage(0x10000, Pa(0x200000), PagePerms::Rw());
  pt.UnmapPage(0x10000);
  EXPECT_FALSE(pt.Walk(0x10000, false).ok);
  pt.UnmapPage(0x77000);  // unmapped: no-op
}

TEST_F(MemFixture, MapRangeCoversEveryPage) {
  PageTable pt(&mem_, &alloc_);
  pt.MapRange(0, Pa(0x400000), 16 * kPageSize, PagePerms::Rw());
  for (uint64_t off = 0; off < 16 * kPageSize; off += kPageSize) {
    WalkResult r = pt.Walk(off, true);
    ASSERT_TRUE(r.ok) << off;
    EXPECT_EQ(r.pa.value, 0x400000 + off);
  }
  EXPECT_FALSE(pt.Walk(16 * kPageSize, false).ok);
}

// What building one table leaves in a fresh machine memory: allocator use,
// resident pages with their bytes, and the pages dirtied by the build and
// by a second pass that remaps the range into the tables the first built.
struct TableBuild {
  uint64_t pages_allocated = 0;
  std::vector<uint64_t> resident;
  std::vector<std::array<uint8_t, kPageSize>> bytes;
  std::vector<uint64_t> dirty;
  std::vector<uint64_t> remap_dirty;
};

// Maps `pages` pages from input page `first` to output page `first + 7`,
// with one MapRange or with a MapPage loop, then remaps them read-only the
// same way. through_view builds the table in guest-physical space behind a
// GuestPhysView, as a guest hypervisor's Stage-2 is built.
TableBuild BuildTable(uint64_t first, uint64_t pages, bool map_range,
                      bool through_view) {
  PhysMem mem(kMemSize);
  PageAllocator host_alloc(&mem, Pa(32ull << 20), 16ull << 20);
  Stage2Table host_s2(&mem, &host_alloc);
  // L1 IPA [0, 16MB) -> machine [16MB, 32MB).
  host_s2.MapRange(Ipa(0), Pa(16ull << 20), 16ull << 20, PagePerms::Rw());
  GuestPhysView view(&mem, &host_s2);
  MemIo* space = through_view ? static_cast<MemIo*>(&view) : &mem;
  PageAllocator alloc(space, Pa(4ull << 20), 4ull << 20);
  mem.SetDirtyTracking(true);
  PageTable pt(space, &alloc);
  uint64_t in = first << kPageShift;
  Pa out((first + 7) << kPageShift);
  auto map = [&](PagePerms perms) {
    if (map_range) {
      pt.MapRange(in, out, pages << kPageShift, perms);
      return;
    }
    for (uint64_t i = 0; i < pages; ++i) {
      pt.MapPage(in + (i << kPageShift), Pa(out.value + (i << kPageShift)),
                 perms);
    }
  };
  TableBuild b;
  map(PagePerms::RwUser());
  b.dirty = mem.DrainDirtyPages();
  map(PagePerms::Ro());
  b.remap_dirty = mem.DrainDirtyPages();
  b.pages_allocated = alloc.PagesAllocated();
  b.resident = mem.ResidentPageIndices();
  for (uint64_t index : b.resident) {
    std::array<uint8_t, kPageSize>& page = b.bytes.emplace_back();
    EXPECT_TRUE(mem.ReadPage(index, &page));
  }
  return b;
}

void ExpectMapRangeMatchesMapPageLoop(bool through_view) {
  struct Range {
    uint64_t first;  // input page
    uint64_t pages;
  };
  const Range ranges[] = {
      {510, 5},     // into a second level-3 table
      {3, 1030},    // from mid-table across three level-3 tables
      {(1ull << 30 >> kPageShift) - 4, 8},    // 1 GiB: a second level-2 table
      {(512ull << 30 >> kPageShift) - 2, 4},  // 512 GiB: a second level-1 table
  };
  for (const Range& r : ranges) {
    SCOPED_TRACE("first page " + std::to_string(r.first) + ", " +
                 std::to_string(r.pages) + " pages");
    TableBuild range = BuildTable(r.first, r.pages, true, through_view);
    TableBuild loop = BuildTable(r.first, r.pages, false, through_view);
    EXPECT_EQ(range.pages_allocated, loop.pages_allocated);
    EXPECT_EQ(range.resident, loop.resident);
    EXPECT_TRUE(range.bytes == loop.bytes);
    EXPECT_EQ(range.dirty, loop.dirty);
    EXPECT_EQ(range.remap_dirty, loop.remap_dirty);
  }
}

TEST(PageTableTest, MapRangeWritesWhatAMapPageLoopWrites) {
  ExpectMapRangeMatchesMapPageLoop(/*through_view=*/false);
}

TEST(PageTableTest, MapRangeThroughAGuestViewWritesWhatAMapPageLoopWrites) {
  ExpectMapRangeMatchesMapPageLoop(/*through_view=*/true);
}

TEST_F(MemFixture, WalkAcrossTableBoundaries) {
  PageTable pt(&mem_, &alloc_);
  // Addresses chosen to exercise distinct level-0/1/2 indices.
  const uint64_t addrs[] = {
      0x0000'0000'0000ull,          // everything zero
      0x0000'0000'1000ull,          // level-3 index 1
      0x0000'0020'0000ull,          // level-2 index 1
      0x0000'4000'0000ull,          // level-1 index 1
      0x0080'0000'0000ull,          // level-0 index 1
      0x00FF'FFFF'F000ull,          // high indices
  };
  uint64_t target = 0x100000;
  for (uint64_t a : addrs) {
    pt.MapPage(a, Pa(target), PagePerms::Rw());
    target += kPageSize;
  }
  target = 0x100000;
  for (uint64_t a : addrs) {
    WalkResult r = pt.Walk(a + 0x42, false);
    ASSERT_TRUE(r.ok) << std::hex << a;
    EXPECT_EQ(r.pa.value, target + 0x42) << std::hex << a;
    target += kPageSize;
  }
}

TEST_F(MemFixture, WalkFromMatchesMemberWalk) {
  PageTable pt(&mem_, &alloc_);
  pt.MapPage(0x30000, Pa(0x500000), PagePerms::Rw());
  WalkResult a = pt.Walk(0x30010, false);
  WalkResult b = PageTable::WalkFrom(mem_, pt.root(), 0x30010, false);
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  EXPECT_EQ(a.pa.value, b.pa.value);
}

TEST_F(MemFixture, ResetDropsAllMappings) {
  PageTable pt(&mem_, &alloc_);
  pt.MapPage(0x10000, Pa(0x200000), PagePerms::Rw());
  Pa old_root = pt.root();
  pt.Reset();
  EXPECT_NE(pt.root().value, old_root.value);
  EXPECT_FALSE(pt.Walk(0x10000, false).ok);
}

TEST_F(MemFixture, MisalignedMapAborts) {
  PageTable pt(&mem_, &alloc_);
  EXPECT_DEATH(pt.MapPage(0x10001, Pa(0x200000), PagePerms::Rw()), "");
  EXPECT_DEATH(pt.MapPage(0x10000, Pa(0x200001), PagePerms::Rw()), "");
  EXPECT_DEATH(pt.MapRange(0x10001, Pa(0x200000), kPageSize, PagePerms::Rw()),
               "IsAligned\\(input_start");
  EXPECT_DEATH(pt.MapRange(0x10000, Pa(0x200001), kPageSize, PagePerms::Rw()),
               "IsAligned\\(output_start");
  EXPECT_DEATH(
      pt.MapRange(0x10000, Pa(0x200000), kPageSize + 8, PagePerms::Rw()),
      "IsAligned\\(size");
}

// --- Typed wrappers ----------------------------------------------------------------

TEST_F(MemFixture, StageTablesWrapTypes) {
  Stage1Table s1(&mem_, &alloc_);
  s1.MapPage(Va(0x8000), Ipa(0x18000), PagePerms::RwUser());
  WalkResult r = s1.Walk(Va(0x8000), false);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.pa.value, 0x18000u);
  EXPECT_TRUE(r.perms.user);

  Stage2Table s2(&mem_, &alloc_);
  s2.MapPage(Ipa(0x18000), Pa(0x28000), PagePerms::Rw());
  WalkResult r2 = s2.Walk(Ipa(0x18000), true);
  ASSERT_TRUE(r2.ok);
  EXPECT_EQ(r2.pa.value, 0x28000u);
}

// --- Shadow Stage-2 (section 4's memory virtualization) -----------------------------

class ShadowFixture : public MemFixture {
 protected:
  // The host Stage-2 must exist before the guest's own tables can be built
  // through the translating view -- same ordering a real host enforces.
  // (Mapped in place: page tables carry a mutex now, so they don't move.)
  Stage2Table& MakeHostS2() {
    // L1 IPA [0, 16MB) -> machine [16MB, 32MB).
    host_s2_.MapRange(Ipa(0), Pa(16ull << 20), 16ull << 20, PagePerms::Rw());
    return host_s2_;
  }

  ShadowFixture()
      : host_s2_(&mem_, &alloc_),
        view_(&mem_, &MakeHostS2()),
        guest_alloc_(&view_, Pa(4ull << 20), 4ull << 20),
        virtual_s2_(&view_, &guest_alloc_),
        shadow_(&mem_, &alloc_) {}

  Stage2Table host_s2_;     // L1 IPA -> machine PA
  GuestPhysView view_;      // guest-physical view for the guest's tables
  PageAllocator guest_alloc_;
  Stage2Table virtual_s2_;  // L2 IPA -> L1 IPA (lives in guest memory)
  ShadowS2 shadow_;
};

TEST_F(ShadowFixture, GuestPhysViewTranslatesThroughHostS2) {
  view_.Write64(Pa(0x1000), 0x77);
  // The write must land at machine PA 16MB + 0x1000.
  EXPECT_EQ(mem_.Read64(Pa((16ull << 20) + 0x1000)), 0x77u);
  EXPECT_EQ(view_.Read64(Pa(0x1000)), 0x77u);
}

TEST_F(ShadowFixture, GuestPhysViewUnmappedIpaRaisesGuestFault) {
  // An unmapped IPA is the guest hypervisor's bug, not the host's: it
  // raises a confinable guest fault instead of aborting the process.
  try {
    view_.Read64(Pa(17ull << 20));
    FAIL() << "expected a GuestFaultException";
  } catch (const GuestFaultException& e) {
    EXPECT_STREQ(e.kind(), "bad_guest_mapping");
    EXPECT_THAT(std::string(e.what()), testing::HasSubstr("not mapped"));
  }
}

TEST_F(ShadowFixture, CollapseInstallsCombinedMapping) {
  // L2 IPA 0x2000 -> L1 IPA 0x5000 -> machine 16MB + 0x5000.
  virtual_s2_.MapPage(Ipa(0x2000), Pa(0x5000), PagePerms::Rw());
  auto result = shadow_.HandleFault(Ipa(0x2000), /*is_write=*/true,
                                    virtual_s2_, host_s2_);
  EXPECT_EQ(result, ShadowS2::FixupResult::kInstalled);
  WalkResult w = shadow_.table().Walk(Ipa(0x2010), true);
  ASSERT_TRUE(w.ok);
  EXPECT_EQ(w.pa.value, (16ull << 20) + 0x5010);
  EXPECT_EQ(shadow_.faults_handled(), 1u);
}

TEST_F(ShadowFixture, CollapseViaGuestViewAndRoot) {
  virtual_s2_.MapPage(Ipa(0x3000), Pa(0x6000), PagePerms::Rw());
  auto result = shadow_.HandleFault(Ipa(0x3000), false, view_,
                                    virtual_s2_.root(), host_s2_);
  EXPECT_EQ(result, ShadowS2::FixupResult::kInstalled);
  WalkResult w = shadow_.table().Walk(Ipa(0x3000), false);
  ASSERT_TRUE(w.ok);
  EXPECT_EQ(w.pa.value, (16ull << 20) + 0x6000);
}

TEST_F(ShadowFixture, VirtualFaultIsForwardedNotInstalled) {
  // The guest hypervisor never mapped this IPA: its fault to handle
  // (e.g. an MMIO region it emulates).
  auto result = shadow_.HandleFault(Ipa(0x9000), false, virtual_s2_, host_s2_);
  EXPECT_EQ(result, ShadowS2::FixupResult::kVirtualFault);
  EXPECT_EQ(shadow_.faults_handled(), 0u);
}

TEST_F(ShadowFixture, HostFaultDetected) {
  // vS2 maps to an L1 IPA outside the host's Stage-2 range.
  virtual_s2_.MapPage(Ipa(0x2000), Pa(20ull << 20), PagePerms::Rw());
  auto result = shadow_.HandleFault(Ipa(0x2000), false, virtual_s2_, host_s2_);
  EXPECT_EQ(result, ShadowS2::FixupResult::kHostFault);
}

TEST_F(ShadowFixture, PermissionsIntersect) {
  // Guest hypervisor grants RO; host grants RW -> effective RO.
  virtual_s2_.MapPage(Ipa(0x2000), Pa(0x5000), PagePerms::Ro());
  auto result = shadow_.HandleFault(Ipa(0x2000), /*is_write=*/false,
                                    virtual_s2_, host_s2_);
  EXPECT_EQ(result, ShadowS2::FixupResult::kInstalled);
  EXPECT_TRUE(shadow_.table().Walk(Ipa(0x2000), false).ok);
  EXPECT_FALSE(shadow_.table().Walk(Ipa(0x2000), true).ok);
}

TEST_F(ShadowFixture, WriteFaultOnReadOnlyVirtualMappingForwards) {
  virtual_s2_.MapPage(Ipa(0x2000), Pa(0x5000), PagePerms::Ro());
  auto result = shadow_.HandleFault(Ipa(0x2000), /*is_write=*/true,
                                    virtual_s2_, host_s2_);
  EXPECT_EQ(result, ShadowS2::FixupResult::kVirtualFault);
}

TEST_F(ShadowFixture, FlushDropsShadowEntries) {
  virtual_s2_.MapPage(Ipa(0x2000), Pa(0x5000), PagePerms::Rw());
  shadow_.HandleFault(Ipa(0x2000), true, virtual_s2_, host_s2_);
  ASSERT_TRUE(shadow_.table().Walk(Ipa(0x2000), true).ok);
  shadow_.Flush();
  EXPECT_FALSE(shadow_.table().Walk(Ipa(0x2000), true).ok);
}

TEST_F(ShadowFixture, GuestTablePagesLiveInGuestMemory) {
  // The virtual Stage-2's descriptors must be reachable through the guest
  // view -- i.e. stored in guest-physical space, as on real hardware.
  virtual_s2_.MapPage(Ipa(0x2000), Pa(0x5000), PagePerms::Rw());
  Pa root = virtual_s2_.root();
  // Root is an L1 IPA inside the guest allocator's range.
  EXPECT_GE(root.value, 4ull << 20);
  EXPECT_LT(root.value, 8ull << 20);
  // And its backing machine page holds a nonzero descriptor somewhere.
  uint64_t nonzero = 0;
  for (uint64_t off = 0; off < kPageSize; off += 8) {
    nonzero |= view_.Read64(Pa(root.value + off));
  }
  EXPECT_NE(nonzero, 0u);
}

}  // namespace
}  // namespace neve
