// Tests for cross-layer cycle attribution (src/obs/attr.h).
//
// The load-bearing property is conservation: every cycle any CPU charges
// lands in exactly one (vm, vcpu, layer, category) bucket, so the sum over
// all buckets equals the machine's cycle total at all times, on every stack
// configuration. The unit tests pin the frame-stack mechanics that make that
// hold; the integration tests assert it end-to-end, check the NEVE-vs-v8.3
// trap-cost story the buckets exist to tell, and guard the always-on
// overhead contract.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/arch/vncr.h"
#include "src/obs/attr.h"
#include "src/obs/json.h"
#include "src/workload/microbench.h"
#include "src/workload/stacks.h"

namespace neve {
namespace {

// --- key packing -------------------------------------------------------------

TEST(AttrKeyTest, PackUnpackRoundTrips) {
  uint64_t key = PackAttrKey(3, 1, AttrLayer::kL2, AttrCat::kTrapSysReg);
  AttrBucket b = UnpackAttrKey(key);
  EXPECT_EQ(b.vm, 3);
  EXPECT_EQ(b.vcpu, 1);
  EXPECT_EQ(b.layer, AttrLayer::kL2);
  EXPECT_EQ(b.cat, AttrCat::kTrapSysReg);
}

TEST(AttrKeyTest, HostRootContextPacksNegativeIds) {
  AttrBucket b = UnpackAttrKey(
      PackAttrKey(-1, -1, AttrLayer::kL0, AttrCat::kHostOther));
  EXPECT_EQ(b.vm, -1);
  EXPECT_EQ(b.vcpu, -1);
}

TEST(AttrKeyTest, NoAttrKeySentinelIsNotAPackableKey) {
  // Key 0 is a real context (vm0/vcpu0/L0/host_other), so the sentinel must
  // be something no Pack call can produce.
  EXPECT_NE(kNoAttrKey,
            PackAttrKey(0, 0, AttrLayer::kL0, AttrCat::kHostOther));
  for (int vm : {-1, 0, 7}) {
    EXPECT_NE(kNoAttrKey, PackAttrKey(vm, 0, AttrLayer::kL2,
                                      AttrCat::kIdleWait));
  }
}

TEST(AttrNamesTest, LayerAndCatNamesRoundTrip) {
  for (int i = 0; i < kNumAttrLayers; ++i) {
    AttrLayer layer = static_cast<AttrLayer>(i);
    AttrLayer back;
    ASSERT_TRUE(AttrLayerFromName(AttrLayerName(layer), &back));
    EXPECT_EQ(back, layer);
  }
  for (int i = 0; i < kNumAttrCats; ++i) {
    AttrCat cat = static_cast<AttrCat>(i);
    AttrCat back;
    ASSERT_TRUE(AttrCatFromName(AttrCatName(cat), &back));
    EXPECT_EQ(back, cat);
  }
  AttrLayer l;
  AttrCat c;
  EXPECT_FALSE(AttrLayerFromName("L9", &l));
  EXPECT_FALSE(AttrCatFromName("bogus", &c));
}

// --- frame stack mechanics ---------------------------------------------------

TEST(CycleAttributionTest, AttachPushesRootFrame) {
  CycleAttribution attr;
  attr.AttachCpu(0);
  EXPECT_EQ(attr.Depth(0), 1u);
  EXPECT_EQ(attr.CurrentKey(0),
            PackAttrKey(-1, -1, AttrLayer::kL0, AttrCat::kHostOther));
}

TEST(CycleAttributionTest, CurrentKeyOfUnattachedCpuIsSentinel) {
  CycleAttribution attr;
  EXPECT_EQ(attr.CurrentKey(3), kNoAttrKey);
  EXPECT_EQ(attr.CurrentKey(-1), kNoAttrKey);
}

TEST(CycleAttributionTest, ChargesLandInTopFrame) {
  CycleAttribution attr;
  attr.AttachCpu(0);
  attr.ChargeCurrent(0, 10);
  attr.Push(0, 0, 0, AttrLayer::kL1, AttrCat::kGuestCompute);
  attr.ChargeCurrent(0, 7);
  attr.Pop(0);
  attr.ChargeCurrent(0, 5);

  std::vector<AttrBucket> rows = attr.Snapshot();
  ASSERT_EQ(rows.size(), 2u);
  // Sorted: host root (vm -1) before vm0.
  EXPECT_EQ(rows[0].vm, -1);
  EXPECT_EQ(rows[0].cycles, 15u);
  EXPECT_EQ(rows[1].vm, 0);
  EXPECT_EQ(rows[1].cat, AttrCat::kGuestCompute);
  EXPECT_EQ(rows[1].cycles, 7u);
  EXPECT_EQ(attr.TotalCycles(), 22u);
}

TEST(CycleAttributionTest, PushInheritKeepsContextChangesCat) {
  CycleAttribution attr;
  attr.AttachCpu(0);
  attr.Push(0, 1, 2, AttrLayer::kL2, AttrCat::kGuestCompute);
  attr.PushInherit(0, AttrCat::kGicEmul);
  EXPECT_EQ(attr.CurrentKey(0),
            PackAttrKey(1, 2, AttrLayer::kL2, AttrCat::kGicEmul));
  attr.Pop(0);
  attr.PushInheritLayer(0, AttrLayer::kL1, AttrCat::kVel2Deliver);
  EXPECT_EQ(attr.CurrentKey(0),
            PackAttrKey(1, 2, AttrLayer::kL1, AttrCat::kVel2Deliver));
}

TEST(CycleAttributionTest, PopNeverDiscardsCharges) {
  // Rule 2 of the conservation contract: charges live in buckets, not in
  // frames, so popping a frame (normally or during unwinding) loses nothing.
  CycleAttribution attr;
  attr.AttachCpu(0);
  attr.Push(0, 0, 0, AttrLayer::kL1, AttrCat::kTrapHvc);
  attr.ChargeCurrent(0, 100);
  attr.Pop(0);
  EXPECT_EQ(attr.TotalCycles(), 100u);
}

TEST(CycleAttributionTest, ChargeToRedirectsCategoryWithoutAFrame) {
  CycleAttribution attr;
  attr.AttachCpu(0);
  attr.Push(0, 0, 0, AttrLayer::kL1, AttrCat::kGuestCompute);
  attr.ChargeTo(0, AttrCat::kVncrRedirect, 3);
  attr.ChargeTo(0, AttrCat::kVncrRedirect, 4);
  // A new context: the redirect follows the top frame.
  attr.Push(0, 1, 0, AttrLayer::kL1, AttrCat::kGuestCompute);
  attr.ChargeTo(0, AttrCat::kVncrRedirect, 9);
  // The last category from an L2 frame of vm0, whose cells come before
  // vm1's: that is the last cell of vm0's block, so a cell taken from the
  // wrong layer or block lands in another bucket.
  attr.Push(0, 0, 0, AttrLayer::kL2, AttrCat::kTrapHvc);
  attr.ChargeTo(0, AttrCat::kIdleWait, 5);

  EXPECT_EQ(attr.Snapshot(),
            (std::vector<AttrBucket>{
                {.vm = 0,
                 .vcpu = 0,
                 .layer = AttrLayer::kL1,
                 .cat = AttrCat::kVncrRedirect,
                 .cycles = 7},
                {.vm = 0,
                 .vcpu = 0,
                 .layer = AttrLayer::kL2,
                 .cat = AttrCat::kIdleWait,
                 .cycles = 5},
                {.vm = 1,
                 .vcpu = 0,
                 .layer = AttrLayer::kL1,
                 .cat = AttrCat::kVncrRedirect,
                 .cycles = 9},
            }));
}

TEST(CycleAttributionTest, SnapshotSkipsZeroBucketsAndSorts) {
  CycleAttribution attr;
  attr.AttachCpu(0);
  // Touch the root bucket without charging it; only charged buckets appear.
  attr.Push(0, 1, 0, AttrLayer::kL1, AttrCat::kGuestCompute);
  attr.ChargeCurrent(0, 1);
  attr.Push(0, 0, 0, AttrLayer::kL1, AttrCat::kGuestCompute);
  attr.ChargeCurrent(0, 2);

  std::vector<AttrBucket> rows = attr.Snapshot();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].vm, 0);
  EXPECT_EQ(rows[1].vm, 1);
}

TEST(CycleAttributionTest, PerCpuStacksAreIndependent) {
  CycleAttribution attr;
  attr.AttachCpu(0);
  attr.AttachCpu(1);
  attr.Push(0, 0, 0, AttrLayer::kL1, AttrCat::kGuestCompute);
  attr.ChargeCurrent(0, 5);
  attr.ChargeCurrent(1, 11);  // cpu1 still at its root frame
  std::vector<AttrBucket> rows = attr.Snapshot();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].vm, -1);
  EXPECT_EQ(rows[0].cycles, 11u);
  EXPECT_EQ(rows[1].cycles, 5u);
}

// --- AttrScope ---------------------------------------------------------------

struct FakeClocked {
  CycleAttribution* attr = nullptr;
  int idx = 0;
  CycleAttribution* attribution() { return attr; }
  int index() const { return idx; }
};

TEST(AttrScopeTest, RaiiBalancesTheStack) {
  CycleAttribution attr;
  attr.AttachCpu(0);
  FakeClocked fake{&attr, 0};
  {
    AttrScope scope(fake, AttrCat::kGicEmul);
    EXPECT_EQ(attr.Depth(0), 2u);
    {
      AttrScope inner(fake, AttrLayer::kL2, AttrCat::kGuestCompute);
      EXPECT_EQ(attr.Depth(0), 3u);
    }
    EXPECT_EQ(attr.Depth(0), 2u);
  }
  EXPECT_EQ(attr.Depth(0), 1u);
}

TEST(AttrScopeTest, ExceptionUnwindPopsFramesAndKeepsCharges) {
  CycleAttribution attr;
  attr.AttachCpu(0);
  FakeClocked fake{&attr, 0};
  try {
    AttrScope scope(fake, 0, 0, AttrLayer::kL1, AttrCat::kGuestCompute);
    attr.ChargeCurrent(0, 40);
    AttrScope inner(fake, AttrCat::kShadowS2Fixup);
    attr.ChargeCurrent(0, 2);
    throw std::runtime_error("guest fault");
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(attr.Depth(0), 1u);
  EXPECT_EQ(attr.TotalCycles(), 42u);
  std::vector<AttrBucket> rows = attr.Snapshot();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1].cat, AttrCat::kShadowS2Fixup);
  EXPECT_EQ(rows[1].cycles, 2u);
}

TEST(AttrScopeTest, DetachedAttributionIsANoOp) {
  FakeClocked fake{nullptr, 0};
  AttrScope scope(fake, AttrCat::kGicEmul);  // must not crash
}

// --- flight recorder ---------------------------------------------------------

TEST(FlightRecorderTest, RingWrapsAtCapacity) {
  CycleAttribution attr;
  attr.AttachCpu(0);
  const size_t n = CycleAttribution::kFlightCapacity + 4;
  for (size_t i = 0; i < n; ++i) {
    attr.ChargeCurrent(0, 1);
    attr.RecordFlight("r" + std::to_string(i));
  }
  const std::vector<CycleAttribution::FlightRecord>& flights = attr.flights();
  ASSERT_EQ(flights.size(), CycleAttribution::kFlightCapacity);
  // The 4 oldest records were overwritten in place at the ring's start.
  EXPECT_EQ(flights[0].reason, "r16");
  EXPECT_EQ(flights[3].reason, "r19");
  EXPECT_EQ(flights[4].reason, "r4");
  // Each record snapshots the totals at capture time.
  EXPECT_EQ(flights[4].cycles, 5u);
  ASSERT_EQ(flights[4].buckets.size(), 1u);
  EXPECT_EQ(flights[4].buckets[0].cycles, 5u);
}

// --- renderers ---------------------------------------------------------------

TEST(AttrRenderTest, StackNameFormatsHostAndVmContexts) {
  AttrBucket host{.vm = -1, .vcpu = -1, .layer = AttrLayer::kL0,
                  .cat = AttrCat::kHostOther};
  EXPECT_EQ(host.StackName(), "host;L0;host_other");
  AttrBucket guest{.vm = 0, .vcpu = 1, .layer = AttrLayer::kL2,
                   .cat = AttrCat::kTrapSysReg};
  EXPECT_EQ(guest.StackName(), "vm0/vcpu1;L2;trap_sysreg");
}

TEST(AttrRenderTest, CollapsedAndTreeAgreeOnTotals) {
  CycleAttribution attr;
  attr.AttachCpu(0);
  attr.ChargeCurrent(0, 5);
  attr.Push(0, 0, 0, AttrLayer::kL1, AttrCat::kGuestCompute);
  attr.ChargeCurrent(0, 10);

  EXPECT_EQ(attr.CollapsedStacks(),
            "host;L0;host_other 5\nvm0/vcpu0;L1;guest_compute 10\n");
  std::string tree = attr.TextTree();
  EXPECT_EQ(tree.substr(0, tree.find('\n')), "total 15 cycles");
}

// --- JSON reader (src/obs/json.h) --------------------------------------------

TEST(JsonReaderTest, ParsesTheShapesWeEmit) {
  std::string error;
  std::unique_ptr<JsonValue> v = JsonValue::Parse(
      "{\"total\": 18446744073709551615, \"vm\": -1, \"pi\": 3.5,\n"
      " \"name\": \"vm0\\n\", \"ok\": true, \"none\": null,\n"
      " \"rows\": [1, 2, 3]}",
      &error);
  ASSERT_NE(v, nullptr) << error;
  ASSERT_TRUE(v->is_object());
  // Cycle counts must stay exact up to UINT64_MAX for the diff contract.
  EXPECT_EQ(v->Find("total")->AsU64(), UINT64_C(18446744073709551615));
  EXPECT_EQ(v->Find("vm")->AsI64(), -1);
  EXPECT_DOUBLE_EQ(v->Find("pi")->AsDouble(), 3.5);
  EXPECT_EQ(v->Find("name")->AsString(), "vm0\n");
  EXPECT_TRUE(v->Find("ok")->AsBool());
  EXPECT_TRUE(v->Find("none")->is_null());
  ASSERT_TRUE(v->Find("rows")->is_array());
  EXPECT_EQ(v->Find("rows")->Items().size(), 3u);
  EXPECT_EQ(v->Find("absent"), nullptr);
}

TEST(JsonReaderTest, RejectsMalformedInput) {
  for (const char* bad :
       {"{", "[1,]", "{\"a\": }", "tru", "\"unterminated", "{\"a\":1,}", ""}) {
    std::string error;
    EXPECT_EQ(JsonValue::Parse(bad, &error), nullptr) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

// --- the conservation invariant, end to end ----------------------------------

struct NamedConfig {
  const char* name;
  StackConfig cfg;
};

const NamedConfig kConfigs[] = {
    {"vm", StackConfig::Vm()},
    {"v83", StackConfig::NestedV83(false)},
    {"v83-vhe", StackConfig::NestedV83(true)},
    {"neve", StackConfig::NestedNeve(false)},
    {"neve-vhe", StackConfig::NestedNeve(true)},
};

uint64_t BucketSum(const std::vector<AttrBucket>& rows) {
  return std::accumulate(rows.begin(), rows.end(), UINT64_C(0),
                         [](uint64_t s, const AttrBucket& b) {
                           return s + b.cycles;
                         });
}

TEST(AttrConservationTest, EveryStackConfigEveryWorkload) {
  for (const NamedConfig& nc : kConfigs) {
    for (MicrobenchKind kind :
         {MicrobenchKind::kHypercall, MicrobenchKind::kDeviceIo,
          MicrobenchKind::kVirtualIpi, MicrobenchKind::kVirtualEoi}) {
      AttributedRun run = RunArmMicrobenchAttributed(kind, nc.cfg, 8);
      EXPECT_GT(run.machine_cycles, 0u)
          << nc.name << "/" << MicrobenchName(kind);
      EXPECT_EQ(BucketSum(run.buckets), run.machine_cycles)
          << nc.name << "/" << MicrobenchName(kind);
    }
  }
}

TEST(AttrConservationTest, IpiRendezvousShowsUpAsIdleWait) {
  // Virtual IPI runs a parked receiver on pCPU 1; its clock catches up via
  // AdvanceTo, which must land in the dedicated idle bucket, not in guest
  // compute.
  AttributedRun run = RunArmMicrobenchAttributed(MicrobenchKind::kVirtualIpi,
                                                 StackConfig::Vm(), 8);
  uint64_t idle = 0;
  for (const AttrBucket& b : run.buckets) {
    if (b.cat == AttrCat::kIdleWait) {
      idle += b.cycles;
    }
  }
  EXPECT_GT(idle, 0u);
}

TEST(AttrConservationTest, NestedRunAttributesAllThreeLayers) {
  AttributedRun run = RunArmMicrobenchAttributed(MicrobenchKind::kHypercall,
                                                 StackConfig::NestedV83(false),
                                                 8);
  bool l0 = false, l1 = false, l2 = false;
  for (const AttrBucket& b : run.buckets) {
    l0 |= b.layer == AttrLayer::kL0;
    l1 |= b.layer == AttrLayer::kL1;
    l2 |= b.layer == AttrLayer::kL2;
  }
  EXPECT_TRUE(l0);
  EXPECT_TRUE(l1);
  EXPECT_TRUE(l2);
}

TEST(AttrNeveTest, NeveCutsTrapAndWorldSwitchCost) {
  // The paper's Table 6 story in bucket form: the deferred access page
  // eliminates most vEL2 sysreg traps, so the sysreg-trap and world-switch
  // buckets shrink and total overhead (everything but guest compute) drops.
  AttributedRun v83 = RunArmMicrobenchAttributed(
      MicrobenchKind::kHypercall, StackConfig::NestedV83(false), 16);
  AttributedRun neve = RunArmMicrobenchAttributed(
      MicrobenchKind::kHypercall, StackConfig::NestedNeve(false), 16);

  auto cat_sum = [](const std::vector<AttrBucket>& buckets, AttrCat cat) {
    uint64_t s = 0;
    for (const AttrBucket& b : buckets) {
      if (b.cat == cat) {
        s += b.cycles;
      }
    }
    return s;
  };
  EXPECT_LT(cat_sum(neve.buckets, AttrCat::kTrapSysReg),
            cat_sum(v83.buckets, AttrCat::kTrapSysReg));
  EXPECT_LT(cat_sum(neve.buckets, AttrCat::kWorldSwitchEnter),
            cat_sum(v83.buckets, AttrCat::kWorldSwitchEnter));

  auto overhead = [&](const AttributedRun& run) {
    uint64_t s = 0;
    for (const AttrBucket& b : run.buckets) {
      if (b.cat != AttrCat::kGuestCompute && b.cat != AttrCat::kIdleWait) {
        s += b.cycles;
      }
    }
    return s;
  };
  EXPECT_LT(overhead(neve), overhead(v83));
  // VNCR redirects exist only under NEVE.
  EXPECT_EQ(cat_sum(v83.buckets, AttrCat::kVncrRedirect), 0u);
  EXPECT_GT(cat_sum(neve.buckets, AttrCat::kVncrRedirect), 0u);

  // Each deferred vEL2 access lands in that bucket, in either direction: on
  // a bare NEVE CPU one read and one write add mem_access each.
  PhysMem mem(16ull << 20);
  Cpu cpu(0, ArchFeatures::Armv84Neve(), CostModel::Default(), &mem);
  CycleAttribution attr;
  attr.AttachCpu(0);
  cpu.SetAttribution(&attr);
  cpu.PokeReg(RegId::kVNCR_EL2, VncrEl2::Make(8ull << 20, true).bits());
  cpu.PokeReg(RegId::kHCR_EL2, Hcr::Make({HcrBits::kVm, HcrBits::kImo,
                                          HcrBits::kNv, HcrBits::kNv1}));
  const uint64_t access = cpu.cost().mem_access;
  cpu.RunLowerEl(El::kEl1, [&] {
    (void)cpu.SysRegRead(SysReg::kVTTBR_EL2);
    EXPECT_EQ(cat_sum(attr.Snapshot(), AttrCat::kVncrRedirect), access);
    cpu.SysRegWrite(SysReg::kVTTBR_EL2, 1);
    EXPECT_EQ(cat_sum(attr.Snapshot(), AttrCat::kVncrRedirect), 2 * access);
  });
}

// --- trap-episode profiler ---------------------------------------------------

TEST(TrapEpisodeTest, ObservedRunRecordsEpisodeHistogramWithExemplars) {
  ArmStack stack(StackConfig::NestedV83(false), 1);
  stack.machine().obs().set_enabled(true);
  ASSERT_TRUE(stack
                  .Run([](GuestEnv& env) {
                    for (int i = 0; i < 4; ++i) {
                      env.Hvc(kHvcTestCall);
                    }
                  })
                  .ok());
  const MetricHistogram* h =
      stack.machine().obs().metrics().FindHistogram("cpu.trap_episode_cycles");
  ASSERT_NE(h, nullptr);
  EXPECT_GT(h->count(), 0u);
  // The episode histogram carries exemplar trace IDs linking back to the
  // trace events that produced the samples.
  std::optional<uint64_t> ex = h->PercentileExemplar(99);
  ASSERT_TRUE(ex.has_value());
  EXPECT_NE(*ex, 0u);
}

// --- overhead guard ----------------------------------------------------------

// One timed rep of RunVel2SysRegBurst's loop body (bench/simcore_gbench.cc)
// on a bare CPU, optionally with attribution attached.
double BurstSeconds(bool attributed, int inner_iters) {
  PhysMem mem(16ull << 20);
  Cpu cpu(0, ArchFeatures::Armv84Neve(), CostModel::Default(), &mem);
  CycleAttribution attr;
  if (attributed) {
    attr.AttachCpu(0);
    cpu.SetAttribution(&attr);
  }
  cpu.PokeReg(RegId::kVNCR_EL2, VncrEl2::Make(8ull << 20, true).bits());
  cpu.PokeReg(RegId::kHCR_EL2, Hcr::Make({HcrBits::kVm, HcrBits::kImo,
                                          HcrBits::kNv, HcrBits::kNv1}));
  double seconds = 0;
  cpu.RunLowerEl(El::kEl1, [&] {
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < inner_iters; ++i) {
      volatile uint64_t sink = cpu.SysRegRead(SysReg::kHCR_EL2);
      sink = cpu.SysRegRead(SysReg::kVTTBR_EL2);
      sink = cpu.SysRegRead(SysReg::kTPIDR_EL2);
      (void)sink;
      cpu.SysRegWrite(SysReg::kHSTR_EL2, 1);
    }
    seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            start)
                  .count();
  });
  return seconds;
}

double MinBurstSeconds(bool attributed, int reps, int inner_iters) {
  double best = BurstSeconds(attributed, inner_iters);
  for (int i = 1; i < reps; ++i) {
    best = std::min(best, BurstSeconds(attributed, inner_iters));
  }
  return best;
}

TEST(AttrOverheadGuard, AttachedWithinThreePercentOfDetached) {
  // Always-on contract: attribution attached vs detached on the sysreg-burst
  // hot path within 3%. min-of-reps discards scheduler noise; a few attempts
  // keep the guard from flaking on a loaded CI host while still failing
  // deterministically if the hot path grows a real regression.
  constexpr int kInner = 200000;
  constexpr int kReps = 7;
  constexpr double kMaxRatio = 1.03;
  double ratio = 0;
  for (int attempt = 0; attempt < 5; ++attempt) {
    double detached = MinBurstSeconds(false, kReps, kInner);
    double attached = MinBurstSeconds(true, kReps, kInner);
    ratio = attached / detached;
    if (ratio <= kMaxRatio) {
      return;
    }
  }
  FAIL() << "attribution overhead ratio " << ratio << " exceeds " << kMaxRatio;
}

}  // namespace
}  // namespace neve
