// Integration tests for the hypervisor stack: single-level virtualization,
// nested virtualization (virtual EL2 emulation, shadow Stage-2, exit
// forwarding), NEVE host support, and cross-CPU interrupt delivery.

#include <gmock/gmock.h>
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/gic/gic.h"
#include "src/hyp/guest_kvm.h"
#include "src/hyp/host_kvm.h"
#include "src/workload/stacks.h"

namespace neve {
namespace {

MachineConfig BaseConfig(ArchFeatures features, int cpus = 1) {
  MachineConfig mc;
  mc.num_cpus = cpus;
  mc.features = features;
  return mc;
}

// --- single-level virtualization -------------------------------------------------

TEST(HostKvmTest, PlainGuestHypercallTakesExactlyOneTrap) {
  Machine machine(BaseConfig(ArchFeatures::Armv83Nv()));
  HostKvm l0(&machine, {});
  Vm* vm = l0.CreateVm({.name = "vm", .ram_size = 8ull << 20});
  vm->vcpu(0).main_sw.main = [](GuestEnv& env) { env.Hvc(kHvcTestCall); };
  l0.RunVcpu(vm->vcpu(0), 0);
  EXPECT_EQ(machine.cpu(0).trace().traps_to_el2(), 1u);
  EXPECT_EQ(vm->vcpu(0).exits, 1u);
}

TEST(HostKvmTest, GuestMemoryIsIsolatedAndPersistent) {
  Machine machine(BaseConfig(ArchFeatures::Armv83Nv()));
  HostKvm l0(&machine, {});
  Vm* a = l0.CreateVm({.name = "a", .ram_size = 8ull << 20});
  Vm* b = l0.CreateVm({.name = "b", .ram_size = 8ull << 20});
  a->vcpu(0).main_sw.main = [](GuestEnv& env) {
    env.Store(Va(0x1000), 0xAAAA);
  };
  b->vcpu(0).main_sw.main = [](GuestEnv& env) {
    EXPECT_EQ(env.Load(Va(0x1000)), 0u) << "saw another VM's memory";
    env.Store(Va(0x1000), 0xBBBB);
  };
  l0.RunVcpu(a->vcpu(0), 0);
  l0.RunVcpu(b->vcpu(0), 0);
  // Distinct machine pages backed the same IPA.
  EXPECT_NE(a->ram_base().value, b->ram_base().value);
  EXPECT_EQ(machine.mem().Read64(Pa(a->ram_base().value + 0x1000)), 0xAAAAu);
  EXPECT_EQ(machine.mem().Read64(Pa(b->ram_base().value + 0x1000)), 0xBBBBu);
}

TEST(HostKvmTest, MmioReachesDevice) {
  Machine machine(BaseConfig(ArchFeatures::Armv83Nv()));
  HostKvm l0(&machine, {});
  TestDevice device(100);
  Vm* vm = l0.CreateVm({.ram_size = 8ull << 20});
  vm->AddMmioRange(Ipa(0x4000'0000), kPageSize, &device);
  uint64_t read_value = 0;
  vm->vcpu(0).main_sw.main = [&](GuestEnv& env) {
    read_value = env.Load(Va(0x4000'0010));
    env.Store(Va(0x4000'0020), 0x77);
  };
  l0.RunVcpu(vm->vcpu(0), 0);
  EXPECT_EQ(device.reads(), 1u);
  EXPECT_EQ(device.writes(), 1u);
  EXPECT_EQ(device.last_write(), 0x77u);
  EXPECT_EQ(read_value, 0xD0D0'0010u);
  EXPECT_EQ(machine.cpu(0).trace().traps(TraceClass::kAbort), 2u);
}

TEST(HostKvmTest, UnmappedNonMmioAccessKillsOnlyTheVm) {
  Machine machine(BaseConfig(ArchFeatures::Armv83Nv()));
  HostKvm l0(&machine, {});
  Vm* vm = l0.CreateVm({.ram_size = 8ull << 20});
  vm->vcpu(0).main_sw.main = [](GuestEnv& env) {
    env.Store(Va(0x5000'0000), 1);
  };
  Status s = l0.RunVcpu(vm->vcpu(0), 0);
  EXPECT_FALSE(s.ok());
  EXPECT_THAT(s.message(), testing::HasSubstr("unmapped_mmio"));
  EXPECT_TRUE(vm->dead());
  // The host survives and refuses to run the dead VM again.
  Status again = l0.RunVcpu(vm->vcpu(0), 0);
  EXPECT_EQ(again.code(), ErrorCode::kFailedPrecondition);
  EXPECT_EQ(l0.LoadedVcpu(0), nullptr);
}

TEST(HostKvmTest, PlainGuestIpiAcrossPcpus) {
  Machine machine(BaseConfig(ArchFeatures::Armv83Nv(), 2));
  HostKvm l0(&machine, {});
  Vm* vm = l0.CreateVm({.num_vcpus = 2, .ram_size = 8ull << 20});
  bool handled = false;
  vm->vcpu(1).main_sw.main = [&](GuestEnv& env) {
    env.SetIrqHandler([&](GuestEnv& henv, uint32_t intid) {
      EXPECT_EQ(intid, kSgiBase + 5);
      uint64_t acked = henv.ReadSys(SysReg::kICC_IAR1_EL1);
      EXPECT_EQ(acked, kSgiBase + 5);
      handled = true;
      henv.Store(Va(0x1000), 1);
      henv.WriteSys(SysReg::kICC_EOIR1_EL1, acked);
    });
    env.ParkRunning();
  };
  l0.RunVcpu(vm->vcpu(1), 1);
  vm->vcpu(0).main_sw.main = [&](GuestEnv& env) {
    env.WriteSys(SysReg::kICC_SGI1R_EL1, SgiR::Make(0b10, 5));
    EXPECT_EQ(env.Load(Va(0x1000)), 1u);
  };
  l0.RunVcpu(vm->vcpu(0), 0);
  EXPECT_TRUE(handled);
  // Receiver's clock advanced past the sender's send time.
  EXPECT_GT(machine.cpu(1).cycles(), 0u);
}

TEST(HostKvmTest, ParkedVcpuStaysLoaded) {
  Machine machine(BaseConfig(ArchFeatures::Armv83Nv()));
  HostKvm l0(&machine, {});
  Vm* vm = l0.CreateVm({.ram_size = 8ull << 20});
  vm->vcpu(0).main_sw.main = [](GuestEnv& env) { env.ParkRunning(); };
  l0.RunVcpu(vm->vcpu(0), 0);
  EXPECT_EQ(l0.LoadedVcpu(0), &vm->vcpu(0));
  EXPECT_EQ(vm->vcpu(0).loaded_on_pcpu, 0);
}

TEST(HostKvmTest, VirtualEl2RequiresNvHardware) {
  Machine machine(BaseConfig(ArchFeatures::Armv80()));
  HostKvm l0(&machine, {});
  EXPECT_DEATH(l0.CreateVm({.virtual_el2 = true}), "ARMv8.3-NV");
}

// --- nested virtualization ----------------------------------------------------------

// gtest prints a parameter without a PrintTo as its raw bytes, and ctest puts
// that text in the test name. The bytes between the flags and the pointer are
// a named, zeroed field rather than padding, so they carry no stack garbage
// into the name.
struct NestedParam {
  bool neve;
  bool vhe;
  char zero[6] = {};
  const char* name;
};

class NestedTest : public testing::TestWithParam<NestedParam> {
 protected:
  StackConfig Config() const {
    return GetParam().neve ? StackConfig::NestedNeve(GetParam().vhe)
                           : StackConfig::NestedV83(GetParam().vhe);
  }
};

TEST_P(NestedTest, NestedHypercallRoundTrips) {
  ArmStack stack(Config(), 1);
  int completed = 0;
  stack.Run([&](GuestEnv& env) {
    for (int i = 0; i < 3; ++i) {
      env.Hvc(kHvcTestCall);
      ++completed;
    }
  });
  EXPECT_EQ(completed, 3);
  // Exit multiplication: each nested hypercall costs many traps.
  EXPECT_GT(stack.TotalTrapsToHost(), 3u * 10);
}

TEST_P(NestedTest, GuestHypervisorBelievesItIsInEl2) {
  ArmStack stack(Config(), 1);
  // The GuestKvm constructor asserts CurrentEL == EL2 (the NV disguise);
  // reaching the workload proves it held.
  bool reached = false;
  stack.Run([&](GuestEnv& env) {
    (void)env;
    reached = true;
  });
  EXPECT_TRUE(reached);
}

TEST_P(NestedTest, NestedGuestMemoryWorksViaShadowS2) {
  ArmStack stack(Config(), 1);
  stack.Run([&](GuestEnv& env) {
    env.Store(Va(0x3000), 0x1234);
    EXPECT_EQ(env.Load(Va(0x3000)), 0x1234u);
    env.Store(Va(0x4000), 0x5678);
    EXPECT_EQ(env.Load(Va(0x4000)), 0x5678u);
  });
}

TEST_P(NestedTest, ForwardedMmioIsEmulatedByGuestHypervisor) {
  ArmStack stack(Config(), 1);
  uint64_t value = 0;
  stack.Run([&](GuestEnv& env) { value = env.Load(Va(kBenchDeviceBase)); });
  // The TestDevice backend registered with the L1 hypervisor produced it.
  EXPECT_EQ(value & 0xFFFF'0000, 0xD0D0'0000u);
  EXPECT_EQ(stack.device().reads(), 1u);
}

TEST_P(NestedTest, NestedIpiReachesRemoteNestedVcpu) {
  ArmStack stack(Config(), 2);
  bool handled = false;
  stack.Run(
      [&](GuestEnv& env) {
        env.WriteSys(SysReg::kICC_SGI1R_EL1, SgiR::Make(0b10, 5));
        EXPECT_EQ(env.Load(Va(0x1000)), 1u);
      },
      [&](GuestEnv& env) {
        env.SetIrqHandler([&](GuestEnv& henv, uint32_t) {
          uint64_t intid = henv.ReadSys(SysReg::kICC_IAR1_EL1);
          handled = true;
          henv.Store(Va(0x1000), 1);
          henv.WriteSys(SysReg::kICC_EOIR1_EL1, intid);
        });
        env.ParkRunning();
      });
  EXPECT_TRUE(handled);
}

TEST_P(NestedTest, TrapCountsShowExitMultiplication) {
  ArmStack stack(Config(), 1);
  uint64_t before = 0, after = 0;
  stack.Run([&](GuestEnv& env) {
    env.Hvc(kHvcTestCall);  // warm
    before = stack.TotalTrapsToHost();
    env.Hvc(kHvcTestCall);
    after = stack.TotalTrapsToHost();
  });
  uint64_t traps = after - before;
  if (GetParam().neve) {
    EXPECT_GE(traps, 10u);
    EXPECT_LE(traps, 25u);
  } else if (GetParam().vhe) {
    EXPECT_GE(traps, 60u);
    EXPECT_LE(traps, 95u);
  } else {
    EXPECT_GE(traps, 100u);
    EXPECT_LE(traps, 140u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, NestedTest,
    testing::Values(
        NestedParam{.neve = false, .vhe = false, .name = "V83NonVhe"},
        NestedParam{.neve = false, .vhe = true, .name = "V83Vhe"},
        NestedParam{.neve = true, .vhe = false, .name = "NeveNonVhe"},
        NestedParam{.neve = true, .vhe = true, .name = "NeveVhe"}),
    [](const testing::TestParamInfo<NestedParam>& info) {
      return info.param.name;
    });

// --- NEVE host support ----------------------------------------------------------------

TEST(NeveHostTest, GuestHypervisorStateLandsInDeferredPage) {
  Machine machine(BaseConfig(ArchFeatures::Armv84Neve()));
  HostKvm l0(&machine, {});
  Vm* vm = l0.CreateVm({.name = "l1",
                        .ram_size = 32ull << 20,
                        .virtual_el2 = true,
                        .expose_neve = true});
  Vcpu& vcpu = vm->vcpu(0);
  uint64_t traps_during_write = 0;
  vcpu.main_sw.main = [&](GuestEnv& env) {
    uint64_t t0 = env.cpu().trace().traps_to_el2();
    env.WriteSys(SysReg::kHSTR_EL2, 0x5A5A);
    traps_during_write = env.cpu().trace().traps_to_el2() - t0;
  };
  l0.RunVcpu(vcpu, 0);
  EXPECT_EQ(traps_during_write, 0u);
  EXPECT_EQ(machine.mem().Read64(Pa(vcpu.vncr_hw_page.value +
                                    DeferredPageOffset(RegId::kHSTR_EL2))),
            0x5A5Au);
}

TEST(NeveHostTest, TrapOnWriteUpdatesCachedCopy) {
  Machine machine(BaseConfig(ArchFeatures::Armv84Neve()));
  HostKvm l0(&machine, {});
  Vm* vm = l0.CreateVm({.name = "l1",
                        .ram_size = 32ull << 20,
                        .virtual_el2 = true,
                        .expose_neve = true});
  Vcpu& vcpu = vm->vcpu(0);
  uint64_t read_back = 0;
  vcpu.main_sw.main = [&](GuestEnv& env) {
    env.WriteSys(SysReg::kCNTVOFF_EL2, 0x123);  // traps; host caches
    read_back = env.ReadSys(SysReg::kCNTVOFF_EL2);  // served from the page
  };
  l0.RunVcpu(vcpu, 0);
  EXPECT_EQ(read_back, 0x123u);
}

TEST(NeveHostTest, VncrDisabledWhileNestedVmRuns) {
  // Section 6.1: "disables NEVE while running the nested VM so the VM can
  // access its EL1 registers".
  ArmStack stack(StackConfig::NestedNeve(false), 1);
  uint64_t vncr_in_nested_vm = 1;
  stack.Run([&](GuestEnv& env) {
    vncr_in_nested_vm = env.cpu().PeekReg(RegId::kVNCR_EL2);
  });
  EXPECT_EQ(vncr_in_nested_vm & 1, 0u);
}

TEST(NeveHostTest, HostKvmCanDisableNeveUse) {
  // use_neve=false on NEVE hardware behaves like ARMv8.3.
  Machine machine(BaseConfig(ArchFeatures::Armv84Neve()));
  HostKvm l0(&machine, {.vhe = false, .use_neve = false});
  Vm* vm = l0.CreateVm({.name = "l1",
                        .ram_size = 32ull << 20,
                        .virtual_el2 = true,
                        .expose_neve = true});
  Vcpu& vcpu = vm->vcpu(0);
  uint64_t traps = 0;
  vcpu.main_sw.main = [&](GuestEnv& env) {
    uint64_t t0 = env.cpu().trace().traps_to_el2();
    env.WriteSys(SysReg::kHSTR_EL2, 1);
    traps = env.cpu().trace().traps_to_el2() - t0;
  };
  l0.RunVcpu(vcpu, 0);
  EXPECT_EQ(traps, 1u);
}

// --- the ARMv8.0 crash scenario end to end ---------------------------------------------

TEST(V80CrashTest, GuestHypervisorWithoutNvDies) {
  // Section 2: running an unmodified hypervisor at EL1 on pre-v8.3 hardware
  // crashes on its first EL2 register access. The crash is the guest's: the
  // VM dies, the host keeps running.
  Machine machine(BaseConfig(ArchFeatures::Armv80()));
  HostKvm l0(&machine, {});
  Vm* vm = l0.CreateVm({.ram_size = 8ull << 20});
  vm->vcpu(0).main_sw.main = [](GuestEnv& env) {
    env.WriteSys(SysReg::kVBAR_EL2, 0x800);
  };
  Status s = l0.RunVcpu(vm->vcpu(0), 0);
  EXPECT_FALSE(s.ok());
  EXPECT_THAT(s.message(), testing::HasSubstr("undefined_sysreg"));
  EXPECT_TRUE(vm->dead());
}

// --- vcpu mode bookkeeping ----------------------------------------------------------

TEST(VcpuModeTest, NamesAreStable) {
  EXPECT_STREQ(VcpuModeName(VcpuMode::kGuest), "guest");
  EXPECT_STREQ(VcpuModeName(VcpuMode::kVel2), "vEL2");
  EXPECT_STREQ(VcpuModeName(VcpuMode::kVel1Kernel), "vEL1-kernel");
  EXPECT_STREQ(VcpuModeName(VcpuMode::kVel1Nested), "vEL1-nested");
}

TEST(VcpuModeTest, HypVcpusStartInVel2) {
  Machine machine(BaseConfig(ArchFeatures::Armv83Nv()));
  HostKvm l0(&machine, {});
  Vm* plain = l0.CreateVm({.ram_size = 8ull << 20});
  Vm* hyp = l0.CreateVm(
      {.ram_size = 32ull << 20, .virtual_el2 = true});
  EXPECT_EQ(plain->vcpu(0).mode, VcpuMode::kGuest);
  EXPECT_EQ(hyp->vcpu(0).mode, VcpuMode::kVel2);
  // Shadow Stage-2 tables materialize lazily, keyed by virtual VTTBR.
  EXPECT_TRUE(hyp->vcpu(0).shadows.empty());
  EXPECT_TRUE(plain->vcpu(0).shadows.empty());
}

TEST(VcpuModeTest, NestedRunLeavesVcpuInNestedMode) {
  ArmStack stack(StackConfig::NestedV83(false), 1);
  stack.Run([&](GuestEnv& env) {
    EXPECT_EQ(env.vcpu().mode, VcpuMode::kVel1Nested);
    env.Hvc(kHvcTestCall);
    EXPECT_EQ(env.vcpu().mode, VcpuMode::kVel1Nested)
        << "mode must return to nested after the forwarded exit";
  });
}

// --- device interrupts through the full stack ---------------------------------------

TEST(DeviceIrqTest, PlainGuestReceivesDeviceInterrupt) {
  Machine machine(BaseConfig(ArchFeatures::Armv83Nv()));
  HostKvm l0(&machine, {});
  Vm* vm = l0.CreateVm({.ram_size = 8ull << 20});
  uint32_t seen = 0;
  vm->vcpu(0).main_sw.main = [&](GuestEnv& env) {
    env.SetIrqHandler([&](GuestEnv& henv, uint32_t intid) {
      seen = intid;
      uint64_t acked = henv.ReadSys(SysReg::kICC_IAR1_EL1);
      henv.WriteSys(SysReg::kICC_EOIR1_EL1, acked);
    });
    env.vcpu().pending_virq.push_back(48);
    env.cpu().TakeIrq(48);
  };
  l0.RunVcpu(vm->vcpu(0), 0);
  EXPECT_EQ(seen, 48u);
}

TEST(DeviceIrqTest, NestedGuestReceivesDeviceInterruptViaL1) {
  ArmStack stack(StackConfig::NestedNeve(false), 1);
  uint32_t seen = 0;
  stack.Run([&](GuestEnv& env) {
    env.SetIrqHandler([&](GuestEnv& henv, uint32_t intid) {
      seen = intid;
      uint64_t acked = henv.ReadSys(SysReg::kICC_IAR1_EL1);
      henv.WriteSys(SysReg::kICC_EOIR1_EL1, acked);
    });
    env.vcpu().pending_virq.push_back(kBenchDeviceSpi);
    env.cpu().TakeIrq(kBenchDeviceSpi);
  });
  EXPECT_EQ(seen, kBenchDeviceSpi);
}


// --- GICv2 memory-mapped hypervisor interface (section 4 / section 7) --------

TEST(Gicv2MmioTest, GuestHypervisorRunsWithMmioGich) {
  StackConfig cfg = StackConfig::NestedV83(false);
  cfg.gicv2_mmio = true;
  ArmStack stack(cfg, 1);
  int done = 0;
  stack.Run([&](GuestEnv& env) {
    env.Hvc(kHvcTestCall);
    ++done;
  });
  EXPECT_EQ(done, 1);
}

TEST(Gicv2MmioTest, NeveCannotDeferTheMmioInterface) {
  // Table 5's cached copies only exist for the GICv3 system-register
  // interface; the memory-mapped GICv2 interface traps under NEVE too, so a
  // NEVE+GICv2 stack takes more traps per hypercall than NEVE+GICv3.
  auto traps_for = [](bool gicv2) {
    StackConfig cfg = StackConfig::NestedNeve(false);
    cfg.gicv2_mmio = gicv2;
    ArmStack stack(cfg, 1);
    uint64_t before = 0, after = 0;
    stack.Run([&](GuestEnv& env) {
      env.Hvc(kHvcTestCall);  // warm
      before = stack.TotalTrapsToHost();
      env.Hvc(kHvcTestCall);
      after = stack.TotalTrapsToHost();
    });
    return after - before;
  };
  uint64_t v3 = traps_for(false);
  uint64_t v2 = traps_for(true);
  EXPECT_GT(v2, v3);
  // The GICv3 save path has 2 trap-free cached reads + 3 trapped writes; the
  // MMIO path traps on all of them (reads included).
  EXPECT_GE(v2 - v3, 3u);
}

TEST(Gicv2MmioTest, GichStateLandsInVirtualIchRegisters) {
  // MMIO writes to the GICH block are emulated against the same virtual ICH
  // state as system-register accesses.
  Machine machine(BaseConfig(ArchFeatures::Armv83Nv()));
  HostKvm l0(&machine, {});
  Vm* vm = l0.CreateVm(
      {.name = "l1", .ram_size = 32ull << 20, .virtual_el2 = true});
  Vcpu& vcpu = vm->vcpu(0);
  uint64_t readback = 0;
  vcpu.main_sw.main = [&](GuestEnv& env) {
    Va vmcr(kGichMmioBase + DeferredPageOffset(RegId::kICH_VMCR_EL2));
    env.Store(vmcr, 0xAB);
    readback = env.Load(vmcr);
  };
  l0.RunVcpu(vcpu, 0);
  EXPECT_EQ(readback, 0xABu);
  EXPECT_EQ(vcpu.vreg(RegId::kICH_VMCR_EL2), 0xABu);
}

}  // namespace
}  // namespace neve
