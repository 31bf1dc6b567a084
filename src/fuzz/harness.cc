#include "src/fuzz/harness.h"

#include <cstdio>
#include <map>
#include <string_view>
#include <utility>

#include "src/arch/hcr.h"
#include "src/base/digest.h"
#include "src/base/parallel.h"
#include "src/cpu/trap_rules.h"
#include "src/gic/gic.h"
#include "src/obs/coverage.h"
#include "src/sim/batch/batch.h"
#include "src/snap/snap_stack.h"
#include "src/snap/snapshot.h"
#include "src/workload/stacks.h"

namespace neve::fuzz {
namespace {

using ResKind = AccessResolution::Kind;

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%llx", static_cast<unsigned long long>(v));
  return buf;
}

const char* KindName(ResKind k) {
  switch (k) {
    case ResKind::kRegister:
      return "register";
    case ResKind::kGicCpuIf:
      return "gic-cpuif";
    case ResKind::kMemory:
      return "deferred-page";
    case ResKind::kTrapEl2:
      return "trap";
    case ResKind::kUndefined:
      return "undefined";
  }
  return "?";
}

// Registers whose read-back the host legitimately rewrites between guest
// instructions: exception frames (virtual exception delivery), stack
// pointers (mode stashing), GIC and timer state (vGIC/timer machinery).
bool GoldenTracked(RegId r) {
  if (IsIchRegister(r)) {
    return false;
  }
  std::string_view name = RegName(r);
  if (name.starts_with("CNT") || name.starts_with("ICC") ||
      name.starts_with("SP_")) {
    return false;
  }
  switch (r) {
    case RegId::kESR_EL1:
    case RegId::kESR_EL2:
    case RegId::kFAR_EL1:
    case RegId::kFAR_EL2:
    case RegId::kELR_EL1:
    case RegId::kELR_EL2:
    case RegId::kSPSR_EL1:
    case RegId::kSPSR_EL2:
    case RegId::kHPFAR_EL2:
    case RegId::kVNCR_EL2:
      return false;
    default:
      return true;
  }
}

// Read values excluded from the cross-architecture digest: live counters and
// timer status bits advance with the cycle clock (which the two
// architectures legitimately disagree on), and GIC CPU-interface reads
// reflect delivery timing. Everything else a guest reads must match.
bool ArchComparableRead(SysReg enc, const AccessResolution& res) {
  if (res.kind == ResKind::kGicCpuIf) {
    return false;
  }
  RegId r = SysRegStorage(enc);
  std::string_view name = RegName(r);
  if (name.starts_with("ICC")) {
    return false;
  }
  switch (r) {
    case RegId::kCNTVCT_EL0:
    case RegId::kCNTPCT_EL0:
    case RegId::kCNTV_CTL_EL0:
    case RegId::kCNTP_CTL_EL0:
    case RegId::kCNTHV_CTL_EL2:
    case RegId::kCNTHP_CTL_EL2:
      return false;
    default:
      return true;
  }
}

// Virtual-EL2 interrupt sink for the mode-A SMP receiver: a vel2 vCPU takes
// cross-vCPU deliveries through its (virtual) EL2 vector, so a receiver with
// only an EL1 IRQ handler would die with no_vel2_vector on the first fan-out
// SGI. Acks and EOIs whatever arrived; the count feeds both digests.
class Vel2IrqSink : public Vel2Handler {
 public:
  explicit Vel2IrqSink(uint64_t* count) : count_(count) {}

  void OnVirtualExit(GuestEnv& env, const Syndrome& s) override {
    if (s.ec != Ec::kIrq) {
      return;
    }
    ++*count_;
    uint64_t iar = env.ReadSys(DirectEncodingOf(RegId::kICC_IAR1_EL1));
    if ((iar & 0xFFFFFFu) != 1023) {
      env.WriteSys(DirectEncodingOf(RegId::kICC_EOIR1_EL1), iar);
    }
  }

 private:
  uint64_t* count_;
};

class Executor {
 public:
  Executor(const Program& p, const VariantSpec& v, RunResult* r)
      : p_(p), v_(v), r_(r), check_(!v.fault.enabled) {
    // Static FuzzOp -> batch-IR translation: op kinds with executor-side
    // semantics (mode-dependent skips, digest side channels, SGI fan-out)
    // become kOpaque, which the engine treats as block enders it never
    // interprets; the rest map 1:1 so TryRunBlock can batch trap-free runs.
    bprog_.ops.reserve(p.ops.size());
    for (const FuzzOp& op : p.ops) {
      bprog_.ops.push_back(TranslateOp(op));
    }
    bprog_.Finalize();
  }

  void Run() {
    if (p_.cfg.nested) {
      RunModeB();
    } else {
      RunModeA();
    }
  }

 private:
  void Prepare(Machine& machine) {
    machine.obs().set_enabled(true);
    for (int i = 0; i < machine.num_cpus(); ++i) {
      machine.cpu(i).resolution_cache().set_enabled(v_.cache_enabled);
    }
    // Both batch-on and batch-off variants route RunOps through the engine
    // (a disabled engine never forms blocks), so the two paths share every
    // line of mixing code and differ only in this switch.
    machine.batch_engine().set_enabled(v_.batch);
    engine_ = &machine.batch_engine();
  }

  static batch::Op TranslateOp(const FuzzOp& op) {
    switch (op.kind) {
      case OpKind::kSysRead:
        return {.kind = batch::OpKind::kSysRead, .enc = op.enc};
      case OpKind::kSysWrite:
        return {.kind = batch::OpKind::kSysWrite,
                .enc = op.enc,
                .value = op.value};
      case OpKind::kCurrentEl:
        return {.kind = batch::OpKind::kCurrentEl};
      case OpKind::kWfi:
        return {.kind = batch::OpKind::kWfi};
      case OpKind::kBarrier:
        return {.kind = batch::OpKind::kBarrier};
      case OpKind::kTlbi:
        return {.kind = batch::OpKind::kTlbi};
      case OpKind::kCompute:
        return {.kind = batch::OpKind::kCompute, .value = op.value};
      default:
        return {.kind = batch::OpKind::kOpaque};
    }
  }

  // Mode A: the fuzzed program IS the guest hypervisor, running in virtual
  // EL2 directly under the host -- the tightest loop around the NV/NEVE
  // emulation machinery.
  void RunModeA() {
    MachineConfig mc;
    mc.num_cpus = p_.cfg.smp ? 2 : 1;
    mc.ram_size = 64ull << 20;
    mc.features =
        v_.neve ? ArchFeatures::Armv84Neve() : ArchFeatures::Armv83Nv();
    mc.fault = v_.fault;
    Machine machine(mc);
    Prepare(machine);
    HostKvm l0(&machine, {.vhe = false, .use_neve = v_.neve});
    Vm* vm = l0.CreateVm({.name = "fuzz-l1",
                          .num_vcpus = p_.cfg.smp ? 2 : 1,
                          .ram_size = 32ull << 20,
                          .virtual_el2 = true,
                          .expose_neve = v_.neve,
                          .guest_vhe = p_.cfg.guest_vhe});
    Vel2IrqSink sink(&r_->receiver_irqs);
    if (p_.cfg.smp) {
      // Park a receiver on vCPU 1 first; the kSgi op fans out to it, which
      // exercises the cross-vCPU injection path (kick SGI on the raiser's
      // CPU, cooperative delivery on the receiver's).
      vm->vcpu(1).main_sw.main = [this, &sink](GuestEnv& env) {
        env.SetVel2Handler(&sink);
        env.SetIrqHandler([this](GuestEnv& henv, uint32_t) {
          ++r_->receiver_irqs;
          uint64_t iar = henv.ReadSys(DirectEncodingOf(RegId::kICC_IAR1_EL1));
          if ((iar & 0xFFFFFFu) != 1023) {
            henv.WriteSys(DirectEncodingOf(RegId::kICC_EOIR1_EL1), iar);
          }
        });
        env.ParkRunning();
      };
      Status rs = l0.RunVcpu(vm->vcpu(1), /*pcpu=*/1);
      if (!rs.ok()) {
        r_->status = rs;
        Finish(machine, machine.cpu(0), vm->vcpu(0));
        return;
      }
    }
    Vcpu& vcpu = vm->vcpu(0);
    vcpu.main_sw.main = [this](GuestEnv& env) {
      env.SetIrqHandler(
          [this](GuestEnv& e, uint32_t intid) { OnIrq(e, intid); });
      // The nested image is memory-free: with no guest hypervisor building
      // Stage-2 tables for it, any L2 memory access would die in the shadow
      // walk. Its hvc exercises the forward-to-virtual-EL2 path.
      env.SetNestedProgram([this](GuestEnv& e) {
        ++r_->nested_entries;
        e.Compute(64);
        e.Hvc(kHvcTestCall);
      });
      RunOps(env);
    };
    r_->status = l0.RunVcpu(vcpu, 0);
    Finish(machine, machine.cpu(0), vcpu);
  }

  // Mode B: the fuzzed program runs at L2 under a real GuestKvm guest
  // hypervisor -- every trap multiplies through forwarding, shadow Stage-2
  // and the guest hypervisor's own (trappable) emulation work.
  void RunModeB() {
    StackConfig sc = v_.neve ? StackConfig::NestedNeve(p_.cfg.guest_vhe)
                             : StackConfig::NestedV83(p_.cfg.guest_vhe);
    sc.fault = v_.fault;
    if (v_.snap_restore && p_.cfg.snap_restore) {
      RunModeBSnap(sc);
      return;
    }
    ArmStack stack(sc, /*num_cpus=*/p_.cfg.smp ? 2 : 1);
    Prepare(stack.machine());
    GuestMain receiver = nullptr;
    if (p_.cfg.smp) {
      // Parked L2 receiver (stack.Run boots the guest hypervisor on vCPU 1
      // for it): the kSgi fan-out multiplies through the guest hypervisor's
      // trapped injection path, mode B's whole point.
      receiver = [this](GuestEnv& env) {
        env.SetIrqHandler([this](GuestEnv& henv, uint32_t) {
          ++r_->receiver_irqs;
          uint64_t iar = henv.ReadSys(DirectEncodingOf(RegId::kICC_IAR1_EL1));
          if ((iar & 0xFFFFFFu) != 1023) {
            henv.WriteSys(DirectEncodingOf(RegId::kICC_EOIR1_EL1), iar);
          }
        });
        env.ParkRunning();
      };
    }
    r_->status = stack.Run(
        [this](GuestEnv& env) {
          env.SetIrqHandler(
              [this](GuestEnv& e, uint32_t intid) { OnIrq(e, intid); });
          RunOps(env);
        },
        std::move(receiver));
    Finish(stack.machine(), stack.machine().cpu(0), stack.MeasuredVcpu());
  }

  // The split variant of mode B: run the first `split` ops on a source
  // stack, capture a snapshot at the op boundary, boot a fresh identical
  // stack, apply the snapshot at the structurally identical point (workload
  // entry, after the deterministic boot) and run the remaining ops there.
  // The digest mixers carry across the two stacks untouched and nothing
  // extra is mixed, so the oracle can demand byte-identity with the
  // uninterrupted run: a checkpoint/restore cycle must be invisible.
  void RunModeBSnap(const StackConfig& sc) {
    const size_t n = p_.ops.size();
    const size_t split = n == 0 ? 0 : p_.cfg.snap_at % (n + 1);
    snap::Image img;
    Status cap_status;
    bool captured = false;
    {
      ArmStack src(sc, /*num_cpus=*/1);
      Prepare(src.machine());
      r_->status = src.Run([&](GuestEnv& env) {
        env.SetIrqHandler(
            [this](GuestEnv& e, uint32_t intid) { OnIrq(e, intid); });
        RunOps(env, 0, split);
        cap_status = snap::Serializer::Capture(snap::TargetsOf(src), &img);
        captured = cap_status.ok();
      });
      if (!captured) {
        // The guest died before reaching the checkpoint (a confined fault
        // unwinds past the capture call) or capture itself failed; the
        // source run is the whole run, same as the uninterrupted variant.
        if (r_->status.ok() && !cap_status.ok()) {
          r_->status = cap_status;
        }
        Finish(src.machine(), src.machine().cpu(0), src.MeasuredVcpu());
        return;
      }
    }
    ArmStack dst(sc, /*num_cpus=*/1);
    Prepare(dst.machine());
    Status apply_status;
    r_->status = dst.Run([&](GuestEnv& env) {
      env.SetIrqHandler(
          [this](GuestEnv& e, uint32_t intid) { OnIrq(e, intid); });
      apply_status = snap::Serializer::Apply(snap::TargetsOf(dst), img);
      if (!apply_status.ok()) {
        return;
      }
      RunOps(env, split, n);
    });
    if (r_->status.ok() && !apply_status.ok()) {
      r_->status = apply_status;
    }
    Finish(dst.machine(), dst.machine().cpu(0), dst.MeasuredVcpu());
  }

  void RunOps(GuestEnv& env) { RunOps(env, 0, p_.ops.size()); }

  void RunOps(GuestEnv& env, size_t begin, size_t end) {
    for (size_t i = begin; i < end;) {
      batch::BlockRecord rec;
      size_t consumed =
          engine_ ? engine_->TryRunBlock(env.cpu(), bprog_, i, end, &rec) : 0;
      if (consumed == 0) {
        op_index_ = static_cast<int>(r_->ops_executed);
        ExecOp(env, p_.ops[i]);
        ++r_->ops_executed;
        ++i;
        continue;
      }
      // The engine executed ops [i, i+consumed) as one batched step; the
      // digest mixing the per-op path would have done is replayed here from
      // the block record -- byte-identically, because a batched op by
      // construction takes zero traps and leaves the access context alone.
      // The record's values are compact (producing ops only, in program
      // order), so a cursor tracks which result belongs to which op.
      size_t vi = 0;
      for (size_t j = 0; j < consumed; ++j) {
        op_index_ = static_cast<int>(r_->ops_executed);
        uint64_t value = batch::ProducesValue(bprog_.ops[i + j].kind)
                             ? rec.values[vi++]
                             : 0;
        MixBatchedOp(env, p_.ops[i + j], value);
        ++r_->ops_executed;
      }
      i += consumed;
    }
  }

  // Digest/oracle bookkeeping for one op the batch engine already executed.
  // Mirrors ExecOp line for line with the execution elided and the trap
  // delta pinned to zero (blocks only form over trap-free resolutions).
  void MixBatchedOp(GuestEnv& env, const FuzzOp& op, uint64_t value) {
    switch (op.kind) {
      case OpKind::kSysRead:
        MixBatchedSys(env, op.enc, /*is_write=*/false, 0, value);
        break;
      case OpKind::kSysWrite:
        MixBatchedSys(env, op.enc, /*is_write=*/true, op.value, 0);
        break;
      case OpKind::kCurrentEl:
        full_.Mix(DigestOf(0x2200, value));
        arch_.Mix(DigestOf(0x2201, value));
        break;
      case OpKind::kWfi:
      case OpKind::kTlbi:
        full_.Mix(DigestOf(0x4400, uint64_t{0}));  // NonSys, zero trap delta
        break;
      case OpKind::kBarrier:
      case OpKind::kCompute:
        break;  // ExecOp mixes nothing for these
      default:
        // Translated to kOpaque, which ends every block: the engine can
        // never hand one back as batched.
        NEVE_CHECK(false);
    }
  }

  // SysAccess's digest/oracle tail for a batched access. The resolution is
  // recomputed (stable across the block: no traps, no EL change, no
  // HCR/VNCR writes inside a block) and the mixing matches SysAccess with
  // dt == 0 exactly -- same keys, same golden-model updates.
  void MixBatchedSys(GuestEnv& env, SysReg enc, bool is_write, uint64_t wval,
                     uint64_t rval) {
    Cpu& cpu = env.cpu();
    VcpuMode mode_before = env.vcpu().mode;
    AccessResolution res =
        ResolveSysRegAccess(cpu.CurrentAccessContext(), enc, is_write);
    uint64_t value = is_write ? 0 : rval;

    uint64_t key = static_cast<uint64_t>(enc) * 2 + (is_write ? 1 : 0);
    full_.Mix(DigestOf(key, value, /*dt=*/uint64_t{0}));
    if (!is_write && ArchComparableRead(enc, res)) {
      arch_.Mix(DigestOf(key, value));
    }
    features_.push_back(
        DigestOf(key, (static_cast<uint64_t>(res.kind) << 8) |
                          (static_cast<uint64_t>(mode_before) << 4) |
                          (v_.neve ? 1 : 0)));

    if (check_ && res.kind == ResKind::kTrapEl2) {
      // Unreachable by construction (trapping resolutions end blocks); if it
      // ever fires the engine batched an access it had no business batching.
      Violation(enc, is_write, res, mode_before,
                "batched access resolves to a trap");
    }

    if (check_ && !p_.cfg.nested && mode_before == VcpuMode::kVel2 &&
        env.vcpu().mode == VcpuMode::kVel2 && res.kind != ResKind::kUndefined) {
      RegId storage = SysRegStorage(enc);
      if (GoldenTracked(storage)) {
        uint64_t gkey = GoldenKey(storage, res);
        if (is_write) {
          golden_[gkey] = wval;
        } else if (auto it = golden_.find(gkey);
                   it != golden_.end() && it->second != value) {
          r_->violations.push_back(
              "vel2-golden: op " + std::to_string(op_index_) + " " +
              SysRegName(enc) + " read " + Hex(value) + ", golden model has " +
              Hex(it->second) + " [" + (v_.neve ? "neve" : "v83") +
              ", batched]");
        }
      }
    }
  }

  void OnIrq(GuestEnv& env, uint32_t intid) {
    ++r_->irqs_taken;
    full_.Mix(DigestOf(0x1290, intid));
    arch_.Mix(DigestOf(0x1291, intid));
    uint64_t iar = env.ReadSys(DirectEncodingOf(RegId::kICC_IAR1_EL1));
    full_.Mix(iar);
    if ((iar & 0xFFFFFFu) != 1023) {
      env.WriteSys(DirectEncodingOf(RegId::kICC_EOIR1_EL1), iar);
    }
  }

  void ExecOp(GuestEnv& env, const FuzzOp& op) {
    const bool nested = p_.cfg.nested;
    switch (op.kind) {
      case OpKind::kSysRead:
        SysAccess(env, op.enc, /*is_write=*/false, 0);
        break;
      case OpKind::kSysWrite:
        SysAccess(env, op.enc, /*is_write=*/true, op.value);
        break;
      case OpKind::kHcrFlip: {
        if (nested) {
          // HCR_EL2 is UNDEFINED at L2's EL1; flip a benign VM register so
          // the op survives mode B instead of always ending the program.
          SysAccess(env, DirectEncodingOf(RegId::kCONTEXTIDR_EL1),
                    /*is_write=*/true, op.value);
          break;
        }
        SysReg hcr = DirectEncodingOf(RegId::kHCR_EL2);
        uint64_t cur = SysAccess(env, hcr, /*is_write=*/false, 0);
        SysAccess(env, hcr, /*is_write=*/true,
                  cur ^ (op.value & kHcrFlipMask));
        break;
      }
      case OpKind::kHvc:
        NonSys(env, [&] { env.Hvc(op.imm); });
        break;
      case OpKind::kEret:
        if (!nested && env.vcpu().mode == VcpuMode::kVel2) {
          NonSys(env, [&] { env.EretToGuest(); });
        } else {
          env.Compute(32);
        }
        break;
      case OpKind::kCurrentEl: {
        uint64_t el = static_cast<uint64_t>(env.CurrentEl());
        full_.Mix(DigestOf(0x2200, el));
        arch_.Mix(DigestOf(0x2201, el));  // the NV disguise must agree
        break;
      }
      case OpKind::kMemLoad:
      case OpKind::kMemStore: {
        if (!nested && env.vcpu().mode == VcpuMode::kVel1Nested) {
          // Mode A's nested context has no Stage-2 tables behind it; a
          // memory access would die in the shadow walk either way, but the
          // walk consumes the fault budget non-portably. Skip.
          env.Compute(16);
          break;
        }
        NonSys(env, [&] {
          if (op.kind == OpKind::kMemStore) {
            env.Store(Va(op.addr), op.value);
            arch_.Mix(DigestOf(0x3300, op.addr, op.value));
          } else {
            uint64_t v = env.Load(Va(op.addr));
            full_.Mix(v);
            arch_.Mix(DigestOf(0x3301, op.addr, v));
          }
        });
        break;
      }
      case OpKind::kDeviceLoad:
      case OpKind::kDeviceStore: {
        if (!nested) {
          env.Compute(16);  // mode A wires no MMIO device
          break;
        }
        uint64_t addr = kBenchDeviceBase + op.addr;
        NonSys(env, [&] {
          if (op.kind == OpKind::kDeviceStore) {
            env.Store(Va(addr), op.value);
          } else {
            uint64_t v = env.Load(Va(addr));
            full_.Mix(v);
            arch_.Mix(DigestOf(0x3302, op.addr, v));
          }
        });
        break;
      }
      case OpKind::kSgi:
        // Self-SGI -- plus the parked sibling in SMP mode (cross-vCPU
        // injection): delivery (vGIC emulation, list registers, the IRQ
        // handlers above) completes within the write's trap handling, but
        // may take more than one host trap even single-level.
        SysAccess(env, DirectEncodingOf(RegId::kICC_SGI1R_EL1),
                  /*is_write=*/true,
                  SgiR::Make(p_.cfg.smp ? 0b11 : 0b1, op.imm),
                  /*multi_trap_ok=*/true);
        break;
      case OpKind::kWfi:
        NonSys(env, [&] { env.Wfi(); });
        break;
      case OpKind::kBarrier:
        env.Barrier();
        break;
      case OpKind::kTlbi:
        NonSys(env, [&] { env.TlbiAll(); });
        break;
      case OpKind::kCompute:
        env.Compute(static_cast<uint32_t>(op.value));
        break;
    }
  }

  // Non-sysreg op: record the trap delta in the full digest (cache pairs
  // must agree on it) without predicting it.
  template <typename F>
  void NonSys(GuestEnv& env, F&& f) {
    uint64_t t0 = env.cpu().trace().traps_to_el2();
    f();
    full_.Mix(DigestOf(0x4400, env.cpu().trace().traps_to_el2() - t0));
  }

  uint64_t SysAccess(GuestEnv& env, SysReg enc, bool is_write, uint64_t wval,
                     bool multi_trap_ok = false) {
    Cpu& cpu = env.cpu();
    VcpuMode mode_before = env.vcpu().mode;
    AccessResolution res =
        ResolveSysRegAccess(cpu.CurrentAccessContext(), enc, is_write);
    uint64_t t0 = cpu.trace().traps_to_el2();
    // An UNDEFINED access raises a confined guest fault here: everything
    // below is skipped and the run ends -- at the same op in both stacks of
    // a pair, which the status/ops_executed comparisons then verify.
    uint64_t value = 0;
    if (is_write) {
      env.WriteSys(enc, wval);
    } else {
      value = env.ReadSys(enc);
    }
    uint64_t dt = cpu.trace().traps_to_el2() - t0;

    uint64_t key = static_cast<uint64_t>(enc) * 2 + (is_write ? 1 : 0);
    full_.Mix(DigestOf(key, value, dt));
    if (!is_write && ArchComparableRead(enc, res)) {
      arch_.Mix(DigestOf(key, value));
    }
    features_.push_back(
        DigestOf(key, (static_cast<uint64_t>(res.kind) << 8) |
                          (static_cast<uint64_t>(mode_before) << 4) |
                          (v_.neve ? 1 : 0)));

    if (check_) {
      bool predicted = res.kind == ResKind::kTrapEl2;
      if (!predicted && dt != 0) {
        Violation(enc, is_write, res, mode_before,
                  "predicted " + std::string(KindName(res.kind)) +
                      " (no trap), observed " + std::to_string(dt) +
                      " trap(s)");
      } else if (predicted && dt == 0) {
        Violation(enc, is_write, res, mode_before,
                  "predicted trap, observed none");
      } else if (predicted && !p_.cfg.nested && !multi_trap_ok && dt != 1) {
        Violation(enc, is_write, res, mode_before,
                  "predicted exactly one trap, observed " +
                      std::to_string(dt));
      }
    }

    if (check_ && !p_.cfg.nested && mode_before == VcpuMode::kVel2 &&
        env.vcpu().mode == VcpuMode::kVel2 && res.kind != ResKind::kUndefined) {
      RegId storage = SysRegStorage(enc);
      if (GoldenTracked(storage)) {
        // Key the shadow by the resolved *destination*, not the backing
        // RegId: at virtual EL2 with virtual E2H, FOO_EL12 (the VM's
        // register) and FOO_EL1 (the guest hypervisor's own register) share
        // a backing RegId but are distinct architectural registers -- one
        // lands in the trapped/deferred VM context, the other in the live
        // hardware register. Same-destination read-after-write must still
        // round-trip exactly.
        uint64_t key = GoldenKey(storage, res);
        if (is_write) {
          golden_[key] = wval;
        } else if (auto it = golden_.find(key);
                   it != golden_.end() && it->second != value) {
          r_->violations.push_back(
              "vel2-golden: op " + std::to_string(op_index_) + " " +
              SysRegName(enc) + " read " + Hex(value) + ", golden model has " +
              Hex(it->second) + " [" + (v_.neve ? "neve" : "v83") + "]");
        }
      }
    }
    return value;
  }

  static uint64_t GoldenKey(RegId storage, const AccessResolution& res) {
    switch (res.kind) {
      case ResKind::kRegister:  // live hardware register (incl. redirects)
        return static_cast<uint64_t>(res.target) * 4 + 0;
      case ResKind::kMemory:  // deferred-page slot
        return static_cast<uint64_t>(res.target) * 4 + 1;
      default:  // trapped: the host routes by backing register
        return static_cast<uint64_t>(storage) * 4 + 2;
    }
  }

  void Violation(SysReg enc, bool is_write, const AccessResolution& res,
                 VcpuMode mode, const std::string& what) {
    r_->violations.push_back(
        "trap-predict: op " + std::to_string(op_index_) + " " +
        (is_write ? "write " : "read ") + SysRegName(enc) + " at " +
        VcpuModeName(mode) + ": " + what + " [" + (v_.neve ? "neve" : "v83") +
        (p_.cfg.nested ? ", nested" : "") + "]");
    (void)res;
  }

  void Finish(Machine& machine, Cpu& cpu, Vcpu& vcpu) {
    r_->died = !r_->status.ok();
    r_->end_cycles = cpu.cycles();
    r_->traps = cpu.trace().traps_to_el2();
    r_->fault_log = machine.fault().LogText();

    Digest st;
    st.Mix(cpu.ArchStateDigest());
    st.Mix(vcpu.ContextDigest());
    full_.Mix(st.value());
    full_.Mix(r_->end_cycles);
    full_.Mix(r_->traps);
    full_.Mix(static_cast<uint64_t>(r_->status.code()));
    full_.Mix(r_->status.message());
    full_.Mix(r_->fault_log);

    full_.Mix(r_->receiver_irqs);
    arch_.Mix(r_->ops_executed);
    arch_.Mix(r_->irqs_taken);
    arch_.Mix(r_->receiver_irqs);
    arch_.Mix(r_->nested_entries);
    arch_.Mix(static_cast<uint64_t>(r_->status.code()));
    arch_.Mix(r_->died ? 1 : 0);

    r_->full_digest = full_.value();
    r_->arch_digest = arch_.value();

    std::vector<uint64_t> obs_features;
    CollectObsFeatures(machine.obs(), &obs_features);
    uint64_t tag =
        (v_.neve ? 1u : 0u) | (v_.fault.enabled ? 2u : 0u) |
        (p_.cfg.nested ? 4u : 0u) | (p_.cfg.smp ? 8u : 0u);
    for (uint64_t f : obs_features) {
      features_.push_back(DigestOf(f, tag));
    }
    features_.push_back(DigestOf(0x5500, tag,
                                 static_cast<uint64_t>(r_->status.code())));
    r_->features = std::move(features_);
  }

  const Program& p_;
  const VariantSpec& v_;
  RunResult* r_;
  bool check_;
  batch::Program bprog_;  // p_.ops translated to the engine's IR
  batch::BatchEngine* engine_ = nullptr;  // current Machine's; set in Prepare
  int op_index_ = 0;
  Digest full_;
  Digest arch_;
  std::vector<uint64_t> features_;
  std::map<uint64_t, uint64_t> golden_;
};

void AppendFeatures(const RunResult& r, CaseResult* out) {
  out->features.insert(out->features.end(), r.features.begin(),
                       r.features.end());
}

bool TakeViolations(const RunResult& r, CaseResult* out) {
  if (r.violations.empty()) {
    return false;
  }
  out->ok = false;
  out->failure = r.violations.front();
  return true;
}

// A byte-identity oracle over two runs of one architecture that must not
// differ at all: the resolution cache, the superblock engine and a
// checkpoint/restore split are simulator machinery, invisible to the guest
// -- ops, cycles, traps, outcome, fault log and both digests included.
struct IdentityOracle {
  const char* name;  // the failure prefix
  const char* a;     // the two sides, as the fault-log diff labels them
  const char* b;
};
constexpr IdentityOracle kCacheDiff{"cache-diff", "cache on", "cache off"};
constexpr IdentityOracle kBatchDiff{"batch-diff", "interpreted", "batched"};
constexpr IdentityOracle kSnapDiff{"snap-diff", "uninterrupted", "restored"};

bool CompareIdentical(const IdentityOracle& o, const RunResult& a,
                      const RunResult& b, const std::string& tag,
                      CaseResult* out) {
  auto fail = [&](const std::string& what) {
    out->ok = false;
    out->failure = std::string(o.name) + "[" + tag + "]: " + what;
    return true;
  };
  if (a.ops_executed != b.ops_executed) {
    return fail("ops " + std::to_string(a.ops_executed) + " vs " +
                std::to_string(b.ops_executed));
  }
  if (a.end_cycles != b.end_cycles) {
    return fail("cycles " + std::to_string(a.end_cycles) + " vs " +
                std::to_string(b.end_cycles));
  }
  if (a.traps != b.traps) {
    return fail("traps " + std::to_string(a.traps) + " vs " +
                std::to_string(b.traps));
  }
  if (!(a.status == b.status)) {
    return fail("status " + a.status.ToString() + " vs " +
                b.status.ToString());
  }
  if (a.fault_log != b.fault_log) {
    return fail("fault log diverged:\n--- " + std::string(o.a) + " ---\n" +
                a.fault_log + "--- " + o.b + " ---\n" + b.fault_log);
  }
  if (a.full_digest != b.full_digest) {
    return fail("state digest " + Hex(a.full_digest) + " vs " +
                Hex(b.full_digest));
  }
  if (a.arch_digest != b.arch_digest) {
    return fail("guest-visible state " + Hex(a.arch_digest) + " vs " +
                Hex(b.arch_digest));
  }
  return false;
}

bool CompareCrossArch(const RunResult& v83, const RunResult& neve,
                      CaseResult* out) {
  auto fail = [&](const std::string& what) {
    out->ok = false;
    out->failure = "arch-diff: " + what;
    return true;
  };
  if (v83.ops_executed != neve.ops_executed) {
    return fail("program length v83=" + std::to_string(v83.ops_executed) +
                " neve=" + std::to_string(neve.ops_executed));
  }
  if (v83.status.code() != neve.status.code()) {
    return fail("outcome v83=" + v83.status.ToString() +
                " neve=" + neve.status.ToString());
  }
  if (v83.irqs_taken != neve.irqs_taken) {
    return fail("irqs v83=" + std::to_string(v83.irqs_taken) +
                " neve=" + std::to_string(neve.irqs_taken));
  }
  if (v83.receiver_irqs != neve.receiver_irqs) {
    return fail("receiver irqs v83=" + std::to_string(v83.receiver_irqs) +
                " neve=" + std::to_string(neve.receiver_irqs));
  }
  if (v83.nested_entries != neve.nested_entries) {
    return fail("nested entries v83=" + std::to_string(v83.nested_entries) +
                " neve=" + std::to_string(neve.nested_entries));
  }
  if (v83.arch_digest != neve.arch_digest) {
    return fail("guest-visible state " + Hex(v83.arch_digest) + " vs " +
                Hex(neve.arch_digest));
  }
  return false;
}

// The stack variants `p` needs, in the order its oracles read them: the
// fault pair, or the four base variants, then the batch pair and the
// snapshot-split pair when the header arms them.
std::vector<VariantSpec> VariantsOf(const Program& p) {
  if (p.cfg.fault) {
    VariantSpec on{.neve = p.cfg.fault_neve,
                   .cache_enabled = true,
                   .fault = p.cfg.fault_config};
    VariantSpec off = on;
    off.cache_enabled = false;
    return {on, off};
  }
  std::vector<VariantSpec> specs = {
      {.neve = false},
      {.neve = false, .cache_enabled = false},
      {.neve = true},
      {.neve = true, .cache_enabled = false}};
  if (p.cfg.batch) {
    specs.push_back({.neve = false, .batch = true});
    specs.push_back({.neve = true, .batch = true});
  }
  if (p.cfg.snap_restore) {
    specs.push_back({.neve = false, .snap_restore = true});
    specs.push_back({.neve = true, .snap_restore = true});
  }
  return specs;
}

// Checks the oracles on the results of VariantsOf(p), in their fixed order,
// stopping at the first failure.
CaseResult Judge(const Program& p, const std::vector<RunResult>& runs) {
  CaseResult out;
  if (p.cfg.fault) {
    out.execs = 2;
    AppendFeatures(runs[0], &out);
    CompareIdentical(kCacheDiff, runs[0], runs[1],
                     p.cfg.fault_neve ? "neve,fault" : "v83,fault", &out);
    return out;
  }

  const RunResult& v83_on = runs[0];
  const RunResult& v83_off = runs[1];
  const RunResult& nv_on = runs[2];
  const RunResult& nv_off = runs[3];
  size_t next = 4;
  out.execs = 4;
  AppendFeatures(v83_on, &out);
  AppendFeatures(nv_on, &out);

  if (TakeViolations(v83_on, &out) || TakeViolations(nv_on, &out)) {
    return out;
  }
  if (CompareIdentical(kCacheDiff, v83_on, v83_off, "v83", &out) ||
      CompareIdentical(kCacheDiff, nv_on, nv_off, "neve", &out)) {
    return out;
  }
  if (CompareCrossArch(v83_on, nv_on, &out)) {
    return out;
  }

  if (p.cfg.batch) {
    const RunResult& v83_b = runs[next++];
    const RunResult& nv_b = runs[next++];
    out.execs += 2;
    if (TakeViolations(v83_b, &out) || TakeViolations(nv_b, &out)) {
      return out;
    }
    if (CompareIdentical(kBatchDiff, v83_on, v83_b, "v83", &out) ||
        CompareIdentical(kBatchDiff, nv_on, nv_b, "neve", &out)) {
      return out;
    }
  }

  if (p.cfg.snap_restore) {
    const RunResult& v83_snap = runs[next++];
    const RunResult& nv_snap = runs[next++];
    out.execs += 2;
    if (TakeViolations(v83_snap, &out) || TakeViolations(nv_snap, &out)) {
      return out;
    }
    if (CompareIdentical(kSnapDiff, v83_on, v83_snap, "v83", &out) ||
        CompareIdentical(kSnapDiff, nv_on, nv_snap, "neve", &out)) {
      return out;
    }
  }
  return out;
}

}  // namespace

RunResult RunProgramVariant(const Program& program, const VariantSpec& v) {
  RunResult r;
  Executor ex(program, v, &r);
  ex.Run();
  return r;
}

std::vector<CaseResult> RunCases(
    const std::vector<std::vector<uint8_t>>& inputs, unsigned threads) {
  struct Case {
    Program program;
    std::vector<VariantSpec> specs;
    std::vector<RunResult> runs;  // index-addressed like specs
  };
  std::vector<Case> cases;
  cases.reserve(inputs.size());
  std::vector<std::pair<size_t, size_t>> slots;  // (case, variant)
  for (const std::vector<uint8_t>& bytes : inputs) {
    Case& c = cases.emplace_back();
    c.program = DecodeProgram(bytes);
    c.specs = VariantsOf(c.program);
    c.runs.resize(c.specs.size());
    for (size_t v = 0; v < c.specs.size(); ++v) {
      slots.emplace_back(cases.size() - 1, v);
    }
  }
  ParallelFor(slots.size(), threads, [&](size_t k) {
    Case& c = cases[slots[k].first];
    c.runs[slots[k].second] =
        RunProgramVariant(c.program, c.specs[slots[k].second]);
  });
  std::vector<CaseResult> out;
  out.reserve(cases.size());
  for (const Case& c : cases) {
    out.push_back(Judge(c.program, c.runs));
  }
  return out;
}

CaseResult RunCase(const std::vector<uint8_t>& bytes, unsigned threads) {
  return std::move(RunCases({bytes}, threads).front());
}

}  // namespace neve::fuzz
