#include "src/snap/snap_stack.h"

#include <array>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "src/base/digest.h"
#include "src/base/rng.h"
#include "src/base/status.h"
#include "src/gic/gic.h"
#include "src/hyp/guest_kvm.h"
#include "src/sim/smp.h"

namespace neve {
namespace snap {
namespace {

constexpr uint32_t kSnapSgi = 5;

uint64_t RamDigest(PhysMem& mem) {
  Digest d;
  std::array<uint8_t, kPageSize> page;
  for (uint64_t idx : mem.ResidentPageIndices()) {
    d.Mix(idx);
    NEVE_CHECK(mem.ReadPage(idx, &page));
    for (size_t off = 0; off < page.size(); off += 8) {
      uint64_t word = 0;
      std::memcpy(&word, page.data() + off, 8);
      d.Mix(word);
    }
  }
  return d.value();
}

void MixVm(Digest& d, Vm& vm) {
  d.Mix(vm.generation());
  for (int i = 0; i < vm.num_vcpus(); ++i) {
    Vcpu& vc = vm.vcpu(i);
    d.Mix(vc.ContextDigest());
    d.Mix(static_cast<uint64_t>(vc.mode));
    d.Mix(vc.parked ? 1 : 0);
    d.Mix(static_cast<uint64_t>(vc.loaded_on_pcpu));
    d.Mix(vc.nested_hcr);
    d.Mix(vc.virqs_enqueued);
    d.Mix(vc.mmio_result);
    d.Mix(vc.exits);
    d.Mix(vc.vel2_deliveries);
    d.Mix(vc.pending_virq.size());
    for (uint32_t q : vc.pending_virq) {
      d.Mix(q);
    }
  }
}

}  // namespace

std::string ToString(const EndState& e) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "state=%016llx cycles=%016llx traps=%016llx attr=%016llx "
                "ram=%016llx vcpu=%016llx fault=%016llx",
                static_cast<unsigned long long>(e.state_digest),
                static_cast<unsigned long long>(e.cycles_digest),
                static_cast<unsigned long long>(e.trap_digest),
                static_cast<unsigned long long>(e.attr_digest),
                static_cast<unsigned long long>(e.ram_digest),
                static_cast<unsigned long long>(e.vcpu_digest),
                static_cast<unsigned long long>(e.fault_digest));
  return buf;
}

EndState CaptureEndState(ArmStack& stack) {
  Machine& m = stack.machine();
  EndState e;
  {
    Digest d;
    for (int i = 0; i < m.num_cpus(); ++i) {
      d.Mix(m.cpu(i).ArchStateDigest());
      d.Mix(static_cast<uint64_t>(m.cpu(i).current_el()));
    }
    e.state_digest = d.value();
  }
  {
    Digest d;
    for (int i = 0; i < m.num_cpus(); ++i) {
      d.Mix(m.cpu(i).cycles());
    }
    d.Mix(m.TotalCpuCycles());
    e.cycles_digest = d.value();
  }
  {
    Digest d;
    for (int i = 0; i < m.num_cpus(); ++i) {
      const CpuTrace& tr = m.cpu(i).trace();
      d.Mix(tr.traps_to_el2());
      for (size_t c = 0; c + 1 < kNumTraceClasses; ++c) {  // all but kOther
        d.Mix(tr.traps(static_cast<TraceClass>(c)));
      }
    }
    e.trap_digest = d.value();
  }
  {
    Digest d;
    for (const AttrBucket& b : m.attr().Snapshot()) {
      d.Mix(static_cast<uint64_t>(static_cast<int64_t>(b.vm)));
      d.Mix(static_cast<uint64_t>(static_cast<int64_t>(b.vcpu)));
      d.Mix(static_cast<uint64_t>(b.layer));
      d.Mix(static_cast<uint64_t>(b.cat));
      d.Mix(b.cycles);
    }
    e.attr_digest = d.value();
  }
  e.ram_digest = RamDigest(m.mem());
  {
    Digest d;
    MixVm(d, stack.vm());
    if (stack.nested_vm() != nullptr) {
      MixVm(d, *stack.nested_vm());
    }
    e.vcpu_digest = d.value();
  }
  {
    Digest d;
    d.Mix(m.fault().LogText());
    for (int p = 0; p < kNumFaultPoints; ++p) {
      d.Mix(m.fault().count(static_cast<FaultPoint>(p)));
    }
    e.fault_digest = d.value();
  }
  return e;
}

void SnapStep(GuestEnv& env, uint64_t seed, uint64_t step) {
  SnapStep(env, seed, step, /*store_span_pages=*/1);
}

void SnapStep(GuestEnv& env, uint64_t seed, uint64_t step,
              uint64_t store_span_pages) {
  Rng rng(DigestOf(seed, step));
  // Stores and loads stride across `store_span_pages` pages so harnesses
  // (the downtime bench) can dial the workload's dirty rate; the default
  // span of one page draws no extra random bits, keeping the single-page
  // workload's op stream unchanged.
  auto slot = [&]() -> uint64_t {
    uint64_t page =
        store_span_pages > 1 ? rng.NextBelow(store_span_pages) : 0;
    return 0x2000 + page * kPageSize + 8 * rng.NextBelow(256);
  };
  for (int op = 0; op < 3; ++op) {
    switch (rng.NextBelow(5)) {
      case 0:
        env.Compute(20 + static_cast<uint32_t>(rng.NextBelow(50)));
        break;
      case 1:
        env.Store(Va(slot()), rng.Next());
        break;
      case 2:
        (void)env.Load(Va(slot()));
        break;
      case 3:
        env.Hvc(kHvcTestCall);
        break;
      case 4:
        env.WriteSys(step % 2 == 0 ? SysReg::kTPIDR_EL1 : SysReg::kTPIDR_EL0,
                     rng.Next());
        break;
    }
  }
}

SnapTargets TargetsOf(ArmStack& stack) {
  return {.machine = &stack.machine(),
          .host = &stack.host(),
          .guest_hyp = stack.guest_hyp(),
          .device = &stack.device()};
}

SnapRunner::SnapRunner(const SnapSpec& spec)
    : spec_(spec), stack_(spec.cfg, spec.num_cpus) {}

Status SnapRunner::Run(const SnapHooks& hooks) {
  return spec_.num_cpus > 1 ? RunSmp(hooks) : RunSingle(hooks);
}

Status SnapRunner::RunSingle(const SnapHooks& hooks) {
  Status cap = Status::Ok();
  Status app = Status::Ok();
  Status run = stack_.Run([this, &hooks, &cap, &app](GuestEnv& env) {
    SnapTargets t = TargetsOf(stack_);
    uint64_t s0 = 0;
    if (hooks.resume_image != nullptr) {
      app = Serializer::Apply(t, *hooks.resume_image);
      if (!app.ok()) {
        return;
      }
      s0 = hooks.resume_step;
    }
    for (uint64_t s = s0; s < spec_.steps; ++s) {
      if (hooks.on_step && hooks.on_step(s, t)) {
        break;  // the migration committed; the source stops here
      }
      if (s == hooks.checkpoint_step && hooks.checkpoint_out != nullptr) {
        cap = Serializer::Capture(t, hooks.checkpoint_out);
        if (!cap.ok()) {
          return;
        }
      }
      SnapStep(env, spec_.seed, s, spec_.store_span_pages);
    }
  });
  if (!app.ok()) {
    return app;
  }
  if (!cap.ok()) {
    return cap;
  }
  return run;
}

// The SMP workload: two blocks ("phases") of all-to-all IPI rendezvous
// rounds with a checkpoint/restore window at the boundary. Per round every
// lane SGIs every sibling and parks until one IPI per sibling per completed
// round has arrived (monotonic counts, so overshoot is harmless). The
// boundary protocol keeps every variant's guest instruction stream
// identical:
//   - lane 0 finishes phase A, quiesces the engine (capturing or applying
//     under exclusive ownership while every sibling is parked), then sends
//     the GO SGI and runs phase B;
//   - siblings end phase A parked on a GO-inclusive count (phase-A total
//     + 1) that only lane 0's GO can satisfy, then run phase B with the +1
//     folded into every wait;
//   - a *resumed* run replaces phase A with a hello SGI to lane 0 (lane 0
//     parks until all hellos arrived, guaranteeing every sibling is booted
//     and parked on the GO predicate before the image is applied); the
//     apply then overwrites every guest-visible trace of the hellos.
Status SnapRunner::RunSmp(const SnapHooks& hooks) {
  NEVE_CHECK_MSG(!hooks.on_step,
                 "migration pulses require a single-vCPU workload");
  const int n = spec_.num_cpus;
  const uint64_t per_round = static_cast<uint64_t>(n - 1);
  const uint64_t rounds = spec_.steps;
  const bool resuming = hooks.resume_image != nullptr;
  Status cap = Status::Ok();
  Status app = Status::Ok();

  auto sgi_all = [n](GuestEnv& env, int lane) {
    const uint16_t siblings = static_cast<uint16_t>(
        ((1u << n) - 1u) & ~(1u << lane));
    env.WriteSys(SysReg::kICC_SGI1R_EL1, SgiR::Make(siblings, kSnapSgi));
  };
  auto phase_b = [this, per_round, rounds, sgi_all](GuestEnv& env, int lane) {
    Vcpu& me = stack_.RendezvousVcpu(lane);
    for (uint64_t r = 1; r <= rounds; ++r) {
      sgi_all(env, lane);
      const uint64_t want =
          (rounds + r) * per_round + (lane != 0 ? 1 : 0);  // +1: the GO SGI
      env.SmpWaitUntil([&me, want] { return me.virqs_enqueued >= want; });
    }
  };

  std::vector<GuestMain> bodies;
  for (int lane = 0; lane < n; ++lane) {
    if (lane == 0) {
      bodies.push_back([this, per_round, rounds, resuming, &hooks, &cap, &app,
                        sgi_all, phase_b](GuestEnv& env) {
        Vcpu& me = stack_.RendezvousVcpu(0);
        if (resuming) {
          // Wait for every sibling's hello: all lanes are then booted and
          // parked on the GO predicate, so the apply owns a fully
          // materialized, structurally identical stack.
          env.SmpWaitUntil(
              [&me, per_round] { return me.virqs_enqueued >= per_round; });
        } else {
          for (uint64_t r = 1; r <= rounds; ++r) {
            sgi_all(env, 0);
            const uint64_t want = r * per_round;
            env.SmpWaitUntil(
                [&me, want] { return me.virqs_enqueued >= want; });
          }
        }
        SmpEngine::Current()->Quiesce(0, [this, resuming, &hooks, &cap,
                                          &app] {
          if (resuming) {
            app = Serializer::Apply(TargetsOf(stack_), *hooks.resume_image);
          } else if (hooks.checkpoint_out != nullptr) {
            cap = Serializer::Capture(TargetsOf(stack_), hooks.checkpoint_out);
          }
        });
        if (!cap.ok() || !app.ok()) {
          return;
        }
        sgi_all(env, 0);  // GO: release the siblings into phase B
        phase_b(env, 0);
      });
    } else {
      bodies.push_back(
          [this, lane, per_round, rounds, resuming, sgi_all, phase_b](
              GuestEnv& env) {
            Vcpu& me = stack_.RendezvousVcpu(lane);
            if (resuming) {
              env.WriteSys(SysReg::kICC_SGI1R_EL1,
                           SgiR::Make(/*mask=*/1u, kSnapSgi));  // hello
            } else {
              for (uint64_t r = 1; r + 1 <= rounds; ++r) {
                sgi_all(env, lane);
                const uint64_t want = r * per_round;
                env.SmpWaitUntil(
                    [&me, want] { return me.virqs_enqueued >= want; });
              }
              sgi_all(env, lane);  // final phase-A round
            }
            // GO-inclusive park: phase-A total + the GO SGI. Unsatisfiable
            // until lane 0 releases the boundary.
            const uint64_t want = rounds * per_round + 1;
            env.SmpWaitUntil(
                [&me, want] { return me.virqs_enqueued >= want; });
            phase_b(env, lane);
          });
    }
  }

  std::vector<Status> statuses = stack_.RunSmp(std::move(bodies),
                                               spec_.threads);
  if (!app.ok()) {
    return app;
  }
  if (!cap.ok()) {
    return cap;
  }
  for (const Status& s : statuses) {
    if (!s.ok()) {
      return s;
    }
  }
  return Status::Ok();
}

}  // namespace snap
}  // namespace neve
