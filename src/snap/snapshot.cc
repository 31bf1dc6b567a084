// Snapshot capture/encode/decode/apply. See snapshot.h for the protocol.
//
// Every private-field access the snapshot subsystem performs lives in this
// translation unit, under the Serializer methods (or lambdas inside them,
// which inherit their access) that the `friend class snap::Serializer`
// declarations across the tree license. The anonymous-namespace helpers only
// touch the all-public Image structs and wire format.

#include "src/snap/snapshot.h"

#include <algorithm>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/fault/fault.h"
#include "src/hyp/devices.h"
#include "src/hyp/guest_kvm.h"
#include "src/hyp/host_kvm.h"
#include "src/hyp/virtio.h"
#include "src/hyp/vm.h"
#include "src/mem/phys_mem.h"
#include "src/mem/shadow_s2.h"
#include "src/obs/attr.h"
#include "src/sim/machine.h"
#include "src/snap/wire.h"

namespace neve {
namespace snap {
namespace {

Status Mismatch(const std::string& what) {
  return Status::FailedPrecondition("snapshot: structural mismatch: " + what);
}

// --- the field lists --------------------------------------------------------
// One Visit per image type names every encoded field once, in wire order. Ar
// is Writer (Encode) or Reader (Decode); see wire.h. The second argument of
// each Vec is the smallest encoding of one element, Decode's bound on the
// count.

template <class Ar>
void U64s(Ar& ar, std::vector<uint64_t>& v) {
  ar.Vec(v, 8, [&ar](uint64_t& x) { ar.U64(x); });
}

template <class Ar>
void Visit(Ar& ar, El1Context& c) {
  for (uint64_t& v : c.regs) {
    ar.U64(v);
  }
}

template <class Ar>
void Visit(Ar& ar, ExtEl1Context& c) {
  for (uint64_t& v : c.regs) {
    ar.U64(v);
  }
}

template <class Ar>
void Visit(Ar& ar, PmuDebugContext& p) {
  ar.U64(p.mdscr);
  ar.U64(p.pmuserenr);
}

template <class Ar>
void Visit(Ar& ar, TimerContext& t) {
  ar.U64(t.cntv_ctl);
  ar.U64(t.cntv_cval);
}

template <class Ar>
void Visit(Ar& ar, MetaImage& m) {
  ar.I32(m.num_cpus);
  ar.U64(m.ram_size);
  ar.U64(m.host_pool_size);
  ar.U64(m.cycles_per_timer_tick);
  ar.U64(m.ipi_wire_latency);
  ar.U8(m.features.vhe);
  ar.U8(m.features.nv);
  ar.U8(m.features.neve);
  ar.U8(m.features.neve_deferred);
  ar.U8(m.features.neve_redirect);
  ar.U8(m.features.neve_cached);
  ar.U8(m.host.vhe);
  ar.U8(m.host.use_neve);
}

template <class Ar>
void Visit(Ar& ar, TrapRecord& r) {
  ar.U64(r.sequence);
  Syndrome& s = r.syndrome;
  ar.U8(s.ec);
  ar.U32(s.imm16);
  ar.U32(s.sysreg);
  ar.U8(s.is_write);
  ar.U64(s.write_value);
  ar.U64(s.far);
  ar.U64(s.hpfar);
  ar.U8(s.abort_is_write);
  ar.U8(s.access_size);
  ar.U32(s.intid);
  ar.U64(r.cycles_at_entry);
}

template <class Ar>
void Visit(Ar& ar, TlbEntryImage& e) {
  ar.U64(e.va_page);
  ar.U64(e.s1_root);
  ar.U64(e.s2_root);
  ar.U64(e.pa_page);
  ar.U8(e.writable);
}

template <class Ar>
void Visit(Ar& ar, CpuImage& c) {
  ar.U8(c.el);
  ar.I32(c.trap_depth);
  ar.U64(c.cycles);
  U64s(ar, c.regs);
  ar.U64(c.watchdog_deadline);
  ar.U8(c.trap_tlbi);
  ar.U8(c.record_details);
  ar.U64(c.traps_to_el2);
  ar.U64(c.hvc_traps);
  ar.U64(c.sysreg_traps);
  ar.U64(c.eret_traps);
  ar.U64(c.abort_traps);
  ar.U64(c.irq_exits);
  ar.Vec(c.records, 8 + 42 + 8, [&ar](TrapRecord& r) { Visit(ar, r); });
  U64s(ar, c.cycles_by_class);
  ar.Vec(c.tlb, 4 * 8 + 1, [&ar](TlbEntryImage& e) { Visit(ar, e); });
}

template <class Ar>
void Visit(Ar& ar, MemImage& m) {
  ar.Vec(m.pages, 8 + kPageSize, [&ar](PageImage& p) {
    ar.U64(p.page_index);
    ar.Bytes(p.data.data(), p.data.size());
  });
  ar.U64(m.host_pool_next);
  ar.U64(m.next_guest_ram);
}

template <class Ar>
void Visit(Ar& ar, AttrBucket& b) {
  ar.I32(b.vm);
  ar.I32(b.vcpu);
  ar.U8(b.layer);
  ar.U8(b.cat);
  ar.U64(b.cycles);
}

template <class Ar>
void Visit(Ar& ar, AttrImage& a) {
  ar.Vec(a.percpu, 16, [&ar](AttrCpuImage& pc) {
    U64s(ar, pc.stack);
    ar.Vec(pc.buckets, 16, [&ar](std::pair<uint64_t, uint64_t>& kv) {
      ar.U64(kv.first);
      ar.U64(kv.second);
    });
  });
  ar.Vec(a.flights, 24, [&ar](CycleAttribution::FlightRecord& f) {
    ar.Str(f.reason);
    ar.U64(f.cycles);
    ar.Vec(f.buckets, 2 * 4 + 2 + 8, [&ar](AttrBucket& b) { Visit(ar, b); });
  });
  ar.U64(a.flight_next);
}

template <class Ar>
void Visit(Ar& ar, InjectionRecord& r) {
  ar.U64(r.seq);
  ar.U32(r.point);
  ar.I32(r.cpu);
  ar.U64(r.cycles);
  ar.U64(r.detail);
  ar.U64(r.attr_key);
}

template <class Ar>
void Visit(Ar& ar, FaultImage& f) {
  for (uint64_t& s : f.rng_state) {
    ar.U64(s);
  }
  U64s(ar, f.counts);
  ar.Vec(f.log, 8 + 4 + 4 + 3 * 8, [&ar](InjectionRecord& r) { Visit(ar, r); });
}

template <class Ar>
void Visit(Ar& ar, GicImage& g) {
  ar.Vec(g.ack_info, 8, [&ar](std::vector<LrAckImage>& row) {
    ar.Vec(row, 17, [&ar](LrAckImage& a) {
      ar.U64(a.ack_cycles);
      ar.U64(a.ack_trace_id);
      ar.U8(a.valid);
    });
  });
  U64s(ar, g.virtual_acks);
  U64s(ar, g.virtual_eois);
}

template <class Ar>
void Visit(Ar& ar, ShadowImage& s) {
  ar.U64(s.vvttbr);
  ar.U64(s.root);
  ar.U64(s.faults_handled);
  ar.U64(s.flushes);
  ar.U64(s.installed);
  ar.U64(s.virtual_faults);
  ar.U64(s.host_faults);
}

template <class Ar>
void Visit(Ar& ar, VcpuImage& v) {
  ar.U8(v.mode);
  ar.U8(v.main_started);
  ar.U8(v.nested_started);
  ar.U8(v.nested2_started);
  ar.U8(v.active_nested);
  ar.U8(v.vel2_handler_active);
  ar.U8(v.parked);
  ar.I32(v.loaded_on_pcpu);
  ar.U8(v.nested_is_hyp);
  ar.U64(v.nested_hcr);
  ar.U8(v.deferred_vector_active);
  ar.U8(v.mmio_retry);
  ar.Vec(v.shadows, 7 * 8, [&ar](ShadowImage& s) { Visit(ar, s); });
  ar.U64(v.vncr_hw_page);
  ar.Vec(v.pending_virq, 4, [&ar](uint32_t& q) { ar.U32(q); });
  ar.U64(v.virqs_enqueued);
  ar.U64(v.mmio_result);
  ar.U64(v.exits);
  ar.U64(v.vel2_deliveries);
  U64s(ar, v.vregs);
}

template <class Ar>
void Visit(Ar& ar, VmImage& v) {
  ar.Str(v.config.name);
  ar.I32(v.config.num_vcpus);
  ar.U64(v.config.ram_size);
  ar.U8(v.config.virtual_el2);
  ar.U8(v.config.expose_neve);
  ar.U8(v.config.guest_vhe);
  ar.I32(v.id);
  ar.U64(v.ram_base);
  ar.U64(v.s2_root);
  ar.U8(v.dead);
  ar.U64(v.generation);
  ar.Vec(v.vcpus, 64, [&ar](VcpuImage& c) { Visit(ar, c); });
}

template <class Ar>
void Visit(Ar& ar, VcpuHostStateImage& s) {
  ar.U8(s.present);
  Visit(ar, s.cur_el1);
  Visit(ar, s.vel2_exec);
  Visit(ar, s.ext);
  Visit(ar, s.pmu);
  ar.U64(s.elr);
  ar.U64(s.spsr);
  Visit(ar, s.timer);
  ar.U64(s.cntvoff);
}

template <class Ar>
void Visit(Ar& ar, PcpuImage& p) {
  ar.I32(p.current_vm);
  ar.I32(p.current_vcpu);
  ar.U8(p.guest_loaded);
  ar.I32(p.lrs_loaded);
  Visit(ar, p.host_el1);
  Visit(ar, p.host_ext);
  Visit(ar, p.host_pmu);
}

template <class Ar>
void Visit(Ar& ar, HostImage& h) {
  ar.Vec(h.vms, 64, [&ar](VmImage& v) { Visit(ar, v); });
  ar.Vec(h.pcpu, 64, [&ar](PcpuImage& p) { Visit(ar, p); });
  ar.Vec(h.vcpu_state, 8, [&ar](std::vector<VcpuHostStateImage>& row) {
    ar.Vec(row, 64, [&ar](VcpuHostStateImage& s) { Visit(ar, s); });
  });
}

template <class Ar>
void Visit(Ar& ar, NestedVcpuStateImage& s) {
  ar.U8(s.present);
  Visit(ar, s.el1);
  Visit(ar, s.ext);
  Visit(ar, s.pmu);
  ar.U64(s.elr);
  ar.U64(s.spsr);
}

template <class Ar>
void Visit(Ar& ar, PvcpuImage& p) {
  ar.I32(p.running_vm);
  ar.I32(p.running_vcpu);
  Visit(ar, p.kernel_el1);
  Visit(ar, p.kernel_ext);
  Visit(ar, p.timer);
}

template <class Ar>
void Visit(Ar& ar, GuestImage& g) {
  ar.U8(g.present);
  ar.U64(g.table_alloc_next);
  ar.U64(g.next_nested_ram);
  ar.Vec(g.vms, 64, [&ar](VmImage& v) { Visit(ar, v); });
  ar.Vec(g.pvcpu, 64, [&ar](PvcpuImage& p) { Visit(ar, p); });
  ar.Vec(g.nstate, 8, [&ar](std::vector<NestedVcpuStateImage>& row) {
    ar.Vec(row, 64, [&ar](NestedVcpuStateImage& s) { Visit(ar, s); });
  });
}

template <class Ar>
void Visit(Ar& ar, DevImage& d) {
  ar.U8(d.device_present);
  ar.U64(d.device_reads);
  ar.U64(d.device_writes);
  ar.U64(d.device_last_write);
  ar.U8(d.backend_present);
  ar.U64(d.last_avail);
  ar.U64(d.busy_until);
  ar.U64(d.kicks);
  ar.U64(d.buffers_processed);
  ar.U8(d.driver_present);
  ar.U64(d.avail_idx);
  ar.U64(d.last_used);
  ar.I32(d.next_desc);
  ar.U64(d.kicks_sent);
  ar.U64(d.posts);
}

template <class Ar>
void Visit(Ar& ar, Image& img) {
  ar.Section(kSecMeta, [&] { Visit(ar, img.meta); });
  ar.Section(kSecCpus, [&] {
    ar.Vec(img.cpus, 64, [&ar](CpuImage& c) { Visit(ar, c); });
  });
  ar.Section(kSecMem, [&] { Visit(ar, img.mem); });
  ar.Section(kSecAttr, [&] { Visit(ar, img.attr); });
  ar.Section(kSecFault, [&] { Visit(ar, img.fault); });
  ar.Section(kSecGic, [&] { Visit(ar, img.gic); });
  ar.Section(kSecHost, [&] { Visit(ar, img.host); });
  ar.Section(kSecGuest, [&] { Visit(ar, img.guest); });
  ar.Section(kSecDevs, [&] { Visit(ar, img.devs); });
}

}  // namespace

// ===========================================================================
// Capture
// ===========================================================================

Status Serializer::CaptureVm(Vm& vm, VmImage* out) {
  VmImage v;
  v.config = vm.config_;
  v.id = vm.id_;
  v.ram_base = vm.ram_base_.value;
  v.s2_root = vm.s2_.root().value;
  v.dead = vm.dead_;
  v.generation = vm.generation_;
  for (int i = 0; i < vm.num_vcpus(); ++i) {
    Vcpu& vc = vm.vcpu(i);
    if (vc.deferred_vector.has_value()) {
      return Status::Unimplemented(
          "snapshot: vcpu of '" + v.config.name +
          "' holds a pending deferred vector call; checkpoint at an "
          "operation boundary instead");
    }
    VcpuImage vi;
    vi.mode = vc.mode;
    vi.main_started = vc.main_sw.started;
    vi.nested_started = vc.nested_sw.started;
    vi.nested2_started = vc.nested2_sw.started;
    vi.active_nested = vc.active_nested == &vc.nested2_sw;
    vi.vel2_handler_active = vc.vel2_handler_active;
    vi.parked = vc.parked;
    vi.loaded_on_pcpu = vc.loaded_on_pcpu;
    vi.nested_is_hyp = vc.nested_is_hyp;
    vi.nested_hcr = vc.nested_hcr;
    vi.deferred_vector_active = vc.deferred_vector_active;
    vi.mmio_retry = vc.mmio_retry;
    for (const auto& [vvttbr, sh] : vc.shadows) {
      ShadowImage si;
      si.vvttbr = vvttbr;
      si.root = sh->table_.root().value;
      si.faults_handled = sh->faults_handled_;
      si.flushes = sh->flushes_;
      si.installed = sh->installed_;
      si.virtual_faults = sh->virtual_faults_;
      si.host_faults = sh->host_faults_;
      vi.shadows.push_back(si);
    }
    vi.vncr_hw_page = vc.vncr_hw_page.value;
    vi.pending_virq.assign(vc.pending_virq.begin(), vc.pending_virq.end());
    vi.virqs_enqueued = vc.virqs_enqueued;
    vi.mmio_result = vc.mmio_result;
    vi.exits = vc.exits;
    vi.vel2_deliveries = vc.vel2_deliveries;
    vi.vregs.assign(vc.vregs_, vc.vregs_ + kNumRegIds);
    v.vcpus.push_back(std::move(vi));
  }
  *out = std::move(v);
  return Status::Ok();
}

Status Serializer::Capture(const SnapTargets& t, Image* out) {
  NEVE_CHECK_MSG(t.machine != nullptr && t.host != nullptr,
                 "snapshot capture needs a machine and a host hypervisor");
  Machine& m = *t.machine;
  HostKvm& h = *t.host;
  Image img;

  // META: construction parameters, for structural verification on apply.
  const MachineConfig& mc = m.config_;
  img.meta.num_cpus = mc.num_cpus;
  img.meta.ram_size = mc.ram_size;
  img.meta.host_pool_size = mc.host_pool_size;
  img.meta.cycles_per_timer_tick = mc.cycles_per_timer_tick;
  img.meta.ipi_wire_latency = mc.ipi_wire_latency;
  img.meta.features = mc.features;
  img.meta.host = h.config_;

  // CPUS: register files, clocks, traces, TLBs.
  for (int i = 0; i < m.num_cpus(); ++i) {
    Cpu& c = m.cpu(i);
    CpuImage ci;
    ci.el = c.el_;
    ci.trap_depth = c.trap_depth_;
    ci.cycles = c.cycles_;
    ci.regs.assign(c.regs_, c.regs_ + kNumRegIds);
    ci.watchdog_deadline = c.watchdog_deadline_;
    ci.trap_tlbi = c.trap_tlbi_;
    const CpuTrace& tr = c.trace_;
    ci.record_details = tr.record_details_;
    ci.traps_to_el2 = tr.traps_to_el2_;
    ci.hvc_traps = tr.hvc_traps_;
    ci.sysreg_traps = tr.sysreg_traps_;
    ci.eret_traps = tr.eret_traps_;
    ci.abort_traps = tr.abort_traps_;
    ci.irq_exits = tr.irq_exits_;
    ci.records = tr.records_;
    ci.cycles_by_class.assign(tr.cycles_by_class_.begin(),
                              tr.cycles_by_class_.end());
    for (const auto& [key, entry] : c.tlb_) {
      TlbEntryImage te;
      te.va_page = key.va_page;
      te.s1_root = key.s1_root;
      te.s2_root = key.s2_root;
      te.pa_page = entry.pa_page;
      te.writable = entry.writable;
      ci.tlb.push_back(te);
    }
    std::sort(ci.tlb.begin(), ci.tlb.end(),
              [](const TlbEntryImage& a, const TlbEntryImage& b) {
                return std::tie(a.va_page, a.s1_root, a.s2_root) <
                       std::tie(b.va_page, b.s1_root, b.s2_root);
              });
    img.cpus.push_back(std::move(ci));
  }

  // MEMP: the full resident physical page set (page tables, shadow table
  // contents, VNCR pages and guest RAM all live here), plus the allocator
  // cursors that decide where the *next* page lands.
  PhysMem& mem = m.mem_;
  for (uint64_t idx : mem.ResidentPageIndices()) {
    PageImage pi;
    pi.page_index = idx;
    NEVE_CHECK(mem.ReadPage(idx, &pi.data));
    img.mem.pages.push_back(std::move(pi));
  }
  {
    MutexLock lock(m.host_pool_.mu_);
    img.mem.host_pool_next = m.host_pool_.next_;
  }
  img.mem.next_guest_ram = m.next_guest_ram_;

  // ATTR: per-CPU bucket shards (every key, including zero-cycle ones -- the
  // restored map must have the exact same shape for reference stability),
  // frame stacks, and the flight-recorder ring.
  CycleAttribution& attr = m.attr_;
  attr.FoldPending();
  for (const auto& pc : attr.percpu_) {
    AttrCpuImage ai;
    ai.stack = pc.stack;
    for (const auto& [key, cycles] : pc.buckets) {
      ai.buckets.emplace_back(key, cycles);
    }
    std::sort(ai.buckets.begin(), ai.buckets.end());
    img.attr.percpu.push_back(std::move(ai));
  }
  {
    MutexLock lock(attr.flights_mu_);
    img.attr.flights = attr.flights_;
    img.attr.flight_next = attr.flight_next_;
  }

  // FALT: the injector's RNG position, counters and log.
  FaultInjector& f = m.fault_;
  for (int i = 0; i < 4; ++i) {
    img.fault.rng_state[static_cast<size_t>(i)] =
        f.rng_.state_[static_cast<size_t>(i)];
  }
  img.fault.counts.assign(f.counts_, f.counts_ + kNumFaultPoints);
  img.fault.log = f.log_;

  // GICC: ack bookkeeping + counter shards.
  GicV3& g = m.gic_;
  for (const auto& row : g.ack_info_) {
    std::vector<LrAckImage> ri;
    for (const auto& a : row) {
      ri.push_back({.ack_cycles = a.ack_cycles,
                    .ack_trace_id = a.ack_trace_id,
                    .valid = a.valid});
    }
    img.gic.ack_info.push_back(std::move(ri));
  }
  img.gic.virtual_acks = g.virtual_acks_;
  img.gic.virtual_eois = g.virtual_eois_;

  // HOST: VMs, pcpu slots (loaded vcpu as (vm index, vcpu id)), and the
  // host-side per-vcpu contexts.
  for (const auto& vmp : h.vms_) {
    VmImage vi;
    NEVE_RETURN_IF_ERROR(CaptureVm(*vmp, &vi));
    img.host.vms.push_back(std::move(vi));
  }
  auto host_vm_index = [&h](const Vm* vm) {
    for (size_t i = 0; i < h.vms_.size(); ++i) {
      if (h.vms_[i].get() == vm) {
        return static_cast<int>(i);
      }
    }
    return -1;
  };
  for (const auto& ps : h.pcpu_) {
    PcpuImage pi;
    if (ps.current != nullptr) {
      pi.current_vm = host_vm_index(&ps.current->vm());
      if (pi.current_vm < 0) {
        return Status::Internal(
            "snapshot: loaded vcpu's VM is not registered with the host");
      }
      pi.current_vcpu = ps.current->id();
    }
    pi.guest_loaded = ps.guest_loaded;
    pi.lrs_loaded = ps.lrs_loaded;
    pi.host_el1 = ps.host_el1;
    pi.host_ext = ps.host_ext;
    pi.host_pmu = ps.host_pmu;
    img.host.pcpu.push_back(std::move(pi));
  }
  for (const auto& vmp : h.vms_) {
    Vm& vm = *vmp;
    std::vector<VcpuHostStateImage> row;
    for (int i = 0; i < vm.num_vcpus(); ++i) {
      VcpuHostStateImage si;
      auto it = h.vcpu_state_.find(&vm.vcpu(i));
      if (it != h.vcpu_state_.end()) {
        const HostKvm::VcpuHostState& hs = *it->second;
        si.present = true;
        si.cur_el1 = hs.cur_el1;
        si.vel2_exec = hs.vel2_exec;
        si.ext = hs.ext;
        si.pmu = hs.pmu;
        si.elr = hs.elr;
        si.spsr = hs.spsr;
        si.timer = hs.timer;
        si.cntvoff = hs.cntvoff;
      }
      row.push_back(si);
    }
    img.host.vcpu_state.push_back(std::move(row));
  }

  // GKVM: the guest hypervisor's nested VMs, pvcpu slots and per-nested-vcpu
  // contexts (nested stacks only).
  if (t.guest_hyp != nullptr) {
    GuestKvm& gk = *t.guest_hyp;
    img.guest.present = true;
    {
      MutexLock lock(gk.table_alloc_.mu_);
      img.guest.table_alloc_next = gk.table_alloc_.next_;
    }
    img.guest.next_nested_ram = gk.next_nested_ram_;
    for (const auto& vmp : gk.vms_) {
      VmImage vi;
      NEVE_RETURN_IF_ERROR(CaptureVm(*vmp, &vi));
      img.guest.vms.push_back(std::move(vi));
    }
    auto guest_vm_index = [&gk](const Vm* vm) {
      for (size_t i = 0; i < gk.vms_.size(); ++i) {
        if (gk.vms_[i].get() == vm) {
          return static_cast<int>(i);
        }
      }
      return -1;
    };
    for (const auto& ps : gk.pvcpu_) {
      PvcpuImage pi;
      if (ps.running != nullptr) {
        pi.running_vm = guest_vm_index(&ps.running->vm());
        if (pi.running_vm < 0) {
          return Status::Internal(
              "snapshot: running nested vcpu's VM is not registered with the "
              "guest hypervisor");
        }
        pi.running_vcpu = ps.running->id();
      }
      pi.kernel_el1 = ps.kernel_el1;
      pi.kernel_ext = ps.kernel_ext;
      pi.timer = ps.timer;
      img.guest.pvcpu.push_back(std::move(pi));
    }
    MutexLock lock(gk.nstate_mu_);
    for (const auto& vmp : gk.vms_) {
      Vm& vm = *vmp;
      std::vector<NestedVcpuStateImage> row;
      for (int i = 0; i < vm.num_vcpus(); ++i) {
        NestedVcpuStateImage si;
        auto it = gk.nstate_.find(&vm.vcpu(i));
        if (it != gk.nstate_.end()) {
          const GuestKvm::NestedVcpuState& ns = *it->second;
          if (ns.rec != nullptr) {
            return Status::Unimplemented(
                "snapshot: live recursive-nesting (L2 hypervisor) state is "
                "not coverable yet");
          }
          si.present = true;
          si.el1 = ns.el1;
          si.ext = ns.ext;
          si.pmu = ns.pmu;
          si.elr = ns.elr;
          si.spsr = ns.spsr;
        }
        row.push_back(si);
      }
      img.guest.nstate.push_back(std::move(row));
    }
  }

  // DEVS: device-model counters and virtio ring cursors.
  if (t.device != nullptr) {
    img.devs.device_present = true;
    img.devs.device_reads = t.device->reads_;
    img.devs.device_writes = t.device->writes_;
    img.devs.device_last_write = t.device->last_write_;
  }
  if (t.virtio_backend != nullptr) {
    img.devs.backend_present = true;
    MutexLock lock(t.virtio_backend->ring_mu_);
    img.devs.last_avail = t.virtio_backend->last_avail_;
    img.devs.busy_until = t.virtio_backend->busy_until_;
    img.devs.kicks = t.virtio_backend->kicks_;
    img.devs.buffers_processed = t.virtio_backend->buffers_processed_;
  }
  if (t.virtio_driver != nullptr) {
    img.devs.driver_present = true;
    img.devs.avail_idx = t.virtio_driver->avail_idx_;
    img.devs.last_used = t.virtio_driver->last_used_;
    img.devs.next_desc = t.virtio_driver->next_desc_;
    img.devs.kicks_sent = t.virtio_driver->kicks_sent_;
    img.devs.posts = t.virtio_driver->posts_;
  }

  *out = std::move(img);
  return Status::Ok();
}

// ===========================================================================
// Encode / Decode
// ===========================================================================

std::vector<uint8_t> Serializer::Encode(const Image& img) {
  Writer w;
  // Visit takes the image by non-const reference for Decode's sake; the
  // Writer only reads the fields.
  Visit(w, const_cast<Image&>(img));
  return w.Finish();
}

Status Serializer::Decode(const std::vector<uint8_t>& bytes, Image* out) {
  Reader r(bytes);
  const uint32_t sections = r.Header();
  NEVE_RETURN_IF_ERROR(r.status());
  if (sections != 9) {
    return Status::InvalidArgument("snapshot: wrong section count");
  }
  Image img;
  Visit(r, img);
  NEVE_RETURN_IF_ERROR(r.status());
  if (!r.AtEnd()) {
    return Status::InvalidArgument("snapshot: trailing bytes");
  }
  *out = std::move(img);
  return Status::Ok();
}

// ===========================================================================
// Apply
// ===========================================================================

Status Serializer::ApplyVmStructural(Vm& vm, const VmImage& img,
                                     const std::string& where,
                                     size_t num_pcpus) {
  const VmConfig& want = img.config;
  const std::string& name = want.name;
  if (vm.config_.name != name) {
    return Mismatch(where + ": vm name '" + vm.config_.name + "' vs '" +
                    name + "'");
  }
  if (vm.config_.num_vcpus != want.num_vcpus ||
      vm.num_vcpus() != static_cast<int>(img.vcpus.size())) {
    return Mismatch(where + ": vcpu count of '" + name + "'");
  }
  if (vm.config_.ram_size != want.ram_size) {
    return Mismatch(where + ": ram size of '" + name + "'");
  }
  if (vm.config_.virtual_el2 != want.virtual_el2 ||
      vm.config_.expose_neve != want.expose_neve ||
      vm.config_.guest_vhe != want.guest_vhe) {
    return Mismatch(where + ": virtualization config of '" + name + "'");
  }
  if (vm.id_ != img.id) {
    return Mismatch(where + ": vm id of '" + name + "'");
  }
  if (vm.ram_base_.value != img.ram_base) {
    return Mismatch(where + ": ram base of '" + name + "'");
  }
  if (vm.s2_.root().value != img.s2_root) {
    return Mismatch(where + ": stage-2 root of '" + name + "'");
  }
  for (int i = 0; i < vm.num_vcpus(); ++i) {
    Vcpu& vc = vm.vcpu(i);
    const VcpuImage& vi = img.vcpus[static_cast<size_t>(i)];
    if (vc.vncr_hw_page.value != vi.vncr_hw_page) {
      return Mismatch(where + ": VNCR page of '" + name + "'");
    }
    if (vc.deferred_vector.has_value()) {
      return Mismatch(where + ": restore target vcpu of '" + name +
                      "' holds a pending deferred vector call");
    }
    if (vi.vregs.size() != static_cast<size_t>(kNumRegIds)) {
      return Mismatch(where + ": vreg file size of '" + name + "'");
    }
    if (vi.loaded_on_pcpu < -1 ||
        vi.loaded_on_pcpu >= static_cast<int64_t>(num_pcpus)) {
      return Status::InvalidArgument("snapshot: " + where + " vcpu of '" +
                                     name + "' loaded on a missing pcpu");
    }
  }
  return Status::Ok();
}

void Serializer::ApplyVmValues(Vm& vm, const VmImage& img) {
  vm.dead_ = img.dead;
  vm.generation_ = img.generation;
  for (int i = 0; i < vm.num_vcpus(); ++i) {
    Vcpu& vc = vm.vcpu(i);
    const VcpuImage& vi = img.vcpus[static_cast<size_t>(i)];
    vc.mode = vi.mode;
    vc.main_sw.started = vi.main_started;
    vc.nested_sw.started = vi.nested_started;
    vc.nested2_sw.started = vi.nested2_started;
    vc.active_nested = vi.active_nested ? &vc.nested2_sw : &vc.nested_sw;
    vc.vel2_handler_active = vi.vel2_handler_active;
    vc.parked = vi.parked;
    vc.loaded_on_pcpu = vi.loaded_on_pcpu;
    vc.nested_is_hyp = vi.nested_is_hyp;
    vc.nested_hcr = vi.nested_hcr;
    vc.deferred_vector_active = vi.deferred_vector_active;
    vc.mmio_retry = vi.mmio_retry;
    for (const ShadowImage& si : vi.shadows) {
      // The shadow objects were reconciled before the page rewrite; here we
      // only point them at their restored trees and counters.
      ShadowS2& sh = *vc.shadows.at(si.vvttbr);
      sh.table_.table_.root_ = Pa(si.root);
      sh.faults_handled_ = si.faults_handled;
      sh.flushes_ = si.flushes;
      sh.installed_ = si.installed;
      sh.virtual_faults_ = si.virtual_faults;
      sh.host_faults_ = si.host_faults;
    }
    vc.pending_virq.assign(vi.pending_virq.begin(), vi.pending_virq.end());
    vc.virqs_enqueued = vi.virqs_enqueued;
    vc.mmio_result = vi.mmio_result;
    vc.exits = vi.exits;
    vc.vel2_deliveries = vi.vel2_deliveries;
    std::copy(vi.vregs.begin(), vi.vregs.end(), vc.vregs_);
  }
}

Status Serializer::Apply(const SnapTargets& t, const Image& img) {
  NEVE_CHECK_MSG(t.machine != nullptr && t.host != nullptr,
                 "snapshot apply needs a machine and a host hypervisor");
  Machine& m = *t.machine;
  HostKvm& h = *t.host;

  // ------------------------------------------------------------------
  // Phase 1: structural verification. Any mismatch returns an error
  // Status here, before a single byte of the target is mutated.
  // ------------------------------------------------------------------
  const MachineConfig& mc = m.config_;
  if (img.meta.num_cpus != mc.num_cpus ||
      img.meta.ram_size != mc.ram_size ||
      img.meta.host_pool_size != mc.host_pool_size ||
      img.meta.cycles_per_timer_tick != mc.cycles_per_timer_tick ||
      img.meta.ipi_wire_latency != mc.ipi_wire_latency) {
    return Mismatch("machine geometry");
  }
  if (img.meta.features != mc.features) {
    return Mismatch("architecture features");
  }
  if (img.meta.host != h.config_) {
    return Mismatch("host hypervisor config");
  }
  if (img.guest.present != (t.guest_hyp != nullptr)) {
    return Mismatch("guest hypervisor presence");
  }
  if (img.devs.device_present != (t.device != nullptr) ||
      img.devs.backend_present != (t.virtio_backend != nullptr) ||
      img.devs.driver_present != (t.virtio_driver != nullptr)) {
    return Mismatch("device presence");
  }

  if (img.cpus.size() != static_cast<size_t>(m.num_cpus())) {
    return Mismatch("cpu count");
  }
  for (int i = 0; i < m.num_cpus(); ++i) {
    Cpu& c = m.cpu(i);
    const CpuImage& ci = img.cpus[static_cast<size_t>(i)];
    if (ci.el != c.el_) {
      return Mismatch("cpu " + std::to_string(i) + " exception level");
    }
    if (ci.trap_depth != c.trap_depth_) {
      return Mismatch("cpu " + std::to_string(i) + " trap depth");
    }
    if (ci.regs.size() != static_cast<size_t>(kNumRegIds)) {
      return Mismatch("cpu " + std::to_string(i) + " register file size");
    }
    if (ci.cycles_by_class.size() !=
        static_cast<size_t>(CpuTrace::kNumClasses)) {
      return Mismatch("cpu " + std::to_string(i) + " trace class count");
    }
  }

  PhysMem& mem = m.mem_;
  for (size_t i = 0; i < img.mem.pages.size(); ++i) {
    uint64_t index = img.mem.pages[i].page_index;
    if (index >= (mem.size() >> kPageShift)) {
      return Status::InvalidArgument(
          "snapshot: resident page beyond physical memory");
    }
    if (i > 0 && index <= img.mem.pages[i - 1].page_index) {
      return Status::InvalidArgument(
          "snapshot: resident pages not in ascending order");
    }
  }

  CycleAttribution& attr = m.attr_;
  if (img.attr.percpu.size() != attr.percpu_.size()) {
    return Mismatch("attribution shard count");
  }
  // Bucket layers and categories index the attribution name tables.
  auto bad_bucket = [](const AttrBucket& b) {
    return static_cast<int>(b.layer) >= kNumAttrLayers ||
           static_cast<int>(b.cat) >= kNumAttrCats;
  };
  const Status bad_bucket_status = Status::InvalidArgument(
      "snapshot: attribution bucket layer or category out of range");
  for (size_t i = 0; i < attr.percpu_.size(); ++i) {
    if (img.attr.percpu[i].stack != attr.percpu_[i].stack) {
      return Mismatch("attribution frame stack of cpu " + std::to_string(i));
    }
    if (img.attr.percpu[i].stack.empty()) {
      return Mismatch("attribution frame stack of cpu " + std::to_string(i) +
                      " is empty");
    }
    for (const auto& [key, cycles] : img.attr.percpu[i].buckets) {
      if (bad_bucket(UnpackAttrKey(key))) {
        return bad_bucket_status;
      }
    }
  }
  if (img.attr.flights.size() > CycleAttribution::kFlightCapacity ||
      img.attr.flight_next >= CycleAttribution::kFlightCapacity) {
    return Status::InvalidArgument(
        "snapshot: flight-recorder ring position out of range");
  }
  for (const CycleAttribution::FlightRecord& f : img.attr.flights) {
    if (std::ranges::any_of(f.buckets, bad_bucket)) {
      return bad_bucket_status;
    }
  }

  if (img.fault.counts.size() != static_cast<size_t>(kNumFaultPoints)) {
    return Mismatch("fault point count");
  }

  GicV3& g = m.gic_;
  if (img.gic.ack_info.size() != g.ack_info_.size() ||
      img.gic.virtual_acks.size() != g.virtual_acks_.size() ||
      img.gic.virtual_eois.size() != g.virtual_eois_.size()) {
    return Mismatch("gic shard shape");
  }
  for (const auto& row : img.gic.ack_info) {
    if (row.size() != static_cast<size_t>(GicV3::kNumListRegs)) {
      return Mismatch("gic list-register count");
    }
  }

  if (img.host.vms.size() != h.vms_.size()) {
    return Mismatch("host VM count");
  }
  for (size_t i = 0; i < h.vms_.size(); ++i) {
    NEVE_RETURN_IF_ERROR(ApplyVmStructural(*h.vms_[i], img.host.vms[i],
                                           "host", h.pcpu_.size()));
  }
  if (img.host.pcpu.size() != h.pcpu_.size()) {
    return Mismatch("pcpu count");
  }
  for (size_t i = 0; i < h.pcpu_.size(); ++i) {
    const PcpuImage& pi = img.host.pcpu[i];
    Vcpu* want = nullptr;
    if (pi.current_vm >= 0) {
      if (static_cast<size_t>(pi.current_vm) >= h.vms_.size()) {
        return Status::InvalidArgument("snapshot: loaded-vcpu VM out of range");
      }
      Vm& vm = *h.vms_[static_cast<size_t>(pi.current_vm)];
      if (pi.current_vcpu < 0 || pi.current_vcpu >= vm.num_vcpus()) {
        return Status::InvalidArgument(
            "snapshot: loaded-vcpu index out of range");
      }
      want = &vm.vcpu(pi.current_vcpu);
    }
    if (h.pcpu_[i].current != want) {
      return Mismatch("loaded vcpu identity on pcpu " + std::to_string(i));
    }
    if (pi.lrs_loaded < 0 || pi.lrs_loaded > g.num_list_regs()) {
      return Status::InvalidArgument(
          "snapshot: loaded list-register count out of range");
    }
  }
  if (img.host.vcpu_state.size() != h.vms_.size()) {
    return Mismatch("host vcpu-state shape");
  }
  for (size_t i = 0; i < h.vms_.size(); ++i) {
    if (img.host.vcpu_state[i].size() !=
        static_cast<size_t>(h.vms_[i]->num_vcpus())) {
      return Mismatch("host vcpu-state row shape");
    }
  }

  GuestKvm* gk = t.guest_hyp;
  if (gk != nullptr) {
    if (img.guest.vms.size() != gk->vms_.size()) {
      return Mismatch("nested VM count");
    }
    for (size_t i = 0; i < gk->vms_.size(); ++i) {
      NEVE_RETURN_IF_ERROR(ApplyVmStructural(*gk->vms_[i], img.guest.vms[i],
                                             "guest", gk->pvcpu_.size()));
    }
    if (img.guest.pvcpu.size() != gk->pvcpu_.size()) {
      return Mismatch("pvcpu count");
    }
    for (size_t i = 0; i < gk->pvcpu_.size(); ++i) {
      const PvcpuImage& pi = img.guest.pvcpu[i];
      Vcpu* want = nullptr;
      if (pi.running_vm >= 0) {
        if (static_cast<size_t>(pi.running_vm) >= gk->vms_.size()) {
          return Status::InvalidArgument(
              "snapshot: running nested-vcpu VM out of range");
        }
        Vm& vm = *gk->vms_[static_cast<size_t>(pi.running_vm)];
        if (pi.running_vcpu < 0 || pi.running_vcpu >= vm.num_vcpus()) {
          return Status::InvalidArgument(
              "snapshot: running nested-vcpu index out of range");
        }
        want = &vm.vcpu(pi.running_vcpu);
      }
      if (gk->pvcpu_[i].running != want) {
        return Mismatch("running nested vcpu identity on pvcpu " +
                        std::to_string(i));
      }
    }
    if (img.guest.nstate.size() != gk->vms_.size()) {
      return Mismatch("nested vcpu-state shape");
    }
    MutexLock lock(gk->nstate_mu_);
    for (size_t i = 0; i < gk->vms_.size(); ++i) {
      Vm& vm = *gk->vms_[i];
      if (img.guest.nstate[i].size() !=
          static_cast<size_t>(vm.num_vcpus())) {
        return Mismatch("nested vcpu-state row shape");
      }
      for (int j = 0; j < vm.num_vcpus(); ++j) {
        auto it = gk->nstate_.find(&vm.vcpu(j));
        if (it != gk->nstate_.end() && it->second->rec != nullptr) {
          return Status::Unimplemented(
              "snapshot: restore target holds live recursive-nesting state");
        }
      }
    }
  }

  // ------------------------------------------------------------------
  // Phase 2: shadow-object and context-slot reconstruction. ShadowS2
  // construction allocates (and zeroes) a root page through the target's
  // allocators, so it MUST precede both the page rewrite (which replaces the
  // whole resident set, dropping those transient pages) and the cursor
  // restore (which rewinds the allocators to the captured positions).
  // ------------------------------------------------------------------
  auto reconcile_shadows = [](Vcpu& vc, const VcpuImage& vi, MemIo* smem,
                              PageAllocator* salloc, FaultInjector* fault) {
    for (auto it = vc.shadows.begin(); it != vc.shadows.end();) {
      const uint64_t key = it->first;
      const bool keep =
          std::any_of(vi.shadows.begin(), vi.shadows.end(),
                      [key](const ShadowImage& s) { return s.vvttbr == key; });
      it = keep ? std::next(it) : vc.shadows.erase(it);
    }
    for (const ShadowImage& s : vi.shadows) {
      std::unique_ptr<ShadowS2>& slot = vc.shadows[s.vvttbr];
      if (slot == nullptr) {
        slot = std::make_unique<ShadowS2>(smem, salloc);
        slot->SetFaultInjector(fault);
      }
    }
  };
  for (size_t i = 0; i < h.vms_.size(); ++i) {
    Vm& vm = *h.vms_[i];
    for (int j = 0; j < vm.num_vcpus(); ++j) {
      reconcile_shadows(vm.vcpu(j),
                        img.host.vms[i].vcpus[static_cast<size_t>(j)],
                        &m.mem(), &m.host_pool(), &m.fault());
    }
  }
  if (gk != nullptr) {
    for (size_t i = 0; i < gk->vms_.size(); ++i) {
      Vm& vm = *gk->vms_[i];
      for (int j = 0; j < vm.num_vcpus(); ++j) {
        reconcile_shadows(vm.vcpu(j),
                          img.guest.vms[i].vcpus[static_cast<size_t>(j)],
                          &gk->view_, &gk->table_alloc_, &m.fault());
      }
    }
  }
  for (size_t i = 0; i < h.vms_.size(); ++i) {
    Vm& vm = *h.vms_[i];
    for (int j = 0; j < vm.num_vcpus(); ++j) {
      const VcpuHostStateImage& si =
          img.host.vcpu_state[i][static_cast<size_t>(j)];
      if (si.present) {
        std::unique_ptr<HostKvm::VcpuHostState>& slot =
            h.vcpu_state_[&vm.vcpu(j)];
        if (slot == nullptr) {
          slot = std::make_unique<HostKvm::VcpuHostState>();
        }
      } else {
        h.vcpu_state_.erase(&vm.vcpu(j));
      }
    }
  }
  if (gk != nullptr) {
    MutexLock lock(gk->nstate_mu_);
    for (size_t i = 0; i < gk->vms_.size(); ++i) {
      Vm& vm = *gk->vms_[i];
      for (int j = 0; j < vm.num_vcpus(); ++j) {
        const NestedVcpuStateImage& si =
            img.guest.nstate[i][static_cast<size_t>(j)];
        if (si.present) {
          std::unique_ptr<GuestKvm::NestedVcpuState>& slot =
              gk->nstate_[&vm.vcpu(j)];
          if (slot == nullptr) {
            slot = std::make_unique<GuestKvm::NestedVcpuState>();
          }
        } else {
          gk->nstate_.erase(&vm.vcpu(j));
        }
      }
    }
  }

  // ------------------------------------------------------------------
  // Phase 3: physical memory rewrite -- the exact captured resident set
  // replaces whatever the target materialized (including the pages the
  // reconstruction above transiently allocated): pages outside the image
  // are dropped, every image page is overwritten, and the rewrite itself
  // leaves nothing in the dirty set.
  // ------------------------------------------------------------------
  for (uint64_t index : mem.ResidentPageIndices()) {
    if (!std::ranges::binary_search(img.mem.pages, index, {},
                                    &PageImage::page_index)) {
      mem.DropPage(index);
    }
  }
  for (const PageImage& p : img.mem.pages) {
    mem.WritePage(p.page_index, p.data.data());
  }
  (void)mem.DrainDirtyPages();

  // ------------------------------------------------------------------
  // Phase 4: allocator cursors.
  // ------------------------------------------------------------------
  {
    MutexLock lock(m.host_pool_.mu_);
    m.host_pool_.next_ = img.mem.host_pool_next;
  }
  m.next_guest_ram_ = img.mem.next_guest_ram;
  if (gk != nullptr) {
    {
      MutexLock lock(gk->table_alloc_.mu_);
      gk->table_alloc_.next_ = img.guest.table_alloc_next;
    }
    gk->next_nested_ram_ = img.guest.next_nested_ram;
  }

  // ------------------------------------------------------------------
  // Phase 5: value pokes.
  // ------------------------------------------------------------------
  for (int i = 0; i < m.num_cpus(); ++i) {
    Cpu& c = m.cpu(i);
    const CpuImage& ci = img.cpus[static_cast<size_t>(i)];
    c.cycles_ = ci.cycles;
    std::copy(ci.regs.begin(), ci.regs.end(), c.regs_);
    c.watchdog_deadline_ = ci.watchdog_deadline;
    c.trap_tlbi_ = ci.trap_tlbi;
    CpuTrace& tr = c.trace_;
    tr.record_details_ = ci.record_details;
    tr.traps_to_el2_ = ci.traps_to_el2;
    tr.hvc_traps_ = ci.hvc_traps;
    tr.sysreg_traps_ = ci.sysreg_traps;
    tr.eret_traps_ = ci.eret_traps;
    tr.abort_traps_ = ci.abort_traps;
    tr.irq_exits_ = ci.irq_exits;
    tr.records_ = ci.records;
    std::copy(ci.cycles_by_class.begin(), ci.cycles_by_class.end(),
              tr.cycles_by_class_.begin());
    c.tlb_.clear();
    for (const TlbEntryImage& te : ci.tlb) {
      c.tlb_[Cpu::TlbKey{.va_page = te.va_page,
                         .s1_root = te.s1_root,
                         .s2_root = te.s2_root}] =
          Cpu::TlbEntry{.pa_page = te.pa_page, .writable = te.writable};
    }
    // Re-key the resolution cache against the restored HCR/VNCR values; the
    // cache itself is cycle-invisible and rebuilds warm banks on demand.
    c.InvalidateResolutionsFor(RegId::kHCR_EL2);
  }

  for (size_t i = 0; i < g.ack_info_.size(); ++i) {
    for (size_t j = 0; j < static_cast<size_t>(GicV3::kNumListRegs); ++j) {
      const LrAckImage& a = img.gic.ack_info[i][j];
      g.ack_info_[i][j] = {.ack_cycles = a.ack_cycles,
                           .ack_trace_id = a.ack_trace_id,
                           .valid = a.valid};
    }
  }
  g.virtual_acks_ = img.gic.virtual_acks;
  g.virtual_eois_ = img.gic.virtual_eois;

  FaultInjector& f = m.fault_;
  for (size_t i = 0; i < 4; ++i) {
    f.rng_.state_[i] = img.fault.rng_state[i];
  }
  std::copy(img.fault.counts.begin(), img.fault.counts.end(), f.counts_);
  f.log_ = img.fault.log;

  for (size_t i = 0; i < h.vms_.size(); ++i) {
    ApplyVmValues(*h.vms_[i], img.host.vms[i]);
  }
  for (size_t i = 0; i < h.pcpu_.size(); ++i) {
    const PcpuImage& pi = img.host.pcpu[i];
    HostKvm::PcpuState& ps = h.pcpu_[i];
    // ps.current was verified identical above and is left alone.
    ps.guest_loaded = pi.guest_loaded;
    ps.lrs_loaded = pi.lrs_loaded;
    ps.host_el1 = pi.host_el1;
    ps.host_ext = pi.host_ext;
    ps.host_pmu = pi.host_pmu;
  }
  for (size_t i = 0; i < h.vms_.size(); ++i) {
    Vm& vm = *h.vms_[i];
    for (int j = 0; j < vm.num_vcpus(); ++j) {
      const VcpuHostStateImage& si =
          img.host.vcpu_state[i][static_cast<size_t>(j)];
      if (!si.present) {
        continue;
      }
      HostKvm::VcpuHostState& hs = *h.vcpu_state_.at(&vm.vcpu(j));
      hs.cur_el1 = si.cur_el1;
      hs.vel2_exec = si.vel2_exec;
      hs.ext = si.ext;
      hs.pmu = si.pmu;
      hs.elr = si.elr;
      hs.spsr = si.spsr;
      hs.timer = si.timer;
      hs.cntvoff = si.cntvoff;
    }
  }

  if (gk != nullptr) {
    for (size_t i = 0; i < gk->vms_.size(); ++i) {
      ApplyVmValues(*gk->vms_[i], img.guest.vms[i]);
    }
    for (size_t i = 0; i < gk->pvcpu_.size(); ++i) {
      const PvcpuImage& pi = img.guest.pvcpu[i];
      GuestKvm::PvcpuState& ps = gk->pvcpu_[i];
      ps.kernel_el1 = pi.kernel_el1;
      ps.kernel_ext = pi.kernel_ext;
      ps.timer = pi.timer;
    }
    MutexLock lock(gk->nstate_mu_);
    for (size_t i = 0; i < gk->vms_.size(); ++i) {
      Vm& vm = *gk->vms_[i];
      for (int j = 0; j < vm.num_vcpus(); ++j) {
        const NestedVcpuStateImage& si =
            img.guest.nstate[i][static_cast<size_t>(j)];
        if (!si.present) {
          continue;
        }
        GuestKvm::NestedVcpuState& ns = *gk->nstate_.at(&vm.vcpu(j));
        ns.el1 = si.el1;
        ns.ext = si.ext;
        ns.pmu = si.pmu;
        ns.elr = si.elr;
        ns.spsr = si.spsr;
      }
    }
  }

  if (t.device != nullptr) {
    t.device->reads_ = img.devs.device_reads;
    t.device->writes_ = img.devs.device_writes;
    t.device->last_write_ = img.devs.device_last_write;
  }
  if (t.virtio_backend != nullptr) {
    MutexLock lock(t.virtio_backend->ring_mu_);
    t.virtio_backend->last_avail_ = img.devs.last_avail;
    t.virtio_backend->busy_until_ = img.devs.busy_until;
    t.virtio_backend->kicks_ = img.devs.kicks;
    t.virtio_backend->buffers_processed_ = img.devs.buffers_processed;
  }
  if (t.virtio_driver != nullptr) {
    t.virtio_driver->avail_idx_ = img.devs.avail_idx;
    t.virtio_driver->last_used_ = img.devs.last_used;
    t.virtio_driver->next_desc_ = img.devs.next_desc;
    t.virtio_driver->kicks_sent_ = img.devs.kicks_sent;
    t.virtio_driver->posts_ = img.devs.posts;
  }

  // ------------------------------------------------------------------
  // Phase 6: attribution rebuild. The bucket maps are cleared and refilled
  // with the exact captured key set (including zero-cycle keys), then the
  // cached hot-path pointers are recomputed against the new map.
  // ------------------------------------------------------------------
  for (size_t i = 0; i < attr.percpu_.size(); ++i) {
    CycleAttribution::PerCpu& pc = attr.percpu_[i];
    const AttrCpuImage& ai = img.attr.percpu[i];
    pc.buckets.clear();
    for (const auto& [key, cycles] : ai.buckets) {
      pc.buckets[key] = cycles;
    }
    pc.bucket = &pc.buckets[pc.stack.back()];
    pc.memo_key = ~UINT64_C(0);
    pc.memo_bucket = nullptr;
    if (pc.redirect_pending != nullptr) {
      *pc.redirect_pending = 0;  // the target's own run, replaced above
    }
  }
  {
    MutexLock lock(attr.flights_mu_);
    attr.flights_ = img.attr.flights;
    attr.flight_next_ = img.attr.flight_next;
  }

  return Status::Ok();
}

Status Serializer::CaptureBytes(const SnapTargets& t,
                                std::vector<uint8_t>* out) {
  Image img;
  NEVE_RETURN_IF_ERROR(Capture(t, &img));
  *out = Encode(img);
  return Status::Ok();
}

}  // namespace snap
}  // namespace neve
