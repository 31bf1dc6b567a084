// Snapshot capture/encode/decode/apply. See snapshot.h for the protocol.
//
// Every private-field access the snapshot subsystem performs lives in this
// translation unit, under the Serializer methods (or lambdas inside them,
// which inherit their access) that the `friend class snap::Serializer`
// declarations across the tree license. The anonymous-namespace helpers
// name only public types: the Image structs, the wire format, and the
// containers a Serializer method hands them.

#include "src/snap/snapshot.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

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
// count. A struct the simulator keeps with private fields lists them in its
// own SnapFields member, which the Visit calls.

template <class Ar, class V>
void U64s(Ar& ar, V& v) {
  ar.Vec(v, 8, [&ar](uint64_t& x) { ar.U64(x); });
}

// A value its owner may lack (per-vCPU state a hypervisor creates on first
// use, a guest hypervisor or a device a stack may not have): a presence
// byte, then the fields -- a default value's when absent, so the layout
// never varies. Decoding fills a fresh image, so `o` starts absent there.
template <class Ar, class T, class Fn>
void Optional(Ar& ar, std::optional<T>& o, Fn fn) {
  bool present = o.has_value();
  ar.U8(present);
  if (present && !o.has_value()) {
    o.emplace();
  }
  T absent{};
  fn(present ? *o : absent);
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
void Visit(Ar& ar, CpuImage& c) {
  ar.U8(c.el);
  ar.I32(c.trap_depth);
  ar.U64(c.cycles);
  U64s(ar, c.regs);
  ar.U64(c.watchdog_deadline);
  ar.U8(c.trap_tlbi);
  c.trace.SnapFields(ar);
  ar.Vec(c.tlb, 4 * 8 + 1,
         [&ar](std::pair<Cpu::TlbKey, Cpu::TlbEntry>& e) {
           ar.U64(e.first.va_page);
           ar.U64(e.first.s1_root);
           ar.U64(e.first.s2_root);
           ar.U64(e.second.pa_page);
           ar.U8(e.second.writable);
         });
}

template <class Ar>
void Visit(Ar& ar, MemImage& m) {
  ar.Vec(m.pages, 8 + kPageSize, [&ar](PageCopy& p) {
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
  ar.Vec(g.ack_info, 8, [&ar](auto& row) {
    ar.Vec(row, 17, [&ar](GicV3::LrAckInfo& a) {
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
  ShadowS2::Counters& n = s.counters;
  ar.U64(n.faults_handled);
  ar.U64(n.flushes);
  ar.U64(n.installed);
  ar.U64(n.virtual_faults);
  ar.U64(n.host_faults);
}

// VcpuRunState's field list, interleaved with the rest of the vCPU.
template <class Ar>
void Visit(Ar& ar, VcpuImage& v) {
  VcpuRunState& r = v.run;
  ar.U8(r.mode);
  ar.U8(v.main_started);
  ar.U8(v.nested_started);
  ar.U8(v.nested2_started);
  ar.U8(v.active_nested);
  ar.U8(r.vel2_handler_active);
  ar.U8(r.parked);
  ar.I32(r.loaded_on_pcpu);
  ar.U8(r.nested_is_hyp);
  ar.U64(r.nested_hcr);
  ar.U8(r.deferred_vector_active);
  ar.U8(r.mmio_retry);
  ar.Vec(v.shadows, 7 * 8, [&ar](ShadowImage& s) { Visit(ar, s); });
  ar.U64(v.vncr_hw_page);
  ar.Vec(v.pending_virq, 4, [&ar](uint32_t& q) { ar.U32(q); });
  ar.U64(r.virqs_enqueued);
  ar.U64(r.mmio_result);
  ar.U64(r.exits);
  ar.U64(r.vel2_deliveries);
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
void Visit(Ar& ar, HostKvm::PcpuContext& p) {
  ar.U8(p.guest_loaded);
  ar.I32(p.lrs_loaded);
  Visit(ar, p.host_el1);
  Visit(ar, p.host_ext);
  Visit(ar, p.host_pmu);
}

template <class Ar>
void Visit(Ar& ar, HostKvm::VcpuHostState& s) {
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
void Visit(Ar& ar, GuestKvm::PvcpuContext& p) {
  Visit(ar, p.kernel_el1);
  Visit(ar, p.kernel_ext);
  Visit(ar, p.timer);
}

template <class Ar>
void Visit(Ar& ar, GuestKvm::NestedContext& s) {
  Visit(ar, s.el1);
  Visit(ar, s.ext);
  Visit(ar, s.pmu);
  ar.U64(s.elr);
  ar.U64(s.spsr);
}

// A hypervisor level: all of HOST, the tail of GKVM.
template <class Ar, class Context, class State>
void VisitLevel(Ar& ar, LevelImage<Context, State>& l) {
  ar.Vec(l.vms, 64, [&ar](VmImage& v) { Visit(ar, v); });
  ar.Vec(l.slots, 64, [&ar](SlotImage<Context>& s) {
    ar.I32(s.vm);
    ar.I32(s.vcpu);
    Visit(ar, s.ctx);
  });
  ar.Vec(l.vcpu_state, 8, [&ar](std::vector<std::optional<State>>& row) {
    ar.Vec(row, 64, [&ar](std::optional<State>& s) {
      Optional(ar, s, [&ar](State& v) { Visit(ar, v); });
    });
  });
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
  ar.Section(kSecHost, [&] { VisitLevel(ar, img.host); });
  ar.Section(kSecGuest, [&] {
    Optional(ar, img.guest, [&ar](GuestImage& g) {
      ar.U64(g.table_alloc_next);
      ar.U64(g.next_nested_ram);
      VisitLevel(ar, g);
    });
  });
  ar.Section(kSecDevs, [&] {
    Optional(ar, img.devs.device, [&ar](TestDevice::State& d) {
      ar.U64(d.reads);
      ar.U64(d.writes);
      ar.U64(d.last_write);
    });
    Optional(ar, img.devs.backend, [&ar](VirtioBackend::State& b) {
      ar.U64(b.last_avail);
      ar.U64(b.busy_until);
      ar.U64(b.kicks);
      ar.U64(b.buffers_processed);
    });
    Optional(ar, img.devs.driver, [&ar](VirtioDriver::State& d) {
      ar.U64(d.avail_idx);
      ar.U64(d.last_used);
      ar.I32(d.next_desc);
      ar.U64(d.kicks_sent);
      ar.U64(d.posts);
    });
  });
}

// --- one path for both hypervisor levels ------------------------------------
// HOST and GKVM have the same shape: VMs, (v)CPU slots that each name the
// vCPU loaded on them (`loaded` is PcpuState::current or
// PvcpuState::running), and per-vCPU state the level creates on first use.
// Serializer names each level's private containers and hands them here.

template <class Slot>
using LoadedVcpu = Vcpu* Slot::*;
template <class State>
using StateMap = std::unordered_map<const Vcpu*, std::unique_ptr<State>>;
using Vms = std::vector<std::unique_ptr<Vm>>;

template <class Context, class Slot>
Status CaptureSlots(const Vms& vms, const std::vector<Slot>& slots,
                    LoadedVcpu<Slot> loaded,
                    std::vector<SlotImage<Context>>* out) {
  for (const Slot& s : slots) {
    SlotImage<Context>& si = out->emplace_back();
    si.ctx = s;
    const Vcpu* vc = s.*loaded;
    if (vc == nullptr) {
      continue;
    }
    auto it = std::ranges::find_if(
        vms, [vc](const auto& vm) { return vm.get() == &vc->vm(); });
    if (it == vms.end()) {
      return Status::Internal(
          "snapshot: a loaded vcpu's VM is not registered with its "
          "hypervisor");
    }
    si.vm = static_cast<int>(it - vms.begin());
    si.vcpu = vc->id();
  }
  return Status::Ok();
}

template <class Context, class State>
void CaptureRows(const Vms& vms, const StateMap<State>& state,
                 std::vector<std::vector<std::optional<Context>>>* out) {
  for (const auto& vm : vms) {
    auto& row = out->emplace_back();
    for (int i = 0; i < vm->num_vcpus(); ++i) {
      auto it = state.find(&vm->vcpu(i));
      row.push_back(it == state.end()
                        ? std::nullopt
                        : std::optional<Context>(*it->second));
    }
  }
}

// Phase 1: every slot must hold the same vCPU (an index out of range is
// invalid, a different vCPU a structural mismatch).
template <class Context, class Slot>
Status VerifySlots(const Vms& vms, const std::vector<Slot>& slots,
                   LoadedVcpu<Slot> loaded,
                   const std::vector<SlotImage<Context>>& img,
                   const std::string& name) {
  if (img.size() != slots.size()) {
    return Mismatch(name + " count");
  }
  for (size_t i = 0; i < slots.size(); ++i) {
    const SlotImage<Context>& si = img[i];
    const Vcpu* want = nullptr;
    if (si.vm >= 0) {
      if (static_cast<size_t>(si.vm) >= vms.size() || si.vcpu < 0 ||
          si.vcpu >= vms[static_cast<size_t>(si.vm)]->num_vcpus()) {
        return Status::InvalidArgument("snapshot: vcpu loaded on " + name +
                                       " " + std::to_string(i) +
                                       " out of range");
      }
      want = &vms[static_cast<size_t>(si.vm)]->vcpu(si.vcpu);
    }
    if (slots[i].*loaded != want) {
      return Mismatch("loaded vcpu identity on " + name + " " +
                      std::to_string(i));
    }
  }
  return Status::Ok();
}

template <class Row>
Status VerifyRows(const Vms& vms, const std::vector<Row>& rows,
                  const std::string& level) {
  if (rows.size() != vms.size()) {
    return Mismatch(level + " vcpu-state shape");
  }
  for (size_t i = 0; i < vms.size(); ++i) {
    if (rows[i].size() != static_cast<size_t>(vms[i]->num_vcpus())) {
      return Mismatch(level + " vcpu-state row shape");
    }
  }
  return Status::Ok();
}

// Phase 2: the vCPUs' shadow sets take the captured keys. A new ShadowS2
// allocates (and zeroes) a root page in `mem` through `alloc`, which is why
// this runs before the page rewrite and the cursor restore.
void ReconcileShadows(const Vms& vms, const std::vector<VmImage>& img,
                      MemIo* mem, PageAllocator* alloc, FaultInjector* fault) {
  for (size_t i = 0; i < vms.size(); ++i) {
    for (int j = 0; j < vms[i]->num_vcpus(); ++j) {
      Vcpu& vc = vms[i]->vcpu(j);
      const std::vector<ShadowImage>& want =
          img[i].vcpus[static_cast<size_t>(j)].shadows;
      std::erase_if(vc.shadows, [&want](const auto& kv) {
        return std::ranges::find(want, kv.first, &ShadowImage::vvttbr) ==
               want.end();
      });
      for (const ShadowImage& s : want) {
        std::unique_ptr<ShadowS2>& slot = vc.shadows[s.vvttbr];
        if (slot == nullptr) {
          slot = std::make_unique<ShadowS2>(mem, alloc);
          slot->SetFaultInjector(fault);
        }
      }
    }
  }
}

template <class Context, class Slot>
void ApplySlots(std::vector<Slot>& slots,
                const std::vector<SlotImage<Context>>& img) {
  for (size_t i = 0; i < slots.size(); ++i) {
    static_cast<Context&>(slots[i]) = img[i].ctx;
  }
}

template <class Context, class State>
void ApplyRows(const Vms& vms, StateMap<State>& state,
               const std::vector<std::vector<std::optional<Context>>>& rows) {
  for (size_t i = 0; i < vms.size(); ++i) {
    for (int j = 0; j < vms[i]->num_vcpus(); ++j) {
      const Vcpu* vc = &vms[i]->vcpu(j);
      const std::optional<Context>& want = rows[i][static_cast<size_t>(j)];
      if (!want.has_value()) {
        state.erase(vc);
        continue;
      }
      std::unique_ptr<State>& slot = state[vc];
      if (slot == nullptr) {
        slot = std::make_unique<State>();
      }
      static_cast<Context&>(*slot) = *want;
    }
  }
}

}  // namespace

// ===========================================================================
// Capture
// ===========================================================================

Status Serializer::CaptureVms(const Vms& vms, std::vector<VmImage>* out) {
  for (const auto& vmp : vms) {
    Vm& vm = *vmp;
    VmImage& v = out->emplace_back();
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
      VcpuImage& vi = v.vcpus.emplace_back();
      vi.run = vc;
      vi.main_started = vc.main_sw.started;
      vi.nested_started = vc.nested_sw.started;
      vi.nested2_started = vc.nested2_sw.started;
      vi.active_nested = vc.active_nested == &vc.nested2_sw;
      for (const auto& [vvttbr, sh] : vc.shadows) {
        vi.shadows.push_back({.vvttbr = vvttbr,
                              .root = sh->table_.root().value,
                              .counters = sh->counters_});
      }
      vi.vncr_hw_page = vc.vncr_hw_page.value;
      vi.pending_virq.assign(vc.pending_virq.begin(), vc.pending_virq.end());
      std::ranges::copy(vc.vregs_, vi.vregs.begin());
    }
  }
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
    CpuImage& ci = img.cpus.emplace_back();
    ci.el = c.el_;
    ci.trap_depth = c.trap_depth_;
    ci.cycles = c.cycles_;
    std::ranges::copy(c.regs_, ci.regs.begin());
    ci.watchdog_deadline = c.watchdog_deadline_;
    ci.trap_tlbi = c.trap_tlbi_;
    ci.trace = c.trace_;
    ci.tlb.assign(c.tlb_.begin(), c.tlb_.end());
    std::ranges::sort(ci.tlb, {}, [](const auto& e) { return e.first; });
  }

  // MEMP: the full resident physical page set (page tables, shadow table
  // contents, VNCR pages and guest RAM all live here), plus the allocator
  // cursors that decide where the *next* page lands.
  PhysMem& mem = m.mem_;
  for (uint64_t idx : mem.ResidentPageIndices()) {
    PageCopy& p = img.mem.pages.emplace_back();
    p.page_index = idx;
    NEVE_CHECK(mem.ReadPage(idx, &p.data));
  }
  {
    MutexLock lock(m.host_pool_.mu_);
    img.mem.host_pool_next = m.host_pool_.next_;
  }
  img.mem.next_guest_ram = m.next_guest_ram_;

  // ATTR: each CPU's shard in key form (frame keys, and rows for the cells
  // on the frame stack plus every nonzero cell), and the flight ring.
  CycleAttribution& attr = m.attr_;
  for (size_t i = 0; i < attr.NumCpus(); ++i) {
    img.attr.percpu.push_back({attr.FrameKeys(i), attr.Rows(i)});
  }
  {
    MutexLock lock(attr.flights_mu_);
    img.attr.flights = attr.flights_;
    img.attr.flight_next = attr.flight_next_;
  }

  // FALT: the injector's RNG position, counters and log.
  FaultInjector& f = m.fault_;
  std::ranges::copy(f.rng_.state_, img.fault.rng_state.begin());
  std::ranges::copy(f.counts_, img.fault.counts.begin());
  img.fault.log = f.log_;

  // GICC: ack bookkeeping + counter shards.
  GicV3& g = m.gic_;
  img.gic.ack_info = g.ack_info_;
  img.gic.virtual_acks = g.virtual_acks_;
  img.gic.virtual_eois = g.virtual_eois_;

  // HOST and GKVM (nested stacks only): VMs, (v)CPU slots and per-vCPU
  // contexts, plus the guest hypervisor's allocator cursors.
  NEVE_RETURN_IF_ERROR(CaptureVms(h.vms_, &img.host.vms));
  NEVE_RETURN_IF_ERROR(CaptureSlots(h.vms_, h.pcpu_,
                                    &HostKvm::PcpuState::current,
                                    &img.host.slots));
  CaptureRows(h.vms_, h.vcpu_state_, &img.host.vcpu_state);
  if (t.guest_hyp != nullptr) {
    GuestKvm& gk = *t.guest_hyp;
    GuestImage& gi = img.guest.emplace();
    {
      MutexLock lock(gk.table_alloc_.mu_);
      gi.table_alloc_next = gk.table_alloc_.next_;
    }
    gi.next_nested_ram = gk.next_nested_ram_;
    NEVE_RETURN_IF_ERROR(CaptureVms(gk.vms_, &gi.vms));
    NEVE_RETURN_IF_ERROR(CaptureSlots(gk.vms_, gk.pvcpu_,
                                      &GuestKvm::PvcpuState::running,
                                      &gi.slots));
    MutexLock lock(gk.nstate_mu_);
    if (std::ranges::any_of(gk.nstate_, [](const auto& kv) {
          return kv.second->rec != nullptr;
        })) {
      return Status::Unimplemented(
          "snapshot: live recursive-nesting (L2 hypervisor) state is not "
          "coverable yet");
    }
    CaptureRows(gk.vms_, gk.nstate_, &gi.vcpu_state);
  }

  // DEVS: device-model counters and virtio ring cursors.
  if (t.device != nullptr) {
    img.devs.device = t.device->state_;
  }
  if (t.virtio_backend != nullptr) {
    MutexLock lock(t.virtio_backend->ring_mu_);
    img.devs.backend = t.virtio_backend->state_;
  }
  if (t.virtio_driver != nullptr) {
    img.devs.driver = t.virtio_driver->state_;
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

Status Serializer::VerifyVms(const Vms& vms, const std::vector<VmImage>& img,
                             const std::string& where, size_t num_slots) {
  if (img.size() != vms.size()) {
    return Mismatch(where + " VM count");
  }
  for (size_t k = 0; k < vms.size(); ++k) {
    Vm& vm = *vms[k];
    const VmImage& v = img[k];
    const std::string& name = v.config.name;
    if (vm.config_.name != name) {
      return Mismatch(where + ": vm name '" + vm.config_.name + "' vs '" +
                      name + "'");
    }
    if (vm.config_.num_vcpus != v.config.num_vcpus ||
        vm.num_vcpus() != static_cast<int>(v.vcpus.size())) {
      return Mismatch(where + ": vcpu count of '" + name + "'");
    }
    if (vm.config_.ram_size != v.config.ram_size) {
      return Mismatch(where + ": ram size of '" + name + "'");
    }
    if (vm.config_.virtual_el2 != v.config.virtual_el2 ||
        vm.config_.expose_neve != v.config.expose_neve ||
        vm.config_.guest_vhe != v.config.guest_vhe) {
      return Mismatch(where + ": virtualization config of '" + name + "'");
    }
    if (vm.id_ != v.id) {
      return Mismatch(where + ": vm id of '" + name + "'");
    }
    if (vm.ram_base_.value != v.ram_base) {
      return Mismatch(where + ": ram base of '" + name + "'");
    }
    if (vm.s2_.root().value != v.s2_root) {
      return Mismatch(where + ": stage-2 root of '" + name + "'");
    }
    for (int i = 0; i < vm.num_vcpus(); ++i) {
      const Vcpu& vc = vm.vcpu(i);
      const VcpuImage& vi = v.vcpus[static_cast<size_t>(i)];
      if (vc.vncr_hw_page.value != vi.vncr_hw_page) {
        return Mismatch(where + ": VNCR page of '" + name + "'");
      }
      if (vc.deferred_vector.has_value()) {
        return Mismatch(where + ": restore target vcpu of '" + name +
                        "' holds a pending deferred vector call");
      }
      if (vi.run.loaded_on_pcpu < -1 ||
          vi.run.loaded_on_pcpu >= static_cast<int64_t>(num_slots)) {
        return Status::InvalidArgument("snapshot: " + where + " vcpu of '" +
                                       name + "' loaded on a missing pcpu");
      }
    }
  }
  return Status::Ok();
}

void Serializer::ApplyVms(const Vms& vms, const std::vector<VmImage>& img) {
  for (size_t k = 0; k < vms.size(); ++k) {
    Vm& vm = *vms[k];
    vm.dead_ = img[k].dead;
    vm.generation_ = img[k].generation;
    for (int i = 0; i < vm.num_vcpus(); ++i) {
      Vcpu& vc = vm.vcpu(i);
      const VcpuImage& vi = img[k].vcpus[static_cast<size_t>(i)];
      static_cast<VcpuRunState&>(vc) = vi.run;
      vc.main_sw.started = vi.main_started;
      vc.nested_sw.started = vi.nested_started;
      vc.nested2_sw.started = vi.nested2_started;
      vc.active_nested = vi.active_nested ? &vc.nested2_sw : &vc.nested_sw;
      for (const ShadowImage& si : vi.shadows) {
        // The shadow objects were reconciled before the page rewrite; here
        // we only point them at their restored trees and counters.
        ShadowS2& sh = *vc.shadows.at(si.vvttbr);
        sh.table_.table_.root_ = Pa(si.root);
        sh.counters_ = si.counters;
      }
      vc.pending_virq.assign(vi.pending_virq.begin(), vi.pending_virq.end());
      std::ranges::copy(vi.vregs, vc.vregs_);
    }
  }
}

Status Serializer::Apply(const SnapTargets& t, const Image& img) {
  NEVE_CHECK_MSG(t.machine != nullptr && t.host != nullptr,
                 "snapshot apply needs a machine and a host hypervisor");
  Machine& m = *t.machine;
  HostKvm& h = *t.host;
  GuestKvm* gk = t.guest_hyp;

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
  if (img.guest.has_value() != (gk != nullptr)) {
    return Mismatch("guest hypervisor presence");
  }
  if (img.devs.device.has_value() != (t.device != nullptr) ||
      img.devs.backend.has_value() != (t.virtio_backend != nullptr) ||
      img.devs.driver.has_value() != (t.virtio_driver != nullptr)) {
    return Mismatch("device presence");
  }

  // Physical pages are compared as indices: a page number shifted into an
  // address could wrap into range.
  PhysMem& mem = m.mem_;
  const uint64_t num_pages = mem.size() >> kPageShift;
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
    for (const auto& [key, entry] : ci.tlb) {
      if (entry.pa_page >= num_pages) {
        return Status::InvalidArgument(
            "snapshot: TLB entry beyond physical memory");
      }
    }
  }

  for (size_t i = 0; i < img.mem.pages.size(); ++i) {
    uint64_t index = img.mem.pages[i].page_index;
    if (index >= num_pages) {
      return Status::InvalidArgument(
          "snapshot: resident page beyond physical memory");
    }
    if (i > 0 && index <= img.mem.pages[i - 1].page_index) {
      return Status::InvalidArgument(
          "snapshot: resident pages not in ascending order");
    }
  }

  CycleAttribution& attr = m.attr_;
  if (img.attr.percpu.size() != attr.NumCpus()) {
    return Mismatch("attribution shard count");
  }
  // Bucket layers and categories index the attribution name tables, and a
  // row's layer and category pick its cell within the context's block.
  auto bad_bucket = [](const AttrBucket& b) {
    return static_cast<int>(b.layer) >= kNumAttrLayers ||
           static_cast<int>(b.cat) >= kNumAttrCats;
  };
  const Status bad_bucket_status = Status::InvalidArgument(
      "snapshot: attribution bucket layer or category out of range");
  for (size_t i = 0; i < attr.NumCpus(); ++i) {
    if (img.attr.percpu[i].stack != attr.FrameKeys(i)) {
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

  GicV3& g = m.gic_;
  if (img.gic.ack_info.size() != g.ack_info_.size() ||
      img.gic.virtual_acks.size() != g.virtual_acks_.size() ||
      img.gic.virtual_eois.size() != g.virtual_eois_.size()) {
    return Mismatch("gic shard shape");
  }

  const HostImage& hi = img.host;
  NEVE_RETURN_IF_ERROR(VerifyVms(h.vms_, hi.vms, "host", h.pcpu_.size()));
  // The host's shadow roots are machine addresses (a guest hypervisor's
  // are IPAs, whose translation confines a bad one to its VM).
  for (const VmImage& v : hi.vms) {
    for (const VcpuImage& vi : v.vcpus) {
      for (const ShadowImage& s : vi.shadows) {
        if ((s.root >> kPageShift) >= num_pages) {
          return Status::InvalidArgument(
              "snapshot: shadow stage-2 root beyond physical memory");
        }
      }
    }
  }
  NEVE_RETURN_IF_ERROR(VerifySlots(h.vms_, h.pcpu_,
                                   &HostKvm::PcpuState::current, hi.slots,
                                   "pcpu"));
  for (const SlotImage<HostKvm::PcpuContext>& s : hi.slots) {
    if (s.ctx.lrs_loaded < 0 || s.ctx.lrs_loaded > g.num_list_regs()) {
      return Status::InvalidArgument(
          "snapshot: loaded list-register count out of range");
    }
  }
  NEVE_RETURN_IF_ERROR(VerifyRows(h.vms_, hi.vcpu_state, "host"));
  if (gk != nullptr) {
    const GuestImage& gi = *img.guest;
    NEVE_RETURN_IF_ERROR(
        VerifyVms(gk->vms_, gi.vms, "guest", gk->pvcpu_.size()));
    NEVE_RETURN_IF_ERROR(VerifySlots(gk->vms_, gk->pvcpu_,
                                     &GuestKvm::PvcpuState::running, gi.slots,
                                     "pvcpu"));
    NEVE_RETURN_IF_ERROR(VerifyRows(gk->vms_, gi.vcpu_state, "guest"));
    MutexLock lock(gk->nstate_mu_);
    if (std::ranges::any_of(gk->nstate_, [](const auto& kv) {
          return kv.second->rec != nullptr;
        })) {
      return Status::Unimplemented(
          "snapshot: restore target holds live recursive-nesting state");
    }
  }

  // ------------------------------------------------------------------
  // Phase 2: shadow-object reconstruction (ReconcileShadows says why it
  // comes first).
  // ------------------------------------------------------------------
  ReconcileShadows(h.vms_, hi.vms, &m.mem(), &m.host_pool(), &m.fault());
  if (gk != nullptr) {
    ReconcileShadows(gk->vms_, img.guest->vms, &gk->view_, &gk->table_alloc_,
                     &m.fault());
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
                                    &PageCopy::page_index)) {
      mem.DropPage(index);
    }
  }
  for (const PageCopy& p : img.mem.pages) {
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
      gk->table_alloc_.next_ = img.guest->table_alloc_next;
    }
    gk->next_nested_ram_ = img.guest->next_nested_ram;
  }

  // ------------------------------------------------------------------
  // Phase 5: values, per-vCPU state slots included.
  // ------------------------------------------------------------------
  for (int i = 0; i < m.num_cpus(); ++i) {
    Cpu& c = m.cpu(i);
    const CpuImage& ci = img.cpus[static_cast<size_t>(i)];
    c.cycles_ = ci.cycles;
    std::ranges::copy(ci.regs, c.regs_);
    c.watchdog_deadline_ = ci.watchdog_deadline;
    c.trap_tlbi_ = ci.trap_tlbi;
    c.trace_ = ci.trace;
    c.tlb_.clear();
    c.tlb_.insert(ci.tlb.begin(), ci.tlb.end());
    // Re-key the resolution cache against the restored HCR/VNCR values; the
    // cache itself is cycle-invisible and rebuilds warm banks on demand.
    c.InvalidateResolutionsFor(RegId::kHCR_EL2);
  }

  g.ack_info_ = img.gic.ack_info;
  g.virtual_acks_ = img.gic.virtual_acks;
  g.virtual_eois_ = img.gic.virtual_eois;

  FaultInjector& f = m.fault_;
  std::ranges::copy(img.fault.rng_state, f.rng_.state_);
  std::ranges::copy(img.fault.counts, f.counts_);
  f.log_ = img.fault.log;

  ApplyVms(h.vms_, hi.vms);
  ApplySlots(h.pcpu_, hi.slots);  // each current was verified identical
  ApplyRows(h.vms_, h.vcpu_state_, hi.vcpu_state);
  if (gk != nullptr) {
    const GuestImage& gi = *img.guest;
    ApplyVms(gk->vms_, gi.vms);
    ApplySlots(gk->pvcpu_, gi.slots);
    MutexLock lock(gk->nstate_mu_);
    ApplyRows(gk->vms_, gk->nstate_, gi.vcpu_state);
  }

  if (t.device != nullptr) {
    t.device->state_ = *img.devs.device;
  }
  if (t.virtio_backend != nullptr) {
    MutexLock lock(t.virtio_backend->ring_mu_);
    t.virtio_backend->state_ = *img.devs.backend;
  }
  if (t.virtio_driver != nullptr) {
    t.virtio_driver->state_ = *img.devs.driver;
  }

  // ------------------------------------------------------------------
  // Phase 6: attribution rebuild. Each CPU's cycles are replaced by the
  // captured rows, looked up by key; the frame stacks matched in phase 1.
  // ------------------------------------------------------------------
  for (size_t i = 0; i < attr.NumCpus(); ++i) {
    attr.RestoreRows(i, img.attr.percpu[i].buckets);
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
