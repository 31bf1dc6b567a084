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
#include "src/sim/machine.h"
#include "src/snap/wire.h"

namespace neve {
namespace snap {
namespace {

Status Mismatch(const std::string& what) {
  return Status::FailedPrecondition("snapshot: structural mismatch: " + what);
}

// --- context-struct conversions (public types only) ------------------------

El1ContextImage ImageOf(const El1Context& c) {
  El1ContextImage o;
  std::copy(std::begin(c.regs), std::end(c.regs), o.regs.begin());
  return o;
}
void FromImage(const El1ContextImage& i, El1Context* o) {
  std::copy(i.regs.begin(), i.regs.end(), std::begin(o->regs));
}

ExtEl1ContextImage ImageOf(const ExtEl1Context& c) {
  ExtEl1ContextImage o;
  std::copy(std::begin(c.regs), std::end(c.regs), o.regs.begin());
  return o;
}
void FromImage(const ExtEl1ContextImage& i, ExtEl1Context* o) {
  std::copy(i.regs.begin(), i.regs.end(), std::begin(o->regs));
}

PmuImage ImageOf(const PmuDebugContext& c) {
  return {.mdscr = c.mdscr, .pmuserenr = c.pmuserenr};
}
void FromImage(const PmuImage& i, PmuDebugContext* o) {
  o->mdscr = i.mdscr;
  o->pmuserenr = i.pmuserenr;
}

TimerContextImage ImageOf(const TimerContext& c) {
  return {.cntv_ctl = c.cntv_ctl, .cntv_cval = c.cntv_cval};
}
void FromImage(const TimerContextImage& i, TimerContext* o) {
  o->cntv_ctl = i.cntv_ctl;
  o->cntv_cval = i.cntv_cval;
}

SyndromeImage ImageOf(const Syndrome& s) {
  SyndromeImage o;
  o.ec = static_cast<uint8_t>(s.ec);
  o.imm16 = s.imm16;
  o.sysreg = static_cast<uint32_t>(s.sysreg);
  o.is_write = s.is_write ? 1 : 0;
  o.write_value = s.write_value;
  o.far = s.far;
  o.hpfar = s.hpfar;
  o.abort_is_write = s.abort_is_write ? 1 : 0;
  o.access_size = s.access_size;
  o.intid = s.intid;
  return o;
}
Syndrome SyndromeFrom(const SyndromeImage& i) {
  Syndrome s;
  s.ec = static_cast<Ec>(i.ec);
  s.imm16 = i.imm16;
  s.sysreg = static_cast<SysReg>(i.sysreg);
  s.is_write = i.is_write != 0;
  s.write_value = i.write_value;
  s.far = i.far;
  s.hpfar = i.hpfar;
  s.abort_is_write = i.abort_is_write != 0;
  s.access_size = i.access_size;
  s.intid = i.intid;
  return s;
}

// --- wire encode (pure functions of the Image) -----------------------------

void PutSyndrome(Writer& w, const SyndromeImage& s) {
  w.U8(s.ec);
  w.U32(s.imm16);
  w.U32(s.sysreg);
  w.U8(s.is_write);
  w.U64(s.write_value);
  w.U64(s.far);
  w.U64(s.hpfar);
  w.U8(s.abort_is_write);
  w.U8(s.access_size);
  w.U32(s.intid);
}

void PutEl1(Writer& w, const El1ContextImage& c) {
  for (uint64_t v : c.regs) {
    w.U64(v);
  }
}
void PutExt(Writer& w, const ExtEl1ContextImage& c) {
  for (uint64_t v : c.regs) {
    w.U64(v);
  }
}
void PutPmu(Writer& w, const PmuImage& p) {
  w.U64(p.mdscr);
  w.U64(p.pmuserenr);
}
void PutTimer(Writer& w, const TimerContextImage& t) {
  w.U64(t.cntv_ctl);
  w.U64(t.cntv_cval);
}

void PutMeta(Writer& w, const MetaImage& m) {
  w.I32(m.num_cpus);
  w.U64(m.ram_size);
  w.U64(m.host_pool_size);
  w.U64(m.cycles_per_timer_tick);
  w.U64(m.ipi_wire_latency);
  w.U8(m.feat_vhe);
  w.U8(m.feat_nv);
  w.U8(m.feat_neve);
  w.U8(m.feat_neve_deferred);
  w.U8(m.feat_neve_redirect);
  w.U8(m.feat_neve_cached);
  w.U8(m.host_vhe);
  w.U8(m.host_use_neve);
}

void PutCpu(Writer& w, const CpuImage& c) {
  w.U8(c.el);
  w.I32(c.trap_depth);
  w.U64(c.cycles);
  w.U64(c.regs.size());
  for (uint64_t v : c.regs) {
    w.U64(v);
  }
  w.U64(c.watchdog_deadline);
  w.U8(c.trap_tlbi);
  w.U8(c.record_details);
  w.U64(c.traps_to_el2);
  w.U64(c.hvc_traps);
  w.U64(c.sysreg_traps);
  w.U64(c.eret_traps);
  w.U64(c.abort_traps);
  w.U64(c.irq_exits);
  w.U64(c.records.size());
  for (const TrapRecordImage& r : c.records) {
    w.U64(r.sequence);
    PutSyndrome(w, r.syndrome);
    w.U64(r.cycles_at_entry);
  }
  w.U64(c.cycles_by_class.size());
  for (uint64_t v : c.cycles_by_class) {
    w.U64(v);
  }
  w.U64(c.tlb.size());
  for (const TlbEntryImage& e : c.tlb) {
    w.U64(e.va_page);
    w.U64(e.s1_root);
    w.U64(e.s2_root);
    w.U64(e.pa_page);
    w.U8(e.writable);
  }
}

void PutVcpu(Writer& w, const VcpuImage& v) {
  w.U8(v.mode);
  w.U8(v.main_started);
  w.U8(v.nested_started);
  w.U8(v.nested2_started);
  w.U8(v.active_nested);
  w.U8(v.vel2_handler_active);
  w.U8(v.parked);
  w.I32(v.loaded_on_pcpu);
  w.U8(v.nested_is_hyp);
  w.U64(v.nested_hcr);
  w.U8(v.deferred_vector_active);
  w.U8(v.mmio_retry);
  w.U64(v.shadows.size());
  for (const ShadowImage& s : v.shadows) {
    w.U64(s.vvttbr);
    w.U64(s.root);
    w.U64(s.faults_handled);
    w.U64(s.flushes);
    w.U64(s.installed);
    w.U64(s.virtual_faults);
    w.U64(s.host_faults);
  }
  w.U64(v.vncr_hw_page);
  w.U64(v.pending_virq.size());
  for (uint32_t q : v.pending_virq) {
    w.U32(q);
  }
  w.U64(v.virqs_enqueued);
  w.U64(v.mmio_result);
  w.U64(v.exits);
  w.U64(v.vel2_deliveries);
  w.U64(v.vregs.size());
  for (uint64_t r : v.vregs) {
    w.U64(r);
  }
}

void PutVm(Writer& w, const VmImage& v) {
  w.Str(v.name);
  w.I32(v.num_vcpus);
  w.U64(v.ram_size);
  w.U8(v.virtual_el2);
  w.U8(v.expose_neve);
  w.U8(v.guest_vhe);
  w.I32(v.id);
  w.U64(v.ram_base);
  w.U64(v.s2_root);
  w.U8(v.dead);
  w.U64(v.generation);
  w.U64(v.vcpus.size());
  for (const VcpuImage& c : v.vcpus) {
    PutVcpu(w, c);
  }
}

void PutVcpuHostState(Writer& w, const VcpuHostStateImage& s) {
  w.U8(s.present);
  PutEl1(w, s.cur_el1);
  PutEl1(w, s.vel2_exec);
  PutExt(w, s.ext);
  PutPmu(w, s.pmu);
  w.U64(s.elr);
  w.U64(s.spsr);
  PutTimer(w, s.timer);
  w.U64(s.cntvoff);
}

// --- wire decode -----------------------------------------------------------

Status GetSyndrome(Reader& r, SyndromeImage* s) {
  NEVE_RETURN_IF_ERROR(r.U8(&s->ec));
  uint32_t imm = 0;
  NEVE_RETURN_IF_ERROR(r.U32(&imm));
  s->imm16 = static_cast<uint16_t>(imm);
  NEVE_RETURN_IF_ERROR(r.U32(&s->sysreg));
  NEVE_RETURN_IF_ERROR(r.U8(&s->is_write));
  NEVE_RETURN_IF_ERROR(r.U64(&s->write_value));
  NEVE_RETURN_IF_ERROR(r.U64(&s->far));
  NEVE_RETURN_IF_ERROR(r.U64(&s->hpfar));
  NEVE_RETURN_IF_ERROR(r.U8(&s->abort_is_write));
  NEVE_RETURN_IF_ERROR(r.U8(&s->access_size));
  return r.U32(&s->intid);
}

Status GetEl1(Reader& r, El1ContextImage* c) {
  for (uint64_t& v : c->regs) {
    NEVE_RETURN_IF_ERROR(r.U64(&v));
  }
  return Status::Ok();
}
Status GetExt(Reader& r, ExtEl1ContextImage* c) {
  for (uint64_t& v : c->regs) {
    NEVE_RETURN_IF_ERROR(r.U64(&v));
  }
  return Status::Ok();
}
Status GetPmu(Reader& r, PmuImage* p) {
  NEVE_RETURN_IF_ERROR(r.U64(&p->mdscr));
  return r.U64(&p->pmuserenr);
}
Status GetTimer(Reader& r, TimerContextImage* t) {
  NEVE_RETURN_IF_ERROR(r.U64(&t->cntv_ctl));
  return r.U64(&t->cntv_cval);
}

Status GetU64Vec(Reader& r, std::vector<uint64_t>* out) {
  uint64_t n = 0;
  NEVE_RETURN_IF_ERROR(r.Count(&n, 8));
  out->resize(n);
  for (uint64_t& v : *out) {
    NEVE_RETURN_IF_ERROR(r.U64(&v));
  }
  return Status::Ok();
}

Status GetMeta(Reader& r, MetaImage* m) {
  NEVE_RETURN_IF_ERROR(r.I32(&m->num_cpus));
  NEVE_RETURN_IF_ERROR(r.U64(&m->ram_size));
  NEVE_RETURN_IF_ERROR(r.U64(&m->host_pool_size));
  NEVE_RETURN_IF_ERROR(r.U64(&m->cycles_per_timer_tick));
  NEVE_RETURN_IF_ERROR(r.U64(&m->ipi_wire_latency));
  NEVE_RETURN_IF_ERROR(r.U8(&m->feat_vhe));
  NEVE_RETURN_IF_ERROR(r.U8(&m->feat_nv));
  NEVE_RETURN_IF_ERROR(r.U8(&m->feat_neve));
  NEVE_RETURN_IF_ERROR(r.U8(&m->feat_neve_deferred));
  NEVE_RETURN_IF_ERROR(r.U8(&m->feat_neve_redirect));
  NEVE_RETURN_IF_ERROR(r.U8(&m->feat_neve_cached));
  NEVE_RETURN_IF_ERROR(r.U8(&m->host_vhe));
  return r.U8(&m->host_use_neve);
}

Status GetCpu(Reader& r, CpuImage* c) {
  NEVE_RETURN_IF_ERROR(r.U8(&c->el));
  NEVE_RETURN_IF_ERROR(r.I32(&c->trap_depth));
  NEVE_RETURN_IF_ERROR(r.U64(&c->cycles));
  NEVE_RETURN_IF_ERROR(GetU64Vec(r, &c->regs));
  NEVE_RETURN_IF_ERROR(r.U64(&c->watchdog_deadline));
  NEVE_RETURN_IF_ERROR(r.U8(&c->trap_tlbi));
  NEVE_RETURN_IF_ERROR(r.U8(&c->record_details));
  NEVE_RETURN_IF_ERROR(r.U64(&c->traps_to_el2));
  NEVE_RETURN_IF_ERROR(r.U64(&c->hvc_traps));
  NEVE_RETURN_IF_ERROR(r.U64(&c->sysreg_traps));
  NEVE_RETURN_IF_ERROR(r.U64(&c->eret_traps));
  NEVE_RETURN_IF_ERROR(r.U64(&c->abort_traps));
  NEVE_RETURN_IF_ERROR(r.U64(&c->irq_exits));
  uint64_t n = 0;
  NEVE_RETURN_IF_ERROR(r.Count(&n, 8 + 42 + 8));
  c->records.resize(n);
  for (TrapRecordImage& rec : c->records) {
    NEVE_RETURN_IF_ERROR(r.U64(&rec.sequence));
    NEVE_RETURN_IF_ERROR(GetSyndrome(r, &rec.syndrome));
    NEVE_RETURN_IF_ERROR(r.U64(&rec.cycles_at_entry));
  }
  NEVE_RETURN_IF_ERROR(GetU64Vec(r, &c->cycles_by_class));
  NEVE_RETURN_IF_ERROR(r.Count(&n, 4 * 8 + 1));
  c->tlb.resize(n);
  for (TlbEntryImage& e : c->tlb) {
    NEVE_RETURN_IF_ERROR(r.U64(&e.va_page));
    NEVE_RETURN_IF_ERROR(r.U64(&e.s1_root));
    NEVE_RETURN_IF_ERROR(r.U64(&e.s2_root));
    NEVE_RETURN_IF_ERROR(r.U64(&e.pa_page));
    NEVE_RETURN_IF_ERROR(r.U8(&e.writable));
  }
  return Status::Ok();
}

Status GetVcpu(Reader& r, VcpuImage* v) {
  NEVE_RETURN_IF_ERROR(r.U8(&v->mode));
  NEVE_RETURN_IF_ERROR(r.U8(&v->main_started));
  NEVE_RETURN_IF_ERROR(r.U8(&v->nested_started));
  NEVE_RETURN_IF_ERROR(r.U8(&v->nested2_started));
  NEVE_RETURN_IF_ERROR(r.U8(&v->active_nested));
  NEVE_RETURN_IF_ERROR(r.U8(&v->vel2_handler_active));
  NEVE_RETURN_IF_ERROR(r.U8(&v->parked));
  NEVE_RETURN_IF_ERROR(r.I32(&v->loaded_on_pcpu));
  NEVE_RETURN_IF_ERROR(r.U8(&v->nested_is_hyp));
  NEVE_RETURN_IF_ERROR(r.U64(&v->nested_hcr));
  NEVE_RETURN_IF_ERROR(r.U8(&v->deferred_vector_active));
  NEVE_RETURN_IF_ERROR(r.U8(&v->mmio_retry));
  uint64_t n = 0;
  NEVE_RETURN_IF_ERROR(r.Count(&n, 7 * 8));
  v->shadows.resize(n);
  for (ShadowImage& s : v->shadows) {
    NEVE_RETURN_IF_ERROR(r.U64(&s.vvttbr));
    NEVE_RETURN_IF_ERROR(r.U64(&s.root));
    NEVE_RETURN_IF_ERROR(r.U64(&s.faults_handled));
    NEVE_RETURN_IF_ERROR(r.U64(&s.flushes));
    NEVE_RETURN_IF_ERROR(r.U64(&s.installed));
    NEVE_RETURN_IF_ERROR(r.U64(&s.virtual_faults));
    NEVE_RETURN_IF_ERROR(r.U64(&s.host_faults));
  }
  NEVE_RETURN_IF_ERROR(r.U64(&v->vncr_hw_page));
  NEVE_RETURN_IF_ERROR(r.Count(&n, 4));
  v->pending_virq.resize(n);
  for (uint32_t& q : v->pending_virq) {
    NEVE_RETURN_IF_ERROR(r.U32(&q));
  }
  NEVE_RETURN_IF_ERROR(r.U64(&v->virqs_enqueued));
  NEVE_RETURN_IF_ERROR(r.U64(&v->mmio_result));
  NEVE_RETURN_IF_ERROR(r.U64(&v->exits));
  NEVE_RETURN_IF_ERROR(r.U64(&v->vel2_deliveries));
  return GetU64Vec(r, &v->vregs);
}

Status GetVm(Reader& r, VmImage* v) {
  NEVE_RETURN_IF_ERROR(r.Str(&v->name));
  NEVE_RETURN_IF_ERROR(r.I32(&v->num_vcpus));
  NEVE_RETURN_IF_ERROR(r.U64(&v->ram_size));
  NEVE_RETURN_IF_ERROR(r.U8(&v->virtual_el2));
  NEVE_RETURN_IF_ERROR(r.U8(&v->expose_neve));
  NEVE_RETURN_IF_ERROR(r.U8(&v->guest_vhe));
  NEVE_RETURN_IF_ERROR(r.I32(&v->id));
  NEVE_RETURN_IF_ERROR(r.U64(&v->ram_base));
  NEVE_RETURN_IF_ERROR(r.U64(&v->s2_root));
  NEVE_RETURN_IF_ERROR(r.U8(&v->dead));
  NEVE_RETURN_IF_ERROR(r.U64(&v->generation));
  uint64_t n = 0;
  NEVE_RETURN_IF_ERROR(r.Count(&n, 64));
  v->vcpus.resize(n);
  for (VcpuImage& c : v->vcpus) {
    NEVE_RETURN_IF_ERROR(GetVcpu(r, &c));
  }
  return Status::Ok();
}

Status GetVcpuHostState(Reader& r, VcpuHostStateImage* s) {
  NEVE_RETURN_IF_ERROR(r.U8(&s->present));
  NEVE_RETURN_IF_ERROR(GetEl1(r, &s->cur_el1));
  NEVE_RETURN_IF_ERROR(GetEl1(r, &s->vel2_exec));
  NEVE_RETURN_IF_ERROR(GetExt(r, &s->ext));
  NEVE_RETURN_IF_ERROR(GetPmu(r, &s->pmu));
  NEVE_RETURN_IF_ERROR(r.U64(&s->elr));
  NEVE_RETURN_IF_ERROR(r.U64(&s->spsr));
  NEVE_RETURN_IF_ERROR(GetTimer(r, &s->timer));
  return r.U64(&s->cntvoff);
}

}  // namespace

// ===========================================================================
// Capture
// ===========================================================================

Status Serializer::CaptureVm(Vm& vm, VmImage* out) {
  VmImage v;
  v.name = vm.config_.name;
  v.num_vcpus = vm.config_.num_vcpus;
  v.ram_size = vm.config_.ram_size;
  v.virtual_el2 = vm.config_.virtual_el2 ? 1 : 0;
  v.expose_neve = vm.config_.expose_neve ? 1 : 0;
  v.guest_vhe = vm.config_.guest_vhe ? 1 : 0;
  v.id = vm.id_;
  v.ram_base = vm.ram_base_.value;
  v.s2_root = vm.s2_.root().value;
  v.dead = vm.dead_ ? 1 : 0;
  v.generation = vm.generation_;
  for (int i = 0; i < vm.num_vcpus(); ++i) {
    Vcpu& vc = vm.vcpu(i);
    if (vc.deferred_vector.has_value()) {
      return Status::Unimplemented(
          "snapshot: vcpu of '" + v.name +
          "' holds a pending deferred vector call; checkpoint at an "
          "operation boundary instead");
    }
    VcpuImage vi;
    vi.mode = static_cast<uint8_t>(vc.mode);
    vi.main_started = vc.main_sw.started ? 1 : 0;
    vi.nested_started = vc.nested_sw.started ? 1 : 0;
    vi.nested2_started = vc.nested2_sw.started ? 1 : 0;
    vi.active_nested = (vc.active_nested == &vc.nested2_sw) ? 1 : 0;
    vi.vel2_handler_active = vc.vel2_handler_active ? 1 : 0;
    vi.parked = vc.parked ? 1 : 0;
    vi.loaded_on_pcpu = vc.loaded_on_pcpu;
    vi.nested_is_hyp = vc.nested_is_hyp ? 1 : 0;
    vi.nested_hcr = vc.nested_hcr;
    vi.deferred_vector_active = vc.deferred_vector_active ? 1 : 0;
    vi.mmio_retry = vc.mmio_retry ? 1 : 0;
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
  img.meta.feat_vhe = mc.features.vhe ? 1 : 0;
  img.meta.feat_nv = mc.features.nv ? 1 : 0;
  img.meta.feat_neve = mc.features.neve ? 1 : 0;
  img.meta.feat_neve_deferred = mc.features.neve_deferred ? 1 : 0;
  img.meta.feat_neve_redirect = mc.features.neve_redirect ? 1 : 0;
  img.meta.feat_neve_cached = mc.features.neve_cached ? 1 : 0;
  img.meta.host_vhe = h.config_.vhe ? 1 : 0;
  img.meta.host_use_neve = h.config_.use_neve ? 1 : 0;

  // CPUS: register files, clocks, traces, TLBs.
  for (int i = 0; i < m.num_cpus(); ++i) {
    Cpu& c = m.cpu(i);
    CpuImage ci;
    ci.el = static_cast<uint8_t>(c.el_);
    ci.trap_depth = c.trap_depth_;
    ci.cycles = c.cycles_;
    ci.regs.assign(c.regs_, c.regs_ + kNumRegIds);
    ci.watchdog_deadline = c.watchdog_deadline_;
    ci.trap_tlbi = c.trap_tlbi_ ? 1 : 0;
    const CpuTrace& tr = c.trace_;
    ci.record_details = tr.record_details_ ? 1 : 0;
    ci.traps_to_el2 = tr.traps_to_el2_;
    ci.hvc_traps = tr.hvc_traps_;
    ci.sysreg_traps = tr.sysreg_traps_;
    ci.eret_traps = tr.eret_traps_;
    ci.abort_traps = tr.abort_traps_;
    ci.irq_exits = tr.irq_exits_;
    for (const TrapRecord& rec : tr.records_) {
      ci.records.push_back({.sequence = rec.sequence,
                            .syndrome = ImageOf(rec.syndrome),
                            .cycles_at_entry = rec.cycles_at_entry});
    }
    ci.cycles_by_class.assign(tr.cycles_by_class_.begin(),
                              tr.cycles_by_class_.end());
    for (const auto& [key, entry] : c.tlb_) {
      TlbEntryImage te;
      te.va_page = key.va_page;
      te.s1_root = key.s1_root;
      te.s2_root = key.s2_root;
      te.pa_page = entry.pa_page;
      te.writable = entry.writable ? 1 : 0;
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
    for (const auto& fr : attr.flights_) {
      FlightImage fi;
      fi.reason = fr.reason;
      fi.cycles = fr.cycles;
      for (const AttrBucket& b : fr.buckets) {
        fi.buckets.push_back({.vm = b.vm,
                              .vcpu = b.vcpu,
                              .layer = static_cast<uint8_t>(b.layer),
                              .cat = static_cast<uint8_t>(b.cat),
                              .cycles = b.cycles});
      }
      img.attr.flights.push_back(std::move(fi));
    }
    img.attr.flight_next = attr.flight_next_;
  }

  // FALT: the injector's RNG position, counters and log.
  FaultInjector& f = m.fault_;
  for (int i = 0; i < 4; ++i) {
    img.fault.rng_state[static_cast<size_t>(i)] =
        f.rng_.state_[static_cast<size_t>(i)];
  }
  img.fault.counts.assign(f.counts_, f.counts_ + kNumFaultPoints);
  for (const InjectionRecord& rec : f.log_) {
    img.fault.log.push_back({.seq = rec.seq,
                             .point = static_cast<uint32_t>(rec.point),
                             .cpu = rec.cpu,
                             .cycles = rec.cycles,
                             .detail = rec.detail,
                             .attr_key = rec.attr_key});
  }

  // GICC: ack bookkeeping + counter shards.
  GicV3& g = m.gic_;
  for (const auto& row : g.ack_info_) {
    std::vector<LrAckImage> ri;
    for (const auto& a : row) {
      ri.push_back({.ack_cycles = a.ack_cycles,
                    .ack_trace_id = a.ack_trace_id,
                    .valid = a.valid ? uint8_t{1} : uint8_t{0}});
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
    pi.guest_loaded = ps.guest_loaded ? 1 : 0;
    pi.lrs_loaded = ps.lrs_loaded;
    pi.host_el1 = ImageOf(ps.host_el1);
    pi.host_ext = ImageOf(ps.host_ext);
    pi.host_pmu = ImageOf(ps.host_pmu);
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
        si.present = 1;
        si.cur_el1 = ImageOf(hs.cur_el1);
        si.vel2_exec = ImageOf(hs.vel2_exec);
        si.ext = ImageOf(hs.ext);
        si.pmu = ImageOf(hs.pmu);
        si.elr = hs.elr;
        si.spsr = hs.spsr;
        si.timer = ImageOf(hs.timer);
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
    img.guest.present = 1;
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
      pi.kernel_el1 = ImageOf(ps.kernel_el1);
      pi.kernel_ext = ImageOf(ps.kernel_ext);
      pi.timer = ImageOf(ps.timer);
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
          si.present = 1;
          si.el1 = ImageOf(ns.el1);
          si.ext = ImageOf(ns.ext);
          si.pmu = ImageOf(ns.pmu);
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
    img.devs.device_present = 1;
    img.devs.device_reads = t.device->reads_;
    img.devs.device_writes = t.device->writes_;
    img.devs.device_last_write = t.device->last_write_;
  }
  if (t.virtio_backend != nullptr) {
    img.devs.backend_present = 1;
    MutexLock lock(t.virtio_backend->ring_mu_);
    img.devs.last_avail = t.virtio_backend->last_avail_;
    img.devs.busy_until = t.virtio_backend->busy_until_;
    img.devs.kicks = t.virtio_backend->kicks_;
    img.devs.buffers_processed = t.virtio_backend->buffers_processed_;
  }
  if (t.virtio_driver != nullptr) {
    img.devs.driver_present = 1;
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

  w.BeginSection(kSecMeta);
  PutMeta(w, img.meta);
  w.EndSection();

  w.BeginSection(kSecCpus);
  w.U64(img.cpus.size());
  for (const CpuImage& c : img.cpus) {
    PutCpu(w, c);
  }
  w.EndSection();

  w.BeginSection(kSecMem);
  w.U64(img.mem.pages.size());
  for (const PageImage& p : img.mem.pages) {
    w.U64(p.page_index);
    w.Bytes(p.data.data(), p.data.size());
  }
  w.U64(img.mem.host_pool_next);
  w.U64(img.mem.next_guest_ram);
  w.EndSection();

  w.BeginSection(kSecAttr);
  w.U64(img.attr.percpu.size());
  for (const AttrCpuImage& a : img.attr.percpu) {
    w.U64(a.stack.size());
    for (uint64_t k : a.stack) {
      w.U64(k);
    }
    w.U64(a.buckets.size());
    for (const auto& [key, cycles] : a.buckets) {
      w.U64(key);
      w.U64(cycles);
    }
  }
  w.U64(img.attr.flights.size());
  for (const FlightImage& f : img.attr.flights) {
    w.Str(f.reason);
    w.U64(f.cycles);
    w.U64(f.buckets.size());
    for (const AttrBucketImage& b : f.buckets) {
      w.I32(b.vm);
      w.I32(b.vcpu);
      w.U8(b.layer);
      w.U8(b.cat);
      w.U64(b.cycles);
    }
  }
  w.U64(img.attr.flight_next);
  w.EndSection();

  w.BeginSection(kSecFault);
  for (uint64_t s : img.fault.rng_state) {
    w.U64(s);
  }
  w.U64(img.fault.counts.size());
  for (uint64_t c : img.fault.counts) {
    w.U64(c);
  }
  w.U64(img.fault.log.size());
  for (const InjectionImage& rec : img.fault.log) {
    w.U64(rec.seq);
    w.U32(rec.point);
    w.I32(rec.cpu);
    w.U64(rec.cycles);
    w.U64(rec.detail);
    w.U64(rec.attr_key);
  }
  w.EndSection();

  w.BeginSection(kSecGic);
  w.U64(img.gic.ack_info.size());
  for (const auto& row : img.gic.ack_info) {
    w.U64(row.size());
    for (const LrAckImage& a : row) {
      w.U64(a.ack_cycles);
      w.U64(a.ack_trace_id);
      w.U8(a.valid);
    }
  }
  w.U64(img.gic.virtual_acks.size());
  for (uint64_t v : img.gic.virtual_acks) {
    w.U64(v);
  }
  w.U64(img.gic.virtual_eois.size());
  for (uint64_t v : img.gic.virtual_eois) {
    w.U64(v);
  }
  w.EndSection();

  w.BeginSection(kSecHost);
  w.U64(img.host.vms.size());
  for (const VmImage& v : img.host.vms) {
    PutVm(w, v);
  }
  w.U64(img.host.pcpu.size());
  for (const PcpuImage& p : img.host.pcpu) {
    w.I32(p.current_vm);
    w.I32(p.current_vcpu);
    w.U8(p.guest_loaded);
    w.I32(p.lrs_loaded);
    PutEl1(w, p.host_el1);
    PutExt(w, p.host_ext);
    PutPmu(w, p.host_pmu);
  }
  w.U64(img.host.vcpu_state.size());
  for (const auto& row : img.host.vcpu_state) {
    w.U64(row.size());
    for (const VcpuHostStateImage& s : row) {
      PutVcpuHostState(w, s);
    }
  }
  w.EndSection();

  w.BeginSection(kSecGuest);
  w.U8(img.guest.present);
  w.U64(img.guest.table_alloc_next);
  w.U64(img.guest.next_nested_ram);
  w.U64(img.guest.vms.size());
  for (const VmImage& v : img.guest.vms) {
    PutVm(w, v);
  }
  w.U64(img.guest.pvcpu.size());
  for (const PvcpuImage& p : img.guest.pvcpu) {
    w.I32(p.running_vm);
    w.I32(p.running_vcpu);
    PutEl1(w, p.kernel_el1);
    PutExt(w, p.kernel_ext);
    PutTimer(w, p.timer);
  }
  w.U64(img.guest.nstate.size());
  for (const auto& row : img.guest.nstate) {
    w.U64(row.size());
    for (const NestedVcpuStateImage& s : row) {
      w.U8(s.present);
      PutEl1(w, s.el1);
      PutExt(w, s.ext);
      PutPmu(w, s.pmu);
      w.U64(s.elr);
      w.U64(s.spsr);
    }
  }
  w.EndSection();

  w.BeginSection(kSecDevs);
  w.U8(img.devs.device_present);
  w.U64(img.devs.device_reads);
  w.U64(img.devs.device_writes);
  w.U64(img.devs.device_last_write);
  w.U8(img.devs.backend_present);
  w.U64(img.devs.last_avail);
  w.U64(img.devs.busy_until);
  w.U64(img.devs.kicks);
  w.U64(img.devs.buffers_processed);
  w.U8(img.devs.driver_present);
  w.U64(img.devs.avail_idx);
  w.U64(img.devs.last_used);
  w.I32(img.devs.next_desc);
  w.U64(img.devs.kicks_sent);
  w.U64(img.devs.posts);
  w.EndSection();

  return w.Finish();
}

Status Serializer::Decode(const std::vector<uint8_t>& bytes, Image* out) {
  Image img;
  Reader r(bytes);
  uint32_t sections = 0;
  NEVE_RETURN_IF_ERROR(r.Header(&sections));
  if (sections != 9) {
    return Status::InvalidArgument("snapshot: wrong section count");
  }
  uint64_t n = 0;

  NEVE_RETURN_IF_ERROR(r.OpenSection(kSecMeta));
  NEVE_RETURN_IF_ERROR(GetMeta(r, &img.meta));
  NEVE_RETURN_IF_ERROR(r.CloseSection());

  NEVE_RETURN_IF_ERROR(r.OpenSection(kSecCpus));
  NEVE_RETURN_IF_ERROR(r.Count(&n, 64));
  img.cpus.resize(n);
  for (CpuImage& c : img.cpus) {
    NEVE_RETURN_IF_ERROR(GetCpu(r, &c));
  }
  NEVE_RETURN_IF_ERROR(r.CloseSection());

  NEVE_RETURN_IF_ERROR(r.OpenSection(kSecMem));
  NEVE_RETURN_IF_ERROR(r.Count(&n, 8 + kPageSize));
  img.mem.pages.resize(n);
  for (PageImage& p : img.mem.pages) {
    NEVE_RETURN_IF_ERROR(r.U64(&p.page_index));
    NEVE_RETURN_IF_ERROR(r.Bytes(p.data.data(), p.data.size()));
  }
  NEVE_RETURN_IF_ERROR(r.U64(&img.mem.host_pool_next));
  NEVE_RETURN_IF_ERROR(r.U64(&img.mem.next_guest_ram));
  NEVE_RETURN_IF_ERROR(r.CloseSection());

  NEVE_RETURN_IF_ERROR(r.OpenSection(kSecAttr));
  NEVE_RETURN_IF_ERROR(r.Count(&n, 16));
  img.attr.percpu.resize(n);
  for (AttrCpuImage& a : img.attr.percpu) {
    NEVE_RETURN_IF_ERROR(GetU64Vec(r, &a.stack));
    uint64_t nb = 0;
    NEVE_RETURN_IF_ERROR(r.Count(&nb, 16));
    a.buckets.resize(nb);
    for (auto& [key, cycles] : a.buckets) {
      NEVE_RETURN_IF_ERROR(r.U64(&key));
      NEVE_RETURN_IF_ERROR(r.U64(&cycles));
    }
  }
  NEVE_RETURN_IF_ERROR(r.Count(&n, 24));
  img.attr.flights.resize(n);
  for (FlightImage& f : img.attr.flights) {
    NEVE_RETURN_IF_ERROR(r.Str(&f.reason));
    NEVE_RETURN_IF_ERROR(r.U64(&f.cycles));
    uint64_t nb = 0;
    NEVE_RETURN_IF_ERROR(r.Count(&nb, 2 * 4 + 2 + 8));
    f.buckets.resize(nb);
    for (AttrBucketImage& b : f.buckets) {
      NEVE_RETURN_IF_ERROR(r.I32(&b.vm));
      NEVE_RETURN_IF_ERROR(r.I32(&b.vcpu));
      NEVE_RETURN_IF_ERROR(r.U8(&b.layer));
      NEVE_RETURN_IF_ERROR(r.U8(&b.cat));
      NEVE_RETURN_IF_ERROR(r.U64(&b.cycles));
    }
  }
  NEVE_RETURN_IF_ERROR(r.U64(&img.attr.flight_next));
  NEVE_RETURN_IF_ERROR(r.CloseSection());

  NEVE_RETURN_IF_ERROR(r.OpenSection(kSecFault));
  for (uint64_t& s : img.fault.rng_state) {
    NEVE_RETURN_IF_ERROR(r.U64(&s));
  }
  NEVE_RETURN_IF_ERROR(GetU64Vec(r, &img.fault.counts));
  NEVE_RETURN_IF_ERROR(r.Count(&n, 8 + 4 + 4 + 3 * 8));
  img.fault.log.resize(n);
  for (InjectionImage& rec : img.fault.log) {
    NEVE_RETURN_IF_ERROR(r.U64(&rec.seq));
    NEVE_RETURN_IF_ERROR(r.U32(&rec.point));
    NEVE_RETURN_IF_ERROR(r.I32(&rec.cpu));
    NEVE_RETURN_IF_ERROR(r.U64(&rec.cycles));
    NEVE_RETURN_IF_ERROR(r.U64(&rec.detail));
    NEVE_RETURN_IF_ERROR(r.U64(&rec.attr_key));
  }
  NEVE_RETURN_IF_ERROR(r.CloseSection());

  NEVE_RETURN_IF_ERROR(r.OpenSection(kSecGic));
  NEVE_RETURN_IF_ERROR(r.Count(&n, 8));
  img.gic.ack_info.resize(n);
  for (auto& row : img.gic.ack_info) {
    uint64_t nl = 0;
    NEVE_RETURN_IF_ERROR(r.Count(&nl, 17));
    row.resize(nl);
    for (LrAckImage& a : row) {
      NEVE_RETURN_IF_ERROR(r.U64(&a.ack_cycles));
      NEVE_RETURN_IF_ERROR(r.U64(&a.ack_trace_id));
      NEVE_RETURN_IF_ERROR(r.U8(&a.valid));
    }
  }
  NEVE_RETURN_IF_ERROR(GetU64Vec(r, &img.gic.virtual_acks));
  NEVE_RETURN_IF_ERROR(GetU64Vec(r, &img.gic.virtual_eois));
  NEVE_RETURN_IF_ERROR(r.CloseSection());

  NEVE_RETURN_IF_ERROR(r.OpenSection(kSecHost));
  NEVE_RETURN_IF_ERROR(r.Count(&n, 64));
  img.host.vms.resize(n);
  for (VmImage& v : img.host.vms) {
    NEVE_RETURN_IF_ERROR(GetVm(r, &v));
  }
  NEVE_RETURN_IF_ERROR(r.Count(&n, 64));
  img.host.pcpu.resize(n);
  for (PcpuImage& p : img.host.pcpu) {
    NEVE_RETURN_IF_ERROR(r.I32(&p.current_vm));
    NEVE_RETURN_IF_ERROR(r.I32(&p.current_vcpu));
    NEVE_RETURN_IF_ERROR(r.U8(&p.guest_loaded));
    NEVE_RETURN_IF_ERROR(r.I32(&p.lrs_loaded));
    NEVE_RETURN_IF_ERROR(GetEl1(r, &p.host_el1));
    NEVE_RETURN_IF_ERROR(GetExt(r, &p.host_ext));
    NEVE_RETURN_IF_ERROR(GetPmu(r, &p.host_pmu));
  }
  NEVE_RETURN_IF_ERROR(r.Count(&n, 8));
  img.host.vcpu_state.resize(n);
  for (auto& row : img.host.vcpu_state) {
    uint64_t nr = 0;
    NEVE_RETURN_IF_ERROR(r.Count(&nr, 64));
    row.resize(nr);
    for (VcpuHostStateImage& s : row) {
      NEVE_RETURN_IF_ERROR(GetVcpuHostState(r, &s));
    }
  }
  NEVE_RETURN_IF_ERROR(r.CloseSection());

  NEVE_RETURN_IF_ERROR(r.OpenSection(kSecGuest));
  NEVE_RETURN_IF_ERROR(r.U8(&img.guest.present));
  NEVE_RETURN_IF_ERROR(r.U64(&img.guest.table_alloc_next));
  NEVE_RETURN_IF_ERROR(r.U64(&img.guest.next_nested_ram));
  NEVE_RETURN_IF_ERROR(r.Count(&n, 64));
  img.guest.vms.resize(n);
  for (VmImage& v : img.guest.vms) {
    NEVE_RETURN_IF_ERROR(GetVm(r, &v));
  }
  NEVE_RETURN_IF_ERROR(r.Count(&n, 64));
  img.guest.pvcpu.resize(n);
  for (PvcpuImage& p : img.guest.pvcpu) {
    NEVE_RETURN_IF_ERROR(r.I32(&p.running_vm));
    NEVE_RETURN_IF_ERROR(r.I32(&p.running_vcpu));
    NEVE_RETURN_IF_ERROR(GetEl1(r, &p.kernel_el1));
    NEVE_RETURN_IF_ERROR(GetExt(r, &p.kernel_ext));
    NEVE_RETURN_IF_ERROR(GetTimer(r, &p.timer));
  }
  NEVE_RETURN_IF_ERROR(r.Count(&n, 8));
  img.guest.nstate.resize(n);
  for (auto& row : img.guest.nstate) {
    uint64_t nr = 0;
    NEVE_RETURN_IF_ERROR(r.Count(&nr, 64));
    row.resize(nr);
    for (NestedVcpuStateImage& s : row) {
      NEVE_RETURN_IF_ERROR(r.U8(&s.present));
      NEVE_RETURN_IF_ERROR(GetEl1(r, &s.el1));
      NEVE_RETURN_IF_ERROR(GetExt(r, &s.ext));
      NEVE_RETURN_IF_ERROR(GetPmu(r, &s.pmu));
      NEVE_RETURN_IF_ERROR(r.U64(&s.elr));
      NEVE_RETURN_IF_ERROR(r.U64(&s.spsr));
    }
  }
  NEVE_RETURN_IF_ERROR(r.CloseSection());

  NEVE_RETURN_IF_ERROR(r.OpenSection(kSecDevs));
  NEVE_RETURN_IF_ERROR(r.U8(&img.devs.device_present));
  NEVE_RETURN_IF_ERROR(r.U64(&img.devs.device_reads));
  NEVE_RETURN_IF_ERROR(r.U64(&img.devs.device_writes));
  NEVE_RETURN_IF_ERROR(r.U64(&img.devs.device_last_write));
  NEVE_RETURN_IF_ERROR(r.U8(&img.devs.backend_present));
  NEVE_RETURN_IF_ERROR(r.U64(&img.devs.last_avail));
  NEVE_RETURN_IF_ERROR(r.U64(&img.devs.busy_until));
  NEVE_RETURN_IF_ERROR(r.U64(&img.devs.kicks));
  NEVE_RETURN_IF_ERROR(r.U64(&img.devs.buffers_processed));
  NEVE_RETURN_IF_ERROR(r.U8(&img.devs.driver_present));
  NEVE_RETURN_IF_ERROR(r.U64(&img.devs.avail_idx));
  NEVE_RETURN_IF_ERROR(r.U64(&img.devs.last_used));
  NEVE_RETURN_IF_ERROR(r.I32(&img.devs.next_desc));
  NEVE_RETURN_IF_ERROR(r.U64(&img.devs.kicks_sent));
  NEVE_RETURN_IF_ERROR(r.U64(&img.devs.posts));
  NEVE_RETURN_IF_ERROR(r.CloseSection());

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
                                     const std::string& where) {
  if (vm.config_.name != img.name) {
    return Mismatch(where + ": vm name '" + vm.config_.name + "' vs '" +
                    img.name + "'");
  }
  if (vm.config_.num_vcpus != img.num_vcpus ||
      vm.num_vcpus() != static_cast<int>(img.vcpus.size())) {
    return Mismatch(where + ": vcpu count of '" + img.name + "'");
  }
  if (vm.config_.ram_size != img.ram_size) {
    return Mismatch(where + ": ram size of '" + img.name + "'");
  }
  if ((vm.config_.virtual_el2 ? 1 : 0) != img.virtual_el2 ||
      (vm.config_.expose_neve ? 1 : 0) != img.expose_neve ||
      (vm.config_.guest_vhe ? 1 : 0) != img.guest_vhe) {
    return Mismatch(where + ": virtualization config of '" + img.name + "'");
  }
  if (vm.id_ != img.id) {
    return Mismatch(where + ": vm id of '" + img.name + "'");
  }
  if (vm.ram_base_.value != img.ram_base) {
    return Mismatch(where + ": ram base of '" + img.name + "'");
  }
  if (vm.s2_.root().value != img.s2_root) {
    return Mismatch(where + ": stage-2 root of '" + img.name + "'");
  }
  for (int i = 0; i < vm.num_vcpus(); ++i) {
    Vcpu& vc = vm.vcpu(i);
    const VcpuImage& vi = img.vcpus[static_cast<size_t>(i)];
    if (vc.vncr_hw_page.value != vi.vncr_hw_page) {
      return Mismatch(where + ": VNCR page of '" + img.name + "'");
    }
    if (vc.deferred_vector.has_value()) {
      return Mismatch(where + ": restore target vcpu of '" + img.name +
                      "' holds a pending deferred vector call");
    }
    if (vi.vregs.size() != static_cast<size_t>(kNumRegIds)) {
      return Mismatch(where + ": vreg file size of '" + img.name + "'");
    }
  }
  return Status::Ok();
}

void Serializer::ApplyVmValues(Vm& vm, const VmImage& img) {
  vm.dead_ = img.dead != 0;
  vm.generation_ = img.generation;
  for (int i = 0; i < vm.num_vcpus(); ++i) {
    Vcpu& vc = vm.vcpu(i);
    const VcpuImage& vi = img.vcpus[static_cast<size_t>(i)];
    vc.mode = static_cast<VcpuMode>(vi.mode);
    vc.main_sw.started = vi.main_started != 0;
    vc.nested_sw.started = vi.nested_started != 0;
    vc.nested2_sw.started = vi.nested2_started != 0;
    vc.active_nested = vi.active_nested != 0 ? &vc.nested2_sw : &vc.nested_sw;
    vc.vel2_handler_active = vi.vel2_handler_active != 0;
    vc.parked = vi.parked != 0;
    vc.loaded_on_pcpu = vi.loaded_on_pcpu;
    vc.nested_is_hyp = vi.nested_is_hyp != 0;
    vc.nested_hcr = vi.nested_hcr;
    vc.deferred_vector_active = vi.deferred_vector_active != 0;
    vc.mmio_retry = vi.mmio_retry != 0;
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
  if (img.meta.feat_vhe != (mc.features.vhe ? 1 : 0) ||
      img.meta.feat_nv != (mc.features.nv ? 1 : 0) ||
      img.meta.feat_neve != (mc.features.neve ? 1 : 0) ||
      img.meta.feat_neve_deferred != (mc.features.neve_deferred ? 1 : 0) ||
      img.meta.feat_neve_redirect != (mc.features.neve_redirect ? 1 : 0) ||
      img.meta.feat_neve_cached != (mc.features.neve_cached ? 1 : 0)) {
    return Mismatch("architecture features");
  }
  if (img.meta.host_vhe != (h.config_.vhe ? 1 : 0) ||
      img.meta.host_use_neve != (h.config_.use_neve ? 1 : 0)) {
    return Mismatch("host hypervisor config");
  }
  if ((img.guest.present != 0) != (t.guest_hyp != nullptr)) {
    return Mismatch("guest hypervisor presence");
  }
  if ((img.devs.device_present != 0) != (t.device != nullptr) ||
      (img.devs.backend_present != 0) != (t.virtio_backend != nullptr) ||
      (img.devs.driver_present != 0) != (t.virtio_driver != nullptr)) {
    return Mismatch("device presence");
  }

  if (img.cpus.size() != static_cast<size_t>(m.num_cpus())) {
    return Mismatch("cpu count");
  }
  for (int i = 0; i < m.num_cpus(); ++i) {
    Cpu& c = m.cpu(i);
    const CpuImage& ci = img.cpus[static_cast<size_t>(i)];
    if (ci.el != static_cast<uint8_t>(c.el_)) {
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
  for (size_t i = 0; i < attr.percpu_.size(); ++i) {
    if (img.attr.percpu[i].stack != attr.percpu_[i].stack) {
      return Mismatch("attribution frame stack of cpu " + std::to_string(i));
    }
    if (img.attr.percpu[i].stack.empty()) {
      return Mismatch("attribution frame stack of cpu " + std::to_string(i) +
                      " is empty");
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
    NEVE_RETURN_IF_ERROR(
        ApplyVmStructural(*h.vms_[i], img.host.vms[i], "host"));
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
      NEVE_RETURN_IF_ERROR(
          ApplyVmStructural(*gk->vms_[i], img.guest.vms[i], "guest"));
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
      if (si.present != 0) {
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
        if (si.present != 0) {
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
    c.trap_tlbi_ = ci.trap_tlbi != 0;
    CpuTrace& tr = c.trace_;
    tr.record_details_ = ci.record_details != 0;
    tr.traps_to_el2_ = ci.traps_to_el2;
    tr.hvc_traps_ = ci.hvc_traps;
    tr.sysreg_traps_ = ci.sysreg_traps;
    tr.eret_traps_ = ci.eret_traps;
    tr.abort_traps_ = ci.abort_traps;
    tr.irq_exits_ = ci.irq_exits;
    tr.records_.clear();
    for (const TrapRecordImage& ri : ci.records) {
      tr.records_.push_back({.sequence = ri.sequence,
                             .syndrome = SyndromeFrom(ri.syndrome),
                             .cycles_at_entry = ri.cycles_at_entry});
    }
    std::copy(ci.cycles_by_class.begin(), ci.cycles_by_class.end(),
              tr.cycles_by_class_.begin());
    c.tlb_.clear();
    for (const TlbEntryImage& te : ci.tlb) {
      c.tlb_[Cpu::TlbKey{.va_page = te.va_page,
                         .s1_root = te.s1_root,
                         .s2_root = te.s2_root}] =
          Cpu::TlbEntry{.pa_page = te.pa_page, .writable = te.writable != 0};
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
                           .valid = a.valid != 0};
    }
  }
  g.virtual_acks_ = img.gic.virtual_acks;
  g.virtual_eois_ = img.gic.virtual_eois;

  FaultInjector& f = m.fault_;
  for (size_t i = 0; i < 4; ++i) {
    f.rng_.state_[i] = img.fault.rng_state[i];
  }
  std::copy(img.fault.counts.begin(), img.fault.counts.end(), f.counts_);
  f.log_.clear();
  for (const InjectionImage& rec : img.fault.log) {
    f.log_.push_back({.seq = rec.seq,
                      .point = static_cast<FaultPoint>(rec.point),
                      .cpu = rec.cpu,
                      .cycles = rec.cycles,
                      .detail = rec.detail,
                      .attr_key = rec.attr_key});
  }

  for (size_t i = 0; i < h.vms_.size(); ++i) {
    ApplyVmValues(*h.vms_[i], img.host.vms[i]);
  }
  for (size_t i = 0; i < h.pcpu_.size(); ++i) {
    const PcpuImage& pi = img.host.pcpu[i];
    HostKvm::PcpuState& ps = h.pcpu_[i];
    // ps.current was verified identical above and is left alone.
    ps.guest_loaded = pi.guest_loaded != 0;
    ps.lrs_loaded = pi.lrs_loaded;
    FromImage(pi.host_el1, &ps.host_el1);
    FromImage(pi.host_ext, &ps.host_ext);
    FromImage(pi.host_pmu, &ps.host_pmu);
  }
  for (size_t i = 0; i < h.vms_.size(); ++i) {
    Vm& vm = *h.vms_[i];
    for (int j = 0; j < vm.num_vcpus(); ++j) {
      const VcpuHostStateImage& si =
          img.host.vcpu_state[i][static_cast<size_t>(j)];
      if (si.present == 0) {
        continue;
      }
      HostKvm::VcpuHostState& hs = *h.vcpu_state_.at(&vm.vcpu(j));
      FromImage(si.cur_el1, &hs.cur_el1);
      FromImage(si.vel2_exec, &hs.vel2_exec);
      FromImage(si.ext, &hs.ext);
      FromImage(si.pmu, &hs.pmu);
      hs.elr = si.elr;
      hs.spsr = si.spsr;
      FromImage(si.timer, &hs.timer);
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
      FromImage(pi.kernel_el1, &ps.kernel_el1);
      FromImage(pi.kernel_ext, &ps.kernel_ext);
      FromImage(pi.timer, &ps.timer);
    }
    MutexLock lock(gk->nstate_mu_);
    for (size_t i = 0; i < gk->vms_.size(); ++i) {
      Vm& vm = *gk->vms_[i];
      for (int j = 0; j < vm.num_vcpus(); ++j) {
        const NestedVcpuStateImage& si =
            img.guest.nstate[i][static_cast<size_t>(j)];
        if (si.present == 0) {
          continue;
        }
        GuestKvm::NestedVcpuState& ns = *gk->nstate_.at(&vm.vcpu(j));
        FromImage(si.el1, &ns.el1);
        FromImage(si.ext, &ns.ext);
        FromImage(si.pmu, &ns.pmu);
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
    attr.flights_.clear();
    for (const FlightImage& fi : img.attr.flights) {
      CycleAttribution::FlightRecord fr;
      fr.reason = fi.reason;
      fr.cycles = fi.cycles;
      for (const AttrBucketImage& b : fi.buckets) {
        fr.buckets.push_back({.vm = b.vm,
                              .vcpu = b.vcpu,
                              .layer = static_cast<AttrLayer>(b.layer),
                              .cat = static_cast<AttrCat>(b.cat),
                              .cycles = b.cycles});
      }
      attr.flights_.push_back(std::move(fr));
    }
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

Status Serializer::ApplyBytes(const SnapTargets& t,
                              const std::vector<uint8_t>& bytes) {
  Image img;
  NEVE_RETURN_IF_ERROR(Decode(bytes, &img));
  return Apply(t, img);
}

}  // namespace snap
}  // namespace neve
