// Crash-consistent checkpoint/restore of a whole simulated stack.
//
// The snapshot covers everything ArchStateDigest covers *plus* the software
// state the hypervisor layers keep: CPU register files and cycle clocks, trap
// traces and TLBs, the resident physical page set (which transitively holds
// every page table, shadow table, VNCR deferred page and guest RAM byte),
// allocator cursors, vCPU contexts at both hypervisor levels, vGIC
// bookkeeping, virtio ring cursors, device counters, the fault injector's RNG
// stream and log, and the cycle-attribution shards. Restoring into a stack
// that was rebuilt to the same structural point and continuing the run is
// bit-identical -- digest, trap counts and attribution buckets -- to the
// uninterrupted control run (tests/snap_test.cc proves it per config).
//
// Restore protocol: a snapshot does not serialize the C++ call stack (which
// mirrors the privilege stack by construction), so Apply() must run at a
// *structurally identical* point -- same boot sequence, same nesting depth,
// same attribution frame stack -- reached by replaying the deterministic
// boot. Apply verifies the structural invariants (configs, roots, frame
// stacks, loaded-vcpu identity) and returns an error Status instead of
// mutating anything when they do not hold; migration uses exactly that
// contract to roll back on a corrupt stream.
//
// Determinism caveat: physical addresses handed out by PageAllocator depend
// on lane interleaving (phys_mem.h), so byte-identical capture -- and thus
// restore -- is guaranteed only for runs whose SMP lanes execute on one host
// thread (threads=1), where allocation order is logical, not scheduled.

#ifndef NEVE_SRC_SNAP_SNAPSHOT_H_
#define NEVE_SRC_SNAP_SNAPSHOT_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/arch/el.h"
#include "src/arch/features.h"
#include "src/base/status.h"
#include "src/cpu/trace.h"
#include "src/fault/fault.h"
#include "src/hyp/host_kvm.h"
#include "src/hyp/vm.h"
#include "src/hyp/world_switch.h"
#include "src/mem/addr.h"
#include "src/obs/attr.h"

namespace neve {

class GuestKvm;
class VirtioBackend;
class VirtioDriver;

namespace snap {

// Everything a snapshot reads or writes. machine and host are required; the
// rest are present on the stacks that have them (nested stacks carry a guest
// hypervisor, workload harnesses a test device and/or a virtio pair).
struct SnapTargets {
  Machine* machine = nullptr;
  HostKvm* host = nullptr;
  GuestKvm* guest_hyp = nullptr;
  TestDevice* device = nullptr;
  VirtioBackend* virtio_backend = nullptr;
  VirtioDriver* virtio_driver = nullptr;
};

// ---------------------------------------------------------------------------
// The in-memory image: pure data, decoded in full before any machine
// mutation. Where the simulator keeps a field in a public plain struct
// (contexts, trap records, fault-log entries, attribution buckets and flight
// records, construction configs), the image holds that struct; the *Image
// types mirror state the simulator keeps private. Field names mirror the
// `member_` fields they serialize; the snapshot-coverage lint keys on those
// tokens appearing in src/snap sources.
// ---------------------------------------------------------------------------

struct TlbEntryImage {
  uint64_t va_page = 0;
  uint64_t s1_root = 0;
  uint64_t s2_root = 0;
  uint64_t pa_page = 0;
  bool writable = false;
};

struct CpuImage {
  El el = El::kEl0;    // verified structurally, never overwritten
  int trap_depth = 0;  // verified structurally, never overwritten
  uint64_t cycles = 0;
  std::vector<uint64_t> regs;  // kNumRegIds entries
  uint64_t watchdog_deadline = 0;
  bool trap_tlbi = false;
  bool record_details = false;
  uint64_t traps_to_el2 = 0;
  uint64_t hvc_traps = 0;
  uint64_t sysreg_traps = 0;
  uint64_t eret_traps = 0;
  uint64_t abort_traps = 0;
  uint64_t irq_exits = 0;
  std::vector<TrapRecord> records;
  std::vector<uint64_t> cycles_by_class;
  std::vector<TlbEntryImage> tlb;  // sorted by (va_page, s1_root, s2_root)
};

struct PageImage {
  uint64_t page_index = 0;
  std::array<uint8_t, kPageSize> data{};
};

struct MemImage {
  std::vector<PageImage> pages;  // sorted by page_index; the full resident set
  uint64_t host_pool_next = 0;   // PageAllocator cursor (machine host pool)
  uint64_t next_guest_ram = 0;   // Machine guest-RAM carve-out cursor
};

struct AttrCpuImage {
  std::vector<uint64_t> stack;  // packed frame keys; verified, not overwritten
  // This CPU's bucket shard, sorted by key for wire determinism.
  std::vector<std::pair<uint64_t, uint64_t>> buckets;
};

struct AttrImage {
  std::vector<AttrCpuImage> percpu;
  std::vector<CycleAttribution::FlightRecord> flights;
  uint64_t flight_next = 0;
};

struct FaultImage {
  std::array<uint64_t, 4> rng_state{};
  std::vector<uint64_t> counts;  // kNumFaultPoints entries
  std::vector<InjectionRecord> log;
};

struct LrAckImage {
  uint64_t ack_cycles = 0;
  uint64_t ack_trace_id = 0;
  bool valid = false;
};

struct GicImage {
  std::vector<std::vector<LrAckImage>> ack_info;  // [cpu][list register]
  std::vector<uint64_t> virtual_acks;             // per-CPU shards
  std::vector<uint64_t> virtual_eois;
};

struct ShadowImage {
  uint64_t vvttbr = 0;  // the map key
  uint64_t root = 0;
  uint64_t faults_handled = 0;
  uint64_t flushes = 0;
  uint64_t installed = 0;
  uint64_t virtual_faults = 0;
  uint64_t host_faults = 0;
};

struct VcpuImage {
  VcpuMode mode = VcpuMode::kGuest;
  bool main_started = false;
  bool nested_started = false;
  bool nested2_started = false;
  bool active_nested = false;  // false = nested_sw, true = nested2_sw
  bool vel2_handler_active = false;
  bool parked = false;
  int loaded_on_pcpu = -1;
  bool nested_is_hyp = false;
  uint64_t nested_hcr = 0;
  bool deferred_vector_active = false;
  bool mmio_retry = false;
  std::vector<ShadowImage> shadows;  // sorted by vvttbr (std::map order)
  uint64_t vncr_hw_page = 0;         // verified structurally
  std::vector<uint32_t> pending_virq;
  uint64_t virqs_enqueued = 0;
  uint64_t mmio_result = 0;
  uint64_t exits = 0;
  uint64_t vel2_deliveries = 0;
  std::vector<uint64_t> vregs;  // kNumRegIds entries
};

struct VmImage {
  // Structural (verified): the restore target must have created an identical
  // VM through the same deterministic boot.
  VmConfig config;
  int id = -1;
  uint64_t ram_base = 0;
  uint64_t s2_root = 0;
  // Value state (overwritten).
  bool dead = false;
  uint64_t generation = 0;
  std::vector<VcpuImage> vcpus;
};

struct VcpuHostStateImage {
  bool present = false;  // the host creates these lazily; absent stays absent
  El1Context cur_el1;
  El1Context vel2_exec;
  ExtEl1Context ext;
  PmuDebugContext pmu;
  uint64_t elr = 0;
  uint64_t spsr = 0;
  TimerContext timer;
  uint64_t cntvoff = 0;
};

struct PcpuImage {
  int current_vm = -1;  // (vm index, vcpu id); verified against target
  int current_vcpu = -1;
  bool guest_loaded = false;
  int lrs_loaded = 0;
  El1Context host_el1;
  ExtEl1Context host_ext;
  PmuDebugContext host_pmu;
};

struct HostImage {
  std::vector<VmImage> vms;
  std::vector<PcpuImage> pcpu;
  // Host-side per-vcpu contexts, indexed [vm][vcpu] over the vms above.
  std::vector<std::vector<VcpuHostStateImage>> vcpu_state;
};

struct NestedVcpuStateImage {
  bool present = false;
  El1Context el1;
  ExtEl1Context ext;
  PmuDebugContext pmu;
  uint64_t elr = 0;
  uint64_t spsr = 0;
};

struct PvcpuImage {
  int running_vm = -1;  // nested (vm index, vcpu id); verified
  int running_vcpu = -1;
  El1Context kernel_el1;
  ExtEl1Context kernel_ext;
  TimerContext timer;
};

struct GuestImage {
  bool present = false;  // nested stacks only
  uint64_t table_alloc_next = 0;
  uint64_t next_nested_ram = 0;
  std::vector<VmImage> vms;
  std::vector<PvcpuImage> pvcpu;
  std::vector<std::vector<NestedVcpuStateImage>> nstate;  // [vm][vcpu]
};

struct DevImage {
  bool device_present = false;
  uint64_t device_reads = 0;
  uint64_t device_writes = 0;
  uint64_t device_last_write = 0;
  bool backend_present = false;
  uint64_t last_avail = 0;
  uint64_t busy_until = 0;
  uint64_t kicks = 0;
  uint64_t buffers_processed = 0;
  bool driver_present = false;
  uint64_t avail_idx = 0;
  uint64_t last_used = 0;
  int next_desc = 0;
  uint64_t kicks_sent = 0;
  uint64_t posts = 0;
};

struct MetaImage {
  // Machine and host construction parameters; Apply verifies them against
  // the target.
  int num_cpus = 1;
  uint64_t ram_size = 0;
  uint64_t host_pool_size = 0;
  uint64_t cycles_per_timer_tick = 0;
  uint64_t ipi_wire_latency = 0;
  ArchFeatures features;
  HostKvmConfig host;
};

struct Image {
  MetaImage meta;
  std::vector<CpuImage> cpus;
  MemImage mem;
  AttrImage attr;
  FaultImage fault;
  GicImage gic;
  HostImage host;
  GuestImage guest;
  DevImage devs;
};

// ---------------------------------------------------------------------------
// The serializer. All four operations are static and stateless; every
// private-field access in the whole snapshot subsystem is concentrated in
// this class's implementation (src/snap/snapshot.cc), which is what the
// `friend class snap::Serializer` declarations across the tree license.
// ---------------------------------------------------------------------------

class Serializer {
 public:
  // Reads the live stack into an Image. Host-side: takes the layer mutexes,
  // charges no cycles, perturbs nothing -- a capture is a no-op for the
  // captured run. Fails (without partial output) when the stack holds state
  // the format does not cover yet (live recursive-nesting RecState, a
  // pending deferred vector call).
  static Status Capture(const SnapTargets& t, Image* out);

  // Byte-deterministic encoding: same Image -> same bytes, always.
  static std::vector<uint8_t> Encode(const Image& img);

  // Parses and validates a stream. Truncation, or a count larger than the
  // rest of the payload -> OutOfRange; corruption (magic, version, tags,
  // section digests, unconsumed payload, trailing bytes) -> InvalidArgument.
  // No machine is touched -- decode is pure.
  static Status Decode(const std::vector<uint8_t>& bytes, Image* out);

  // Two-phase apply: verifies every structural invariant first (configs,
  // table roots, frame stacks, loaded-vcpu identity -- any mismatch is an
  // error Status, never a Panic) and every restored value the target later
  // uses as an index (InvalidArgument when out of range), then mutates in
  // dependency order: shadow object reconstruction, physical page rewrite,
  // allocator cursors, value pokes, attribution rebuild. On a verification
  // error the target may have been left untouched or partially verified but
  // never partially written.
  static Status Apply(const SnapTargets& t, const Image& img);

  // Capture, then Encode.
  static Status CaptureBytes(const SnapTargets& t, std::vector<uint8_t>* out);

 private:
  // The per-VM parts of Capture and Apply, shared by the host's and the guest
  // hypervisor's VMs. They are members because they read and write Vm's
  // private fields.
  static Status CaptureVm(Vm& vm, VmImage* out);
  static Status ApplyVmStructural(Vm& vm, const VmImage& img,
                                  const std::string& where, size_t num_pcpus);
  static void ApplyVmValues(Vm& vm, const VmImage& img);
};

}  // namespace snap
}  // namespace neve

#endif  // NEVE_SRC_SNAP_SNAPSHOT_H_
