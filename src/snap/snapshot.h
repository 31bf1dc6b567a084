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
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/arch/el.h"
#include "src/arch/features.h"
#include "src/base/status.h"
#include "src/cpu/cpu.h"
#include "src/cpu/trace.h"
#include "src/fault/fault.h"
#include "src/gic/gic.h"
#include "src/hyp/devices.h"
#include "src/hyp/guest_kvm.h"
#include "src/hyp/host_kvm.h"
#include "src/hyp/virtio.h"
#include "src/hyp/vm.h"
#include "src/mem/phys_mem.h"
#include "src/mem/shadow_s2.h"
#include "src/obs/attr.h"

namespace neve {
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
// mutation. It holds the simulator's own structs wherever the simulator
// keeps the persisted values in one: contexts, trap traces and records,
// TLB entries, pages, fault-log entries, attribution buckets and flight
// records, GIC ack rows, shadow and device counters, vCPU run state and
// construction configs. Each such struct's field list -- the one place
// besides its declaration that names a field -- is its `Visit` in
// snapshot.cc, or, for a class whose fields are private (CpuTrace,
// TrapRecord), its `SnapFields` member next to the declarations. The
// remaining fields below name the private `member_` fields they carry; the
// snapshot-coverage lint reads both the SnapFields lists and the src/snap
// mentions. Every type has a defaulted operator==, so an image survives an
// Encode/Decode round trip equal (tests/snap_test.cc checks it).
// ---------------------------------------------------------------------------

struct CpuImage {
  El el = El::kEl0;    // verified structurally, never overwritten
  int trap_depth = 0;  // verified structurally, never overwritten
  uint64_t cycles = 0;
  std::array<uint64_t, kNumRegIds> regs{};
  uint64_t watchdog_deadline = 0;
  bool trap_tlbi = false;
  CpuTrace trace;
  std::vector<std::pair<Cpu::TlbKey, Cpu::TlbEntry>> tlb;  // sorted by key
  bool operator==(const CpuImage&) const = default;
};

struct MemImage {
  std::vector<PageCopy> pages;  // sorted by page_index; the full resident set
  uint64_t host_pool_next = 0;  // PageAllocator cursor (machine host pool)
  uint64_t next_guest_ram = 0;  // Machine guest-RAM carve-out cursor
  bool operator==(const MemImage&) const = default;
};

struct AttrCpuImage {
  std::vector<uint64_t> stack;  // packed frame keys; verified, not overwritten
  // This CPU's (key, cycles) rows: the cells on its frame stack plus every
  // nonzero cell, sorted by key. Keys, not cell indices, travel: restore
  // looks each cell up by key.
  std::vector<std::pair<uint64_t, uint64_t>> buckets;
  bool operator==(const AttrCpuImage&) const = default;
};

struct AttrImage {
  std::vector<AttrCpuImage> percpu;
  std::vector<CycleAttribution::FlightRecord> flights;
  uint64_t flight_next = 0;
  bool operator==(const AttrImage&) const = default;
};

struct FaultImage {
  std::array<uint64_t, 4> rng_state{};
  std::array<uint64_t, kNumFaultPoints> counts{};
  std::vector<InjectionRecord> log;
  bool operator==(const FaultImage&) const = default;
};

struct GicImage {
  // [cpu][list register]
  std::vector<std::array<GicV3::LrAckInfo, GicV3::kNumListRegs>> ack_info;
  std::vector<uint64_t> virtual_acks;  // per-CPU shards
  std::vector<uint64_t> virtual_eois;
  bool operator==(const GicImage&) const = default;
};

struct ShadowImage {
  uint64_t vvttbr = 0;  // the map key
  uint64_t root = 0;
  ShadowS2::Counters counters;
  bool operator==(const ShadowImage&) const = default;
};

struct VcpuImage {
  VcpuRunState run;
  bool main_started = false;  // the software slots' started bits
  bool nested_started = false;
  bool nested2_started = false;
  bool active_nested = false;  // false = nested_sw, true = nested2_sw
  std::vector<ShadowImage> shadows;  // sorted by vvttbr (std::map order)
  uint64_t vncr_hw_page = 0;         // verified structurally
  std::vector<uint32_t> pending_virq;
  std::array<uint64_t, kNumRegIds> vregs{};
  bool operator==(const VcpuImage&) const = default;
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
  bool operator==(const VmImage&) const = default;
};

// One (v)CPU slot of a hypervisor level: the vCPU loaded on it as (vm
// index, vcpu id), verified against the target, and the context that
// travels.
template <class Context>
struct SlotImage {
  int vm = -1;
  int vcpu = -1;
  Context ctx;
  bool operator==(const SlotImage&) const = default;
};

// What the host and the guest hypervisor have alike: VMs, (v)CPU slots, and
// per-vCPU state that the level creates on first use, indexed [vm][vcpu]
// over `vms` (absent stays absent on restore).
template <class Context, class VcpuState>
struct LevelImage {
  std::vector<VmImage> vms;
  std::vector<SlotImage<Context>> slots;
  std::vector<std::vector<std::optional<VcpuState>>> vcpu_state;
  bool operator==(const LevelImage&) const = default;
};

using HostImage = LevelImage<HostKvm::PcpuContext, HostKvm::VcpuHostState>;

struct GuestImage
    : LevelImage<GuestKvm::PvcpuContext, GuestKvm::NestedContext> {
  uint64_t table_alloc_next = 0;
  uint64_t next_nested_ram = 0;
  bool operator==(const GuestImage&) const = default;
};

struct DevImage {
  std::optional<TestDevice::State> device;
  std::optional<VirtioBackend::State> backend;
  std::optional<VirtioDriver::State> driver;
  bool operator==(const DevImage&) const = default;
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
  bool operator==(const MetaImage&) const = default;
};

struct Image {
  MetaImage meta;
  std::vector<CpuImage> cpus;
  MemImage mem;
  AttrImage attr;
  FaultImage fault;
  GicImage gic;
  HostImage host;
  std::optional<GuestImage> guest;  // nested stacks only
  DevImage devs;
  bool operator==(const Image&) const = default;
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
  // uses as an index or a physical page (InvalidArgument when out of
  // range), then mutates in dependency order: shadow object reconstruction
  // (a ShadowS2 allocates a simulated root page), physical page rewrite,
  // allocator cursors, values (per-vCPU state slots are created and dropped
  // here: they allocate no simulated page), attribution rebuild. Sizes of
  // fixed-size fields need no check: their std::array types hold them, and
  // Decode rejects a stream with any other count. On a verification error
  // the target may have been left untouched or partially verified but never
  // partially written.
  static Status Apply(const SnapTargets& t, const Image& img);

  // Capture, then Encode.
  static Status CaptureBytes(const SnapTargets& t, std::vector<uint8_t>* out);

 private:
  // The VM parts of Capture and Apply, shared by the host's and the guest
  // hypervisor's VMs. They are members because they read and write Vm's
  // private fields.
  using Vms = std::vector<std::unique_ptr<Vm>>;
  static Status CaptureVms(const Vms& vms, std::vector<VmImage>* out);
  static Status VerifyVms(const Vms& vms, const std::vector<VmImage>& img,
                          const std::string& where, size_t num_slots);
  static void ApplyVms(const Vms& vms, const std::vector<VmImage>& img);
};

}  // namespace snap
}  // namespace neve

#endif  // NEVE_SRC_SNAP_SNAPSHOT_H_
