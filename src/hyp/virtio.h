// Paravirtualized I/O: a split virtqueue with notification suppression.
//
// The paper's application results hinge on virtio's notification dynamics
// (section 7.2): the frontend driver kicks the backend through a doorbell
// (an MMIO write -> VM exit); while the backend is busy it sets
// VRING_USED_F_NO_NOTIFY in the used ring, telling the frontend to keep
// posting without kicking; once drained it re-enables notifications. The
// faster the backend, the sooner notifications re-enable and the more exits
// the frontend takes -- the anomaly that makes Memcached on x86 take "more
// than four times as many exits" as on NEVE despite faster hardware.
//
// The ring lives in real guest memory: the frontend accesses it through the
// guest's translated, cycle-charged loads/stores; the backend through the
// hypervisor's view of guest-physical space.
//
// Ring layout at `ring_base` (queue size 16, packed for the simulator's
// 64-bit accessors):
//   +0x000  descriptor table   16 x {addr u64, len u64}
//   +0x100  avail.idx          u64
//   +0x108  avail.ring[16]     u64 each (descriptor index)
//   +0x188  used.flags         u64 (bit 0 = NO_NOTIFY)
//   +0x190  used.idx           u64
//   +0x198  used.ring[16]      u64 each (descriptor index)

#ifndef NEVE_SRC_HYP_VIRTIO_H_
#define NEVE_SRC_HYP_VIRTIO_H_

#include <cstdint>

#include "src/base/mutex.h"
#include "src/base/thread_annotations.h"
#include "src/hyp/devices.h"
#include "src/hyp/guest_env.h"
#include "src/mem/mem_io.h"

namespace neve {

class FaultInjector;

namespace snap {
class Serializer;  // src/snap: serializes ring cursors and backend clocks
}  // namespace snap

struct VringLayout {
  static constexpr int kQueueSize = 16;
  static constexpr uint64_t kDescTable = 0x000;
  static constexpr uint64_t kDescStride = 16;
  static constexpr uint64_t kAvailIdx = 0x100;
  static constexpr uint64_t kAvailRing = 0x108;
  static constexpr uint64_t kUsedFlags = 0x188;
  static constexpr uint64_t kUsedIdx = 0x190;
  static constexpr uint64_t kUsedRing = 0x198;
  static constexpr uint64_t kNoNotify = 1;  // used.flags bit

  static constexpr uint64_t DescAddr(int i) {
    return kDescTable + static_cast<uint64_t>(i) * kDescStride;
  }
  static constexpr uint64_t DescLen(int i) { return DescAddr(i) + 8; }
  static constexpr uint64_t AvailSlot(int i) {
    return kAvailRing + static_cast<uint64_t>(i) * 8;
  }
  static constexpr uint64_t UsedSlot(int i) {
    return kUsedRing + static_cast<uint64_t>(i) * 8;
  }
};

// Backend half: owned by the hypervisor emulating the device. Registered as
// the MMIO device for the doorbell page; a doorbell write is the kick.
class VirtioBackend : public MmioDevice {
 public:
  // `guest_mem` is the backend's view of the frontend's physical space;
  // `ring_base` the ring's address there. `per_buffer_cycles` models how
  // fast the backend drains one buffer -- the knob behind the paper's
  // "faster backend => more notifications" anomaly.
  VirtioBackend(MemIo* guest_mem, Pa ring_base, uint32_t per_buffer_cycles);

  // MmioDevice: the doorbell register (offset 0) receives kicks.
  uint64_t MmioRead(Cpu& cpu, uint64_t offset) override;
  void MmioWrite(Cpu& cpu, uint64_t offset, uint64_t value)
      EXCLUDES(ring_mu_) override;

  // Drains available buffers into the used ring. Processing time accrues on
  // the backend thread's own clock (`busy_until`), modeling the vhost
  // thread running concurrently with the guest. Returns buffers processed.
  int ProcessAvail(Cpu& cpu) EXCLUDES(ring_mu_);

  // Scheduling point of the backend's thread (called by the machine/harness
  // between guest operations): picks up buffers posted without a kick and,
  // once the thread has drained everything and caught up with `now`,
  // re-enables notifications in the used ring.
  void Poll(uint64_t now_cycles) EXCLUDES(ring_mu_);

  // True while the backend's thread is still working at `now`: posts
  // arriving before this need no kick.
  bool BusyAt(uint64_t now_cycles) const EXCLUDES(ring_mu_) {
    MutexLock lock(ring_mu_);
    return now_cycles < state_.busy_until;
  }

  // Machine-wide fault injector (kVirtioRingCorruption: a kick may tear the
  // used.idx the frontend reads). May stay null.
  void SetFaultInjector(FaultInjector* fault) { fault_ = fault; }

  uint64_t kicks() const EXCLUDES(ring_mu_) {
    MutexLock lock(ring_mu_);
    return state_.kicks;
  }
  uint64_t buffers_processed() const EXCLUDES(ring_mu_) {
    MutexLock lock(ring_mu_);
    return state_.buffers_processed;
  }
  uint64_t busy_until() const EXCLUDES(ring_mu_) {
    MutexLock lock(ring_mu_);
    return state_.busy_until;
  }

  // The ring cursor and work clock, which a snapshot carries whole
  // (src/snap).
  struct State {
    uint64_t last_avail = 0;
    uint64_t busy_until = 0;
    uint64_t kicks = 0;
    uint64_t buffers_processed = 0;
    bool operator==(const State&) const = default;
  };

 private:
  uint64_t Read(uint64_t off) const {
    return guest_mem_->Read64(Pa(ring_base_.value + off));
  }
  void Write(uint64_t off, uint64_t v) {
    guest_mem_->Write64(Pa(ring_base_.value + off), v);
  }
  int ProcessAvailLocked(Cpu& cpu) REQUIRES(ring_mu_);
  void ProcessAvailOnThread() REQUIRES(ring_mu_);

  friend class snap::Serializer;

  MemIo* guest_mem_;  // not-snapshotted: host wiring
  Pa ring_base_;      // not-snapshotted: fixed at construction, verified
  FaultInjector* fault_ = nullptr;  // not-snapshotted: host wiring
  uint32_t per_buffer_cycles_;      // not-snapshotted: fixed at construction
  // The backend's ring cursor and work clock: in the SMP future a vhost
  // host-thread drains the ring while vCPU threads kick it, so the shared
  // cursor state is mutex-guarded now (uncontended while each Machine has a
  // single mutator). The ring *contents* live in guest memory and follow
  // the guest's own memory model, not this lock.
  mutable Mutex ring_mu_{"hyp.virtio_ring"};
  State state_ GUARDED_BY(ring_mu_);
};

// Frontend half: the guest's driver. All ring traffic goes through the
// guest's own (translated, cycle-charged) memory operations.
class VirtioDriver {
 public:
  // `ring_base`/`doorbell` are guest virtual(=physical) addresses; the
  // doorbell must sit in an MMIO region backed by the VirtioBackend.
  VirtioDriver(Va ring_base, Va doorbell);

  // Zeroes the ring indices (guest-side init).
  void Init(GuestEnv& env);

  // Posts one buffer. Kicks the doorbell unless the backend suppressed
  // notifications (used.flags NO_NOTIFY). Returns true when a kick (and so
  // a VM exit) was taken -- the measurable quantity of section 7.2.
  bool SendBuffer(GuestEnv& env, uint64_t addr, uint64_t len);

  // Reaps completed buffers from the used ring; returns how many.
  int ReapUsed(GuestEnv& env);

  uint64_t kicks_sent() const { return state_.kicks_sent; }
  uint64_t posts() const { return state_.posts; }

  // The ring cursors and counters, which a snapshot carries whole
  // (src/snap).
  struct State {
    uint64_t avail_idx = 0;
    uint64_t last_used = 0;
    int next_desc = 0;
    uint64_t kicks_sent = 0;
    uint64_t posts = 0;
    bool operator==(const State&) const = default;
  };

 private:
  friend class snap::Serializer;

  Va base_;      // not-snapshotted: fixed at construction, verified
  Va doorbell_;  // not-snapshotted: fixed at construction, verified
  State state_;  // single-mutator: snap restore runs quiesced
};

}  // namespace neve

#endif  // NEVE_SRC_HYP_VIRTIO_H_
