#include "src/hyp/virtio.h"

#include <algorithm>

#include "src/base/status.h"
#include "src/fault/fault.h"
#include "src/fault/guest_fault.h"
#include "src/hyp/world_switch.h"

namespace neve {

using L = VringLayout;

// ---------------------------------------------------------------------------
// Backend
// ---------------------------------------------------------------------------

VirtioBackend::VirtioBackend(MemIo* guest_mem, Pa ring_base,
                             uint32_t per_buffer_cycles)
    : guest_mem_(guest_mem),
      ring_base_(ring_base),
      per_buffer_cycles_(per_buffer_cycles) {
  // host-invariant: backend wiring is host/embedder construction code.
  NEVE_CHECK(guest_mem != nullptr);
}

uint64_t VirtioBackend::MmioRead(Cpu& cpu, uint64_t offset) {
  cpu.Compute(SwCost::kMmioDispatch);
  (void)offset;
  return 0;  // device status: ready
}

void VirtioBackend::MmioWrite(Cpu& cpu, uint64_t offset, uint64_t value) {
  // The kick: wakes the backend (vhost) thread. The kicker pays for the
  // exit and dispatch; the buffer processing runs on the backend's own
  // clock, concurrently with the guest.
  (void)offset;
  (void)value;
  MutexLock lock(ring_mu_);
  ++state_.kicks;
  ScopedSpan span(cpu.obs(), cpu, "virtio", "kick");
  if (ObsActive(cpu.obs())) {
    cpu.obs()->metrics().Counter("virtio.kicks").Add(1);
  }
  cpu.Compute(SwCost::kMmioDispatch);
  state_.busy_until = std::max(state_.busy_until, cpu.cycles());
  // Busy window opens: suppress further notifications ("while the backend
  // driver is busy, it tells the frontend it can continue to send packets
  // without further notification", section 7.2).
  Write(L::kUsedFlags, L::kNoNotify);
  ProcessAvailLocked(cpu);
  // Injected ring corruption: the used.idx update tears (as a non-atomic
  // 64-bit store racing the frontend would), leaving an index further ahead
  // than the queue can hold. The frontend's ReapUsed detects it.
  if (FaultActive(fault_) &&
      fault_->ShouldInject(FaultPoint::kVirtioRingCorruption, cpu.index(),
                           cpu.cycles(), state_.kicks)) {
    Write(L::kUsedIdx, Read(L::kUsedIdx) + L::kQueueSize + 7);
  }
}

int VirtioBackend::ProcessAvail(Cpu& cpu) {
  MutexLock lock(ring_mu_);
  return ProcessAvailLocked(cpu);
}

int VirtioBackend::ProcessAvailLocked(Cpu& cpu) {
  ScopedSpan span(cpu.obs(), cpu, "virtio", "process_avail");
  uint64_t avail = Read(L::kAvailIdx);
  uint64_t used = Read(L::kUsedIdx);
  // The ring lives in guest memory: an avail.idx further ahead than the
  // queue size is guest corruption, not a backend bug.
  NEVE_GUEST_CHECK(avail - state_.last_avail <= L::kQueueSize, "virtio_ring",
                   "virtio avail.idx ran past the queue size");
  int processed = 0;
  while (state_.last_avail < avail) {
    int slot = static_cast<int>(state_.last_avail % L::kQueueSize);
    uint64_t desc = Read(L::AvailSlot(slot));
    (void)Read(L::DescLen(static_cast<int>(desc % L::kQueueSize)));
    state_.busy_until += per_buffer_cycles_;
    Write(L::UsedSlot(static_cast<int>(used % L::kQueueSize)), desc);
    ++used;
    ++state_.last_avail;
    ++processed;
  }
  Write(L::kUsedIdx, used);
  state_.buffers_processed += processed;
  if (processed > 0 && ObsActive(cpu.obs())) {
    cpu.obs()->metrics().Counter("virtio.buffers_processed").Add(processed);
  }
  return processed;
}

void VirtioBackend::Poll(uint64_t now_cycles) {
  // The backend thread's scheduling points: pick up buffers that were
  // posted without a kick, and -- "only once the backend driver has nothing
  // left to do" -- re-enable notifications.
  MutexLock lock(ring_mu_);
  if (Read(L::kAvailIdx) > state_.last_avail) {
    state_.busy_until = std::max(state_.busy_until, now_cycles);
    ProcessAvailOnThread();
  }
  if (now_cycles >= state_.busy_until) {
    Write(L::kUsedFlags, 0);
  }
}

void VirtioBackend::ProcessAvailOnThread() {
  uint64_t avail = Read(L::kAvailIdx);
  uint64_t used = Read(L::kUsedIdx);
  NEVE_GUEST_CHECK(avail - state_.last_avail <= L::kQueueSize, "virtio_ring",
                   "virtio avail.idx ran past the queue size");
  while (state_.last_avail < avail) {
    int slot = static_cast<int>(state_.last_avail % L::kQueueSize);
    uint64_t desc = Read(L::AvailSlot(slot));
    state_.busy_until += per_buffer_cycles_;
    Write(L::UsedSlot(static_cast<int>(used % L::kQueueSize)), desc);
    ++used;
    ++state_.last_avail;
    ++state_.buffers_processed;
  }
  Write(L::kUsedIdx, used);
}

// ---------------------------------------------------------------------------
// Frontend
// ---------------------------------------------------------------------------

VirtioDriver::VirtioDriver(Va ring_base, Va doorbell)
    : base_(ring_base), doorbell_(doorbell) {}

void VirtioDriver::Init(GuestEnv& env) {
  env.Store(Va(base_.value + L::kAvailIdx), 0);
  env.Store(Va(base_.value + L::kUsedIdx), 0);
  env.Store(Va(base_.value + L::kUsedFlags), 0);
  state_.avail_idx = 0;
  state_.last_used = 0;
  state_.next_desc = 0;
}

bool VirtioDriver::SendBuffer(GuestEnv& env, uint64_t addr, uint64_t len) {
  int desc = state_.next_desc;
  state_.next_desc = (state_.next_desc + 1) % L::kQueueSize;
  env.Store(Va(base_.value + L::DescAddr(desc)), addr);
  env.Store(Va(base_.value + L::DescLen(desc)), len);
  const int slot = static_cast<int>(state_.avail_idx % L::kQueueSize);
  env.Store(Va(base_.value + L::AvailSlot(slot)), static_cast<uint64_t>(desc));
  ++state_.avail_idx;
  env.Store(Va(base_.value + L::kAvailIdx), state_.avail_idx);
  ++state_.posts;

  // The notification decision: kick only when the backend asked for it.
  uint64_t flags = env.Load(Va(base_.value + L::kUsedFlags));
  if ((flags & L::kNoNotify) != 0) {
    return false;  // backend is busy; it will see our buffer on its own
  }
  ++state_.kicks_sent;
  env.Store(doorbell_, 1);  // MMIO: exits to the device's owner
  return true;
}

int VirtioDriver::ReapUsed(GuestEnv& env) {
  uint64_t used = env.Load(Va(base_.value + L::kUsedIdx));
  // A used.idx more than one queue's worth ahead of what we reaped cannot
  // come from a well-behaved backend: the ring is torn (e.g. an injected
  // kVirtioRingCorruption). A real driver BUG()s here; the VM dies, the
  // machine does not.
  NEVE_GUEST_CHECK(used - state_.last_used <= L::kQueueSize, "virtio_ring",
                   "virtio used.idx ran past the queue size (torn ring)");
  int reaped = 0;
  while (state_.last_used < used) {
    const int slot = static_cast<int>(state_.last_used % L::kQueueSize);
    (void)env.Load(Va(base_.value + L::UsedSlot(slot)));
    ++state_.last_used;
    ++reaped;
  }
  return reaped;
}

}  // namespace neve
