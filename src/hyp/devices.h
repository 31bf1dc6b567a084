// Emulated MMIO devices.
//
// A device occupies an IPA range that is deliberately absent from the VM's
// Stage-2 tables, so every guest access faults to the hypervisor (the
// "trivially traps when not mapped" mechanism from section 4). Emulation
// runs in hypervisor context; costs are charged through the CPU.

#ifndef NEVE_SRC_HYP_DEVICES_H_
#define NEVE_SRC_HYP_DEVICES_H_

#include <cstdint>

#include "src/cpu/cpu.h"

namespace neve {

namespace snap {
class Serializer;  // src/snap: serializes device-model counters
}  // namespace snap

class MmioDevice {
 public:
  virtual ~MmioDevice() = default;
  virtual uint64_t MmioRead(Cpu& cpu, uint64_t offset) = 0;
  virtual void MmioWrite(Cpu& cpu, uint64_t offset, uint64_t value) = 0;
};

// The kvm-unit-test style test device: a register block whose accesses are
// absorbed with a fixed emulation cost. Mirrors the "Device I/O" benchmark's
// emulated device (Table 1: Device I/O = Hypercall + device emulation work).
class TestDevice : public MmioDevice {
 public:
  explicit TestDevice(uint32_t emulation_cycles)
      : emulation_cycles_(emulation_cycles) {}

  uint64_t MmioRead(Cpu& cpu, uint64_t offset) override {
    cpu.Compute(emulation_cycles_);
    ++state_.reads;
    return 0xD0D0'0000 | (offset & 0xFFFF);
  }
  void MmioWrite(Cpu& cpu, uint64_t offset, uint64_t value) override {
    cpu.Compute(emulation_cycles_);
    ++state_.writes;
    state_.last_write = value;
    (void)offset;
  }

  uint64_t reads() const { return state_.reads; }
  uint64_t writes() const { return state_.writes; }
  uint64_t last_write() const { return state_.last_write; }

  // The counters, which a snapshot carries whole (src/snap).
  struct State {
    uint64_t reads = 0;
    uint64_t writes = 0;
    uint64_t last_write = 0;
    bool operator==(const State&) const = default;
  };

 private:
  friend class snap::Serializer;

  uint32_t emulation_cycles_;  // not-snapshotted: fixed at construction
  State state_;  // single-mutator: snap restore runs quiesced
};

}  // namespace neve

#endif  // NEVE_SRC_HYP_DEVICES_H_
