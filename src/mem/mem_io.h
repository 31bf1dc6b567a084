// Abstract 64-bit word memory interface.
//
// Page tables are built over this rather than PhysMem directly so that a
// guest hypervisor's Stage-2 tables -- which live in *its* physical (IPA)
// space -- can be read and written through a translating view
// (GuestPhysView in shadow_s2.h). The host's shadow-S2 collapse walks the
// guest's tables through exactly such a view, as real hardware-assisted
// software walkers do.

#ifndef NEVE_SRC_MEM_MEM_IO_H_
#define NEVE_SRC_MEM_MEM_IO_H_

#include <cstdint>
#include <span>

#include "src/mem/addr.h"

namespace neve {

class MemIo {
 public:
  virtual ~MemIo() = default;

  virtual uint64_t Read64(Pa pa) const = 0;
  virtual void Write64(Pa pa, uint64_t value) = 0;
  // Writes words[i] to pa + 8 * i: the same bytes as one Write64 per word.
  // The run may not cross a page (page-table builders write one table's
  // slots at a time).
  virtual void Write64Run(Pa pa, std::span<const uint64_t> words) = 0;
  virtual void ZeroPage(Pa page_base) = 0;
  virtual bool Contains(Pa pa, uint64_t bytes) const = 0;
};

}  // namespace neve

#endif  // NEVE_SRC_MEM_MEM_IO_H_
