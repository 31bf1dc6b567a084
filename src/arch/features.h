// Architecture feature sets modeled by the simulator.
//
// The paper compares four points in the ARM architecture's evolution:
//   - ARMv8.0: VE only; EL2-register accesses from EL1 are UNDEFINED.
//   - ARMv8.1: adds VHE (E2H redirection, *_EL12/*_EL02 encodings).
//   - ARMv8.3: adds NV (trap EL2-register accesses / eret from EL1 to EL2,
//     CurrentEL disguise, EL2 page-table format at EL1).
//   - NEVE (adopted as ARMv8.4 FEAT_NV2): adds VNCR_EL2-driven register
//     redirection to memory / EL1 registers on top of NV.

#ifndef NEVE_SRC_ARCH_FEATURES_H_
#define NEVE_SRC_ARCH_FEATURES_H_

namespace neve {

struct ArchFeatures {
  // ARMv8.1 Virtualization Host Extensions: HCR_EL2.E2H, *_EL12 encodings.
  bool vhe = false;
  // ARMv8.3 nested virtualization: HCR_EL2.{NV,NV1} trapping.
  bool nv = false;
  // The paper's proposal: VNCR_EL2, deferred access page, register
  // redirection. Requires nv.
  bool neve = false;

  // Ablation switches (bench/ablation_neve): disable individual NEVE
  // mechanisms to measure each one's contribution. Ignored unless neve.
  bool neve_deferred = true;  // Table 3: deferred access page
  bool neve_redirect = true;  // Table 4: EL2 -> EL1 register redirection
  bool neve_cached = true;    // Tables 4/5: cached copies for reads

  static constexpr ArchFeatures Armv80() { return {}; }
  static constexpr ArchFeatures Armv81Vhe() { return {.vhe = true}; }
  static constexpr ArchFeatures Armv83Nv() { return {.vhe = true, .nv = true}; }
  static constexpr ArchFeatures Armv84Neve() {
    return {.vhe = true, .nv = true, .neve = true};
  }

  constexpr bool Valid() const { return !neve || nv; }
  bool operator==(const ArchFeatures&) const = default;
};

}  // namespace neve

#endif  // NEVE_SRC_ARCH_FEATURES_H_
