// Kernel binary image ("KELF"): a miniature ELF-like container with named sections,
// flags and load addresses, serialized to real bytes.
//
// The builder synthesizes a kernel text section from a function manifest. In the
// *native* build, functions that need privileged operations embed the genuine x86
// opcode bytes (kernel/isa.h). In the *instrumented* build (paper section 5.1), every
// sensitive instruction is replaced by a call to the EMC entry gate. The monitor's
// two-stage verified boot deserializes this image, byte-scans executable sections and
// refuses to load anything containing sensitive encodings.
#ifndef EREBOR_SRC_KERNEL_IMAGE_H_
#define EREBOR_SRC_KERNEL_IMAGE_H_

#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/hw/types.h"
#include "src/kernel/isa.h"

namespace erebor {

struct KernelSection {
  std::string name;
  bool executable = false;
  bool writable = false;
  Vaddr vaddr = 0;
  Bytes data;
};

struct KernelSymbol {
  std::string name;
  Vaddr vaddr = 0;
  uint32_t size = 0;
};

struct KernelImage {
  std::vector<KernelSection> sections;
  std::vector<KernelSymbol> symbols;

  Bytes Serialize() const;
  static StatusOr<KernelImage> Deserialize(const Bytes& raw);

  const KernelSection* FindSection(const std::string& name) const;
};

struct KernelBuildOptions {
  bool instrumented = true;       // replace sensitive ops with EMC calls
  uint64_t seed = 0x5EED;         // filler-byte stream seed
  int extra_functions = 48;       // plain functions beside the privileged ones
  // Test hooks: smuggle one sensitive op into the instrumented text at a misaligned
  // offset (models a malicious service provider shipping a trojaned kernel).
  bool smuggle_sensitive_op = false;
  SensitiveOp smuggled_op = SensitiveOp::kWrmsr;
};

// Builds the guest kernel image. Text base is layout::kKernelTextBase.
KernelImage BuildKernelImage(const KernelBuildOptions& options);

}  // namespace erebor

#endif  // EREBOR_SRC_KERNEL_IMAGE_H_
