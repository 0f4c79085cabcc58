#include "src/kernel/privops.h"

namespace erebor {

Status NativePrivOps::WritePte(Cpu& cpu, Paddr entry_pa, Pte value) {
  // native_set_pte: a plain store into the page-table page. Deliberately no TLB
  // shootdown here — hardware does not snoop PTE stores; the kernel's PTE writer
  // (AddressSpace) shoots down every present entry it rewrites.
  cpu.cycles().Charge(cpu.costs().native_pte_write);
  cpu.memory().Write64(entry_pa, value);
  return OkStatus();
}

Status NativePrivOps::WriteCr(Cpu& cpu, int reg, uint64_t value) {
  switch (reg) {
    case 0:
      return cpu.WriteCr0(value);
    case 3:
      return cpu.WriteCr3(value);
    case 4:
      return cpu.WriteCr4(value);
    default:
      return InvalidArgumentError("bad control register");
  }
}

Status NativePrivOps::WriteMsr(Cpu& cpu, uint32_t index, uint64_t value) {
  return cpu.WriteMsr(index, value);
}

Status NativePrivOps::LoadIdt(Cpu& cpu, const IdtTable* table) { return cpu.Lidt(table); }

Status NativePrivOps::CopyToUser(Cpu& cpu, Vaddr dst, const uint8_t* src, uint64_t len) {
  cpu.cycles().Charge(len * cpu.costs().usercopy_per_byte_x100 / 100);
  EREBOR_RETURN_IF_ERROR(cpu.Stac());
  const Status st = cpu.WriteVirt(dst, src, len);
  EREBOR_RETURN_IF_ERROR(cpu.Clac());
  return st;
}

Status NativePrivOps::CopyFromUser(Cpu& cpu, Vaddr src, uint8_t* dst, uint64_t len) {
  cpu.cycles().Charge(len * cpu.costs().usercopy_per_byte_x100 / 100);
  EREBOR_RETURN_IF_ERROR(cpu.Stac());
  const Status st = cpu.ReadVirt(src, dst, len);
  EREBOR_RETURN_IF_ERROR(cpu.Clac());
  return st;
}

Status NativePrivOps::Tdcall(Cpu& cpu, uint64_t leaf, uint64_t* args, size_t nargs) {
  return cpu.Tdcall(leaf, args, nargs);
}

Status NativePrivOps::TextPoke(Cpu& cpu, Paddr code_pa, const uint8_t* bytes, uint64_t len) {
  // Natively the kernel flips CR0.WP (or uses a temporary mapping) and patches.
  cpu.cycles().Charge(cpu.costs().native_cr_write * 2);
  return cpu.memory().Write(code_pa, bytes, len);
}

}  // namespace erebor
