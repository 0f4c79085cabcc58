#include "src/kernel/privops.h"

#include "src/hw/machine.h"

namespace erebor {

Status NativePrivOps::WritePte(Cpu& cpu, Paddr entry_pa, Pte value) {
  // native_set_pte plus its flush: hardware does not snoop PTE stores, so a
  // rewrite of a present entry (remap, U/S widening of an intermediate, unmap,
  // protect) shoots down every cached translation that depends on it, in every
  // root and on every vCPU. The shootdown charges nothing.
  cpu.cycles().Charge(cpu.costs().native_pte_write);
  const Pte old = cpu.memory().Read64(entry_pa);
  cpu.memory().Write64(entry_pa, value);
  if (Tlb::hooks().store_shootdown && pte::Present(old) && old != value) {
    machine_->ShootdownTlbLeaf(entry_pa, cpu.index());
  }
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
