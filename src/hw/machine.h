// The simulated machine: physical memory, vCPUs, interrupt controller, DMA engine and
// the code-label registry, bundled with the cycle model.
#ifndef EREBOR_SRC_HW_MACHINE_H_
#define EREBOR_SRC_HW_MACHINE_H_

#include <memory>
#include <vector>

#include "src/hw/cpu.h"
#include "src/hw/dma.h"
#include "src/hw/interrupts.h"
#include "src/hw/phys_mem.h"

namespace erebor {

struct MachineConfig {
  uint64_t memory_frames = 64 * 1024;  // 256 MiB default guest RAM
  int num_cpus = 1;
  CycleModel cycles;
};

class Machine {
 public:
  explicit Machine(const MachineConfig& config);

  PhysMemory& memory() { return memory_; }
  CodeRegistry& registry() { return registry_; }
  InterruptController& interrupts() { return interrupts_; }
  DmaEngine& dma() { return dma_; }
  const CycleModel& costs() const { return config_.cycles; }
  const MachineConfig& config() const { return config_; }

  int num_cpus() const { return static_cast<int>(cpus_.size()); }
  Cpu& cpu(int index) { return *cpus_[index]; }

  // Aggregate cycle count across CPUs (the simulation's notion of elapsed work).
  Cycles TotalCycles() const;

  // ---- Software-TLB broadcast helpers (no cycle charge; see src/hw/tlb.h) ----
  // Drop all entries keyed by `root` on every CPU (address-space teardown, where the
  // root frame may be recycled). Always on — not a test-toggleable hook.
  void FlushTlbRoot(Paddr root);
  // Shootdown by PTE physical address across every CPU, issued by the code that
  // stored the entry. `initiating_cpu` (the storing vCPU) only attributes the trace
  // event.
  void ShootdownTlbLeaf(Paddr entry_pa, int initiating_cpu);

 private:
  MachineConfig config_;
  PhysMemory memory_;
  CodeRegistry registry_;
  InterruptController interrupts_;
  DmaEngine dma_;
  std::vector<std::unique_ptr<Cpu>> cpus_;
};

}  // namespace erebor

#endif  // EREBOR_SRC_HW_MACHINE_H_
