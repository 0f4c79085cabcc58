#include "src/hw/machine.h"

#include "src/common/exec.h"
#include "src/common/trace.h"

namespace erebor {

Machine::Machine(const MachineConfig& config)
    : config_(config),
      memory_(config.memory_frames),
      interrupts_(config.num_cpus),
      dma_(&memory_) {
  for (int i = 0; i < config.num_cpus; ++i) {
    cpus_.push_back(std::make_unique<Cpu>(i, &memory_, &registry_, &config_.cycles));
  }
}

void Machine::FlushTlbRoot(Paddr root) {
  if (!Tlb::Enabled()) {
    return;
  }
  const TlbInvalidation inv{TlbInvalidation::Kind::kRoot, root, 0};
  for (auto& cpu : cpus_) {
    cpu->RequestTlbInvalidation(inv);
  }
}

void Machine::ShootdownTlbLeaf(Paddr entry_pa, int initiating_cpu) {
  // Trace + count unconditionally so event streams are identical across EREBOR_TLB
  // settings; only the (pointless, scan-heavy) cache maintenance is skipped when the
  // TLB is globally off.
  Tracer::Global().Record(TraceEvent::kTlbShootdown, initiating_cpu,
                          cpus_[initiating_cpu]->cycles().now(), -1, entry_pa);
  CounterAdd(Tlb::GlobalStats().shootdowns);
  if (!Tlb::Enabled()) {
    return;
  }
  const TlbInvalidation inv{TlbInvalidation::Kind::kEntry, 0, entry_pa};
  for (auto& cpu : cpus_) {
    cpu->RequestTlbInvalidation(inv);
  }
}

Cycles Machine::TotalCycles() const {
  Cycles total = 0;
  for (const auto& cpu : cpus_) {
    total += cpu->cycles().now();
  }
  return total;
}

}  // namespace erebor
