// Monitor lifecycle: image construction, measured stage-1/stage-2 boot, and the
// global invariant audit. The gated EMC surface is in emc_dispatch.cc, the
// attestation/channel handlers in attestation.cc, and exit interposition plus
// the /dev/erebor driver in interposition.cc.
#include "src/monitor/monitor.h"

#include <cstring>

#include "src/common/exec.h"
#include "src/common/faultpoint.h"
#include "src/common/log.h"

namespace erebor {

Bytes BuildMonitorImage() {
  // The monitor binary: entry gate (endbr64 + PKRS wrmsr + stack switch), exit gate,
  // #INT gate and the EMC dispatch body. It legitimately contains sensitive
  // instructions — it is measured (stage 1), not scanned.
  Bytes image;
  auto append = [&image](const Bytes& b) { image.insert(image.end(), b.begin(), b.end()); };
  append(EncodeEndbr64());                             // entry gate (sole endbr)
  append(EncodeSensitiveOp(SensitiveOp::kWrmsr));      // grant PKRS
  append({0x48, 0x89, 0xE0});                          // mov %rsp scratch
  append(EncodeSensitiveOp(SensitiveOp::kWrmsr));      // revoke PKRS (exit gate)
  append({0xC3});                                      // ret
  append(EncodeSensitiveOp(SensitiveOp::kMovToCr4));   // CR management
  append(EncodeSensitiveOp(SensitiveOp::kLidt));       // IDT control
  append(EncodeSensitiveOp(SensitiveOp::kTdcall));     // GHCI control
  append(EncodeSensitiveOp(SensitiveOp::kStac));
  append(EncodeSensitiveOp(SensitiveOp::kClac));
  append({'E', 'R', 'E', 'B', 'O', 'R', '-', 'M', 'O', 'N', 'I', 'T', 'O', 'R', '-', '1'});
  return image;
}

EreborMonitor::EreborMonitor(Machine* machine, TdxModule* tdx, HostVmm* host,
                             IsolationKind isolation)
    : machine_(machine), tdx_(tdx), host_(host), rng_(0xE2EB02) {
  frame_table_ = std::make_unique<FrameTable>(machine->memory().num_frames());
  isolation_ = MakeIsolationBackend(isolation, machine->memory().num_frames());
  policy_ = std::make_unique<MmuPolicy>(frame_table_.get(), isolation_.get(), machine,
                                        &counters_.tlb_shootdowns);
  gates_ = std::make_unique<EmcGates>(machine, isolation_.get());
  sandbox_mgr_ = std::make_unique<SandboxManager>(machine, frame_table_.get(),
                                                  policy_.get(), isolation_.get());
  sandbox_mgr_->SetQuarantineHook([this](Cpu& cpu, Sandbox& sandbox) {
    FenceRingsOnQuarantine(cpu, sandbox);
  });
  // Registry-backed counters: every MonitorCounters field is visible through the
  // metrics registry while ++counters_.<field> stays a plain increment.
  metrics_.RegisterExternalCounter("monitor.emc_total", &counters_.emc_total);
  metrics_.RegisterExternalCounter("monitor.emc_pte", &counters_.emc_pte);
  metrics_.RegisterExternalCounter("monitor.emc_ptp_register", &counters_.emc_ptp_register);
  metrics_.RegisterExternalCounter("monitor.emc_cr", &counters_.emc_cr);
  metrics_.RegisterExternalCounter("monitor.emc_msr", &counters_.emc_msr);
  metrics_.RegisterExternalCounter("monitor.emc_idt", &counters_.emc_idt);
  metrics_.RegisterExternalCounter("monitor.emc_usercopy", &counters_.emc_usercopy);
  metrics_.RegisterExternalCounter("monitor.emc_tdcall", &counters_.emc_tdcall);
  metrics_.RegisterExternalCounter("monitor.emc_text_poke", &counters_.emc_text_poke);
  metrics_.RegisterExternalCounter("monitor.emc_sandbox", &counters_.emc_sandbox);
  metrics_.RegisterExternalCounter("monitor.policy_denials", &counters_.policy_denials);
  metrics_.RegisterExternalCounter("monitor.sandbox_kills", &counters_.sandbox_kills);
  metrics_.RegisterExternalCounter("monitor.scrubbed_interrupts",
                                   &counters_.scrubbed_interrupts);
  metrics_.RegisterExternalCounter("monitor.cached_cpuid_hits",
                                   &counters_.cached_cpuid_hits);
  metrics_.RegisterExternalCounter("monitor.exit_stalls", &counters_.exit_stalls);
  metrics_.RegisterExternalCounter("monitor.cache_flushes", &counters_.cache_flushes);
  metrics_.RegisterExternalCounter("monitor.quantized_outputs",
                                   &counters_.quantized_outputs);
  metrics_.RegisterExternalCounter("monitor.huge_splits", &counters_.huge_splits);
  metrics_.RegisterExternalCounter("monitor.tlb_shootdowns", &counters_.tlb_shootdowns);
  metrics_.RegisterExternalCounter("monitor.emc_ring", &counters_.emc_ring);
  metrics_.RegisterExternalCounter("monitor.ring_descriptors",
                                   &counters_.ring_descriptors);
  metrics_.RegisterExternalCounter("monitor.ring_rejects", &counters_.ring_rejects);
  metrics_.RegisterExternalCounter("monitor.ring_strikes", &counters_.ring_strikes);
  metrics_.RegisterExternalCounter("monitor.ring_shootdowns_coalesced",
                                   &counters_.ring_shootdowns_coalesced);
}

Status EreborMonitor::BootStage1(const Bytes& firmware_image, bool arm_fence) {
  if (stage1_done_) {
    return FailedPreconditionError("stage 1 already completed");
  }
  monitor_image_ = BuildMonitorImage();
  // Measured boot: firmware then monitor extend MRTD, in load order.
  tdx_->MeasureBootComponent(firmware_image);
  tdx_->MeasureBootComponent(monitor_image_);

  // Claim physical regions.
  EREBOR_RETURN_IF_ERROR(frame_table_->SetRange(layout::kFirmwareFirstFrame,
                                                layout::kFirmwareFrames,
                                                FrameType::kFirmware));
  EREBOR_RETURN_IF_ERROR(frame_table_->SetRange(layout::kMonitorFirstFrame,
                                                layout::kMonitorFrames,
                                                FrameType::kMonitor));
  EREBOR_RETURN_IF_ERROR(frame_table_->SetRange(layout::kKernelTextFirstFrame,
                                                layout::kKernelTextFrames,
                                                FrameType::kKernelText));
  EREBOR_RETURN_IF_ERROR(frame_table_->SetRange(layout::kSharedIoFirstFrame,
                                                layout::kSharedIoFrames,
                                                FrameType::kSharedIo));
  scratch_pa_ = AddrOf(layout::kMonitorFirstFrame + 1);

  // Bind the boot-claimed regions at the backend's controller (no-op under PKS,
  // whose tags ride in the PTEs): monitor frames become private to the monitor
  // domain; kernel text stays fetchable/readable but unwritable through any
  // foreign view.
  for (uint64_t i = 0; i < layout::kMonitorFrames; ++i) {
    isolation_->BindClass(nullptr, layout::kMonitorFirstFrame + i, ProtClass::kMonitor);
  }
  for (uint64_t i = 0; i < layout::kKernelTextFrames; ++i) {
    isolation_->BindClass(nullptr, layout::kKernelTextFirstFrame + i,
                          ProtClass::kKernelText);
  }

  // Install gates, CET, and the backend's per-CPU view (PKS: PKRS); then arm the
  // fence so only monitor context can execute sensitive instructions from here on.
  gates_->Install();
  monitor_syscall_stub_ = machine_->registry().Register("monitor_syscall_stub",
                                                        CodeDomain::kMonitor, true);
  for (int i = 0; i < machine_->num_cpus(); ++i) {
    machine_->cpu(i).SetTdcallSink(tdx_);
    if (arm_fence) {
      machine_->cpu(i).EnableSensitiveFence();
    }
  }
  policy_->SetCommonValidator([this](Paddr root, FrameNum frame, bool writable) {
    return sandbox_mgr_->ValidateCommonMapping(root, frame, writable);
  });
  stage1_done_ = true;
  return OkStatus();
}

StatusOr<KernelImage> EreborMonitor::LoadKernelImage(const Bytes& kelf_bytes) {
  if (!stage1_done_) {
    return FailedPreconditionError("stage 1 must complete before loading a kernel");
  }
  EREBOR_ASSIGN_OR_RETURN(KernelImage image, KernelImage::Deserialize(kelf_bytes));

  // Byte-level scan of every executable section (paper section 5.1): any sensitive
  // encoding at any offset refuses the boot.
  for (const auto& section : image.sections) {
    if (!section.executable) {
      continue;
    }
    const ScanHit hit = ScanForSensitiveBytes(section.data);
    if (hit.found) {
      return PermissionDeniedError(
          "kernel image rejected: sensitive instruction '" + SensitiveOpName(hit.op) +
          "' at offset " + std::to_string(hit.offset) + " of section " + section.name);
    }
    if (section.writable) {
      return PermissionDeniedError("kernel image rejected: W^X violation in section " +
                                   section.name);
    }
  }

  // Load executable sections into the kernel-text frames (W^X: those frames can never
  // be mapped writable again).
  Paddr cursor = AddrOf(layout::kKernelTextFirstFrame);
  const Paddr text_end = AddrOf(layout::kKernelTextFirstFrame + layout::kKernelTextFrames);
  for (const auto& section : image.sections) {
    if (!section.executable) {
      continue;
    }
    if (cursor + section.data.size() > text_end) {
      return ResourceExhaustedError("kernel text exceeds reserved frames");
    }
    EREBOR_RETURN_IF_ERROR(
        machine_->memory().Write(cursor, section.data.data(), section.data.size()));
    cursor += PageAlignUp(section.data.size());
  }
  // Measure the loaded kernel into RTMR[0] so clients can audit which kernel runs
  // (it is untrusted but identifiable).
  EREBOR_RETURN_IF_ERROR(
      machine_->memory().Write(scratch_pa_, Sha256::Hash(kelf_bytes).data(), 32));
  Cpu& cpu = machine_->cpu(0);
  cpu.SetMonitorContext(true);
  uint64_t args[2] = {0, scratch_pa_};
  const Status rtmr_status = cpu.Tdcall(tdcall_leaf::kRtmrExtend, args, 2);
  cpu.SetMonitorContext(false);
  EREBOR_RETURN_IF_ERROR(rtmr_status);

  kernel_loaded_ = true;
  return image;
}

Status EreborMonitor::AuditInvariants() {
  PhysMemory& memory = machine_->memory();
  for (FrameNum frame = 0; frame < frame_table_->size(); ++frame) {
    const FrameInfo& info = frame_table_->info(frame);
    // Check the recorded supervisor mapping (the direct-map view) of special frames.
    Pte leaf = 0;
    if (info.supervisor_leaf_pa != 0) {
      leaf = memory.Read64(info.supervisor_leaf_pa);
      if (pte::Present(leaf) && pte::Frame(leaf) != frame) {
        leaf = 0;  // stale reverse-map record; not a violation by itself
      }
    }
    switch (info.type) {
      case FrameType::kSandboxConfined:
        if (info.map_count > 1) {
          return InternalError("confined frame " + std::to_string(frame) +
                               " mapped " + std::to_string(info.map_count) + " times");
        }
        if (kernel_ != nullptr &&
            kernel_->kernel_aspace().Lookup(layout::DirectMap(AddrOf(frame))).ok()) {
          return InternalError("confined frame " + std::to_string(frame) +
                               " still reachable via the kernel direct map");
        }
        // Backend audit: TME-MK verifies the frame is bound to its owner's keyID.
        EREBOR_RETURN_IF_ERROR(isolation_->AuditFrame(frame, info, leaf));
        break;
      case FrameType::kMonitor:
        // Backend audit: PKS checks the monitor key on the mapping, TME-MK the
        // monitor binding at the controller.
        EREBOR_RETURN_IF_ERROR(isolation_->AuditFrame(frame, info, leaf));
        break;
      case FrameType::kPtp:
        EREBOR_RETURN_IF_ERROR(isolation_->AuditFrame(frame, info, leaf));
        if (pte::Present(leaf) && pte::User(leaf)) {
          return InternalError("PTP frame " + std::to_string(frame) +
                               " user-accessible");
        }
        break;
      case FrameType::kKernelText:
        if (pte::Present(leaf) && pte::Writable(leaf)) {
          return InternalError("kernel-text frame " + std::to_string(frame) +
                               " writable");
        }
        EREBOR_RETURN_IF_ERROR(isolation_->AuditFrame(frame, info, leaf));
        break;
      case FrameType::kSandboxTemplate:
        // Shared read-only into every clone: unlike confined frames there is
        // no map-count cap, but the direct map must not reach the frame and no
        // recorded supervisor mapping may be writable. The backend audit pins
        // the TME-MK binding to keyID 0 + read-shared.
        if (kernel_ != nullptr &&
            kernel_->kernel_aspace().Lookup(layout::DirectMap(AddrOf(frame))).ok()) {
          return InternalError("template frame " + std::to_string(frame) +
                               " still reachable via the kernel direct map");
        }
        if (pte::Present(leaf) && pte::Writable(leaf)) {
          return InternalError("template frame " + std::to_string(frame) +
                               " has a writable supervisor mapping");
        }
        EREBOR_RETURN_IF_ERROR(isolation_->AuditFrame(frame, info, leaf));
        break;
      case FrameType::kShadowStack:
      case FrameType::kFirmware:
      case FrameType::kSharedIo:
      case FrameType::kSandboxCommon:
      case FrameType::kNormal:
        break;
    }
    // No private frame of a protected type may be shared with the host.
    if (memory.IsShared(frame) && info.type != FrameType::kSharedIo) {
      return InternalError("non-IO frame " + std::to_string(frame) +
                           " is host-shared (" + FrameTypeName(info.type) + ")");
    }
  }
  return OkStatus();
}

}  // namespace erebor
