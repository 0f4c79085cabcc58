// Exit interposition and the /dev/erebor driver (paper sections 5.4 and 6.2):
// the syscall/interrupt/#VE interposers installed on kernel attach, the sealed
// exit mitigations, the cpuid cache, and the ioctl surface the LibOS and the
// untrusted proxy drive. EMC dispatch itself lives in emc_dispatch.cc.
#include <cstring>

#include "src/common/faultpoint.h"
#include "src/common/log.h"
#include "src/monitor/monitor.h"

namespace erebor {

Status EreborMonitor::AttachKernel(Kernel* kernel) {
  kernel_ = kernel;
  const FrameNum cma_first = kernel->cma().first();
  const uint64_t cma_frames = kernel->cma().count();
  sandbox_mgr_->Attach(kernel, cma_first, cma_frames);

  // Interposition stubs: syscalls, interrupts/exceptions, #VE.
  kernel->SetSyscallInterposer(
      [this](SyscallContext& ctx, Task& task, int nr, const uint64_t* args,
             const SyscallEntryFn& kernel_entry) -> StatusOr<uint64_t> {
        Cpu& cpu = ctx.cpu();
        cpu.cycles().Charge(cpu.costs().syscall_stub_overhead);
        Sandbox* sandbox = sandbox_mgr_->FindByTask(task);
        if (sandbox != nullptr &&
            !sandbox_mgr_->SyscallPermitted(*sandbox, task, nr, args)) {
          ++counters_.sandbox_kills;
          ++sandbox->exits.kills;
          kernel_->KillTask(task, "sealed sandbox attempted syscall " + std::to_string(nr));
          // The kill observer below has already quarantined (scrubbed) the sandbox;
          // only this sandbox dies — every other session keeps running.
          (void)sandbox_mgr_->Teardown(cpu, *sandbox);
          return AbortedError("sandbox killed: illegal exit via syscall");
        }
        return kernel_entry(ctx, task, nr, args);
      });

  // Any kill of a sandbox member — by the monitor's own policy above or by the kernel
  // (segfault, injected allocator exhaustion that exhausted its retry) — fences the
  // whole sandbox off: scrub confined memory, drop the session, park in kQuarantined.
  // A dead-but-sealed sandbox must never linger half-alive holding client plaintext.
  kernel->SetKillObserver([this](Task& task, const std::string& reason) {
    Sandbox* sandbox = sandbox_mgr_->FindByTask(task);
    if (sandbox == nullptr || sandbox->state == SandboxState::kTornDown ||
        sandbox->state == SandboxState::kQuarantined) {
      return;
    }
    (void)sandbox_mgr_->Quarantine(machine_->cpu(0), *sandbox,
                                   "member task killed: " + reason);
  });

  kernel->SetInterruptInterposer(
      [this](Cpu& cpu, const Fault& fault, const std::function<void()>& kernel_handler) {
        // #INT gate: an interrupt that lands during EMC execution must not leave the
        // OS running with monitor permissions.
        const bool was_in_monitor = cpu.in_monitor();
        if (was_in_monitor) {
          gates_->InterruptSave(cpu);
        }
        Task* task = kernel_ != nullptr ? kernel_->current(cpu.index()) : nullptr;
        Sandbox* sandbox = task != nullptr ? sandbox_mgr_->FindByTask(*task) : nullptr;
        // Copy-on-write service: a write #PF from a clone against a shared
        // template page is the monitor's to handle, never the kernel's — the
        // kernel's demand-fault path would map a fresh zeroed frame over the
        // live page. Break the share here and let the access retry; the
        // untrusted handler never runs, so no register scrub is needed.
        bool cow_handled = false;
        if (sandbox != nullptr && sandbox->clone_of != -1 &&
            fault.vector == Vector::kPageFault &&
            (fault.error_code & pf_err::kWrite) != 0) {
          SimLockGuard held = locks_.SandboxGuard(cpu, sandbox->lock);
          const auto broke = sandbox_mgr_->HandleCowWrite(cpu, *sandbox, fault.address);
          if (!broke.ok()) {
            // Hard break failure (CMA exhausted, promotion refused): contain it
            // like any other fatal sandbox fault — kill the task, which
            // quarantines the sandbox via the kill observer.
            ++counters_.sandbox_kills;
            ++sandbox->exits.kills;
            cow_handled = true;
          } else if (*broke) {
            if (sandbox->state == SandboxState::kSealed) {
              ++sandbox->exits.page_faults;  // still counts as a sandbox exit
            }
            cow_handled = true;
          }
          if (cow_handled && !broke.ok() && task != nullptr) {
            kernel_->KillTask(*task, "copy-on-write break failed: " +
                                         std::string(broke.status().message()));
          }
        }
        if (cow_handled) {
          // fall through to the #INT-gate restore below
        } else if (sandbox != nullptr && sandbox->state == SandboxState::kSealed) {
          // Exit interposition: save and scrub the register file before the untrusted
          // OS handler can observe it.
          cpu.cycles().Charge(cpu.costs().interposition_save_restore);
          sandbox->interposition_save = cpu.gprs();
          sandbox->interposition_active = true;
          cpu.gprs().Clear();
          ++counters_.scrubbed_interrupts;
          switch (fault.vector) {
            case Vector::kPageFault:
              ++sandbox->exits.page_faults;
              break;
            case Vector::kTimer:
              ++sandbox->exits.timer_interrupts;
              break;
            case Vector::kDevice:
              ++sandbox->exits.device_interrupts;
              break;
            default:
              break;
          }
          kernel_handler();
          cpu.gprs() = sandbox->interposition_save;
          sandbox->interposition_active = false;
          ApplyExitMitigations(cpu, *sandbox);
        } else {
          kernel_handler();
        }
        if (was_in_monitor) {
          gates_->InterruptRestore(cpu);
        }
      });

  kernel->SetVeInterposer(
      [this](SyscallContext& ctx, Task& task, uint32_t leaf,
             const std::function<StatusOr<uint64_t>()>& hypercall) -> StatusOr<uint64_t> {
        (void)hypercall;
        Sandbox* sandbox = sandbox_mgr_->FindByTask(task);
        if (sandbox != nullptr && sandbox->state == SandboxState::kSealed) {
          ++sandbox->exits.ve_exits;
          return CachedCpuid(ctx.cpu(), leaf, /*allow_hypercall=*/false);
        }
        return CachedCpuid(ctx.cpu(), leaf, /*allow_hypercall=*/true);
      });

  // The /dev/erebor driver (LibOS + proxy interface).
  kernel->RegisterDevice("/dev/erebor",
                         [this](SyscallContext& ctx, Task& task, uint64_t cmd,
                                Vaddr arg) { return DeviceIoctl(ctx, task, cmd, arg); });
  return OkStatus();
}

void EreborMonitor::ApplyExitMitigations(Cpu& cpu, Sandbox& sandbox) {
  if (mitigations_.flush_on_exit) {
    // Evict caches/TLB so the untrusted kernel cannot probe the sandbox's footprint.
    // The simulated TLB really flushes now (previously this was only a cycle charge);
    // the charge is unchanged so the mitigation stays cycle-neutral w.r.t. EREBOR_TLB.
    cpu.cycles().Charge(mitigations_.flush_cycles);
    ++counters_.cache_flushes;
    Tracer::Global().Record(TraceEvent::kTlbFlush, cpu.index(), cpu.cycles().now());
    if (Tlb::Enabled() && Tlb::hooks().flush_on_exit) {
      cpu.tlb().FlushAll();
    }
  }
  if (mitigations_.rate_limit_exits) {
    constexpr Cycles kWindow = 2'100'000'000;  // one second at 2.1 GHz
    const Cycles now = cpu.cycles().now();
    if (now - sandbox.exit_window_start >= kWindow) {
      sandbox.exit_window_start = now;
      sandbox.exits_in_window = 0;
    }
    if (++sandbox.exits_in_window > mitigations_.max_exits_per_window) {
      cpu.cycles().Charge(mitigations_.exit_stall_cycles);
      ++counters_.exit_stalls;
    }
  }
}

// ---- Guest memory helpers ----

namespace {

// The physical address of `va` in `aspace`, as `cpu` would translate it for its
// user mode: the cached leaf when its TLB holds one, else a walk from the root.
// Callers first drain peer invalidations queued for `cpu`, so a translation
// another vCPU has already revoked is never used.
StatusOr<Paddr> GuestPa(Cpu& cpu, const AddressSpace& aspace, Vaddr va) {
  if (const WalkResult* hit = cpu.tlb().ProbeLeaf(aspace.root(), va, CpuMode::kUser)) {
    return hit->pa + (va & kPageMask);
  }
  EREBOR_ASSIGN_OR_RETURN(const WalkResult walk, aspace.Lookup(va));
  return walk.pa;
}

}  // namespace

Status EreborMonitor::ReadGuest(Cpu& cpu, const AddressSpace& aspace, Vaddr va,
                                uint8_t* out, uint64_t len) {
  cpu.DrainTlbInvalidations();
  uint64_t done = 0;
  while (done < len) {
    EREBOR_ASSIGN_OR_RETURN(const Paddr pa, GuestPa(cpu, aspace, va + done));
    const uint64_t take = std::min(len - done, kPageSize - ((va + done) & kPageMask));
    EREBOR_RETURN_IF_ERROR(machine_->memory().Read(pa, out + done, take));
    done += take;
  }
  return OkStatus();
}

Status EreborMonitor::WriteGuest(Cpu& cpu, const AddressSpace& aspace, Vaddr va,
                                 const uint8_t* data, uint64_t len) {
  cpu.DrainTlbInvalidations();
  uint64_t done = 0;
  while (done < len) {
    EREBOR_ASSIGN_OR_RETURN(const Paddr pa, GuestPa(cpu, aspace, va + done));
    const uint64_t take = std::min(len - done, kPageSize - ((va + done) & kPageMask));
    EREBOR_RETURN_IF_ERROR(machine_->memory().Write(pa, data + done, take));
    done += take;
  }
  return OkStatus();
}

// ---- cpuid cache ----

StatusOr<uint64_t> EreborMonitor::CachedCpuid(Cpu& cpu, uint32_t leaf,
                                              bool allow_hypercall) {
  const auto it = cpuid_cache_.find(leaf);
  if (it != cpuid_cache_.end()) {
    ++counters_.cached_cpuid_hits;
    cpu.cycles().Charge(cpu.costs().cached_cpuid_service);
    return it->second;
  }
  if (!allow_hypercall) {
    // Sealed sandbox asking for an uncached leaf: serve zero rather than exit.
    ++counters_.cached_cpuid_hits;
    cpu.cycles().Charge(cpu.costs().cached_cpuid_service);
    return 0;
  }
  // One hypercall, then cache (executed in monitor context: trusted tdcall).
  const bool was_in_monitor = cpu.in_monitor();
  cpu.SetMonitorContext(true);
  uint64_t args[3] = {static_cast<uint64_t>(GhciReason::kCpuid), leaf, 0};
  const Status st = cpu.Tdcall(tdcall_leaf::kVmcall, args, 3);
  cpu.SetMonitorContext(was_in_monitor);
  EREBOR_RETURN_IF_ERROR(st);
  cpuid_cache_[leaf] = args[1];
  return args[1];
}

// ---- /dev/erebor ioctl ----

StatusOr<uint64_t> EreborMonitor::DeviceIoctl(SyscallContext& ctx, Task& task,
                                              uint64_t cmd, Vaddr arg_va) {
  Cpu& cpu = ctx.cpu();
  Sandbox* sandbox = sandbox_mgr_->FindByTask(task);
  ++counters_.emc_sandbox;
  switch (cmd) {
    case emc_ioctl::kDeclareConfined: {
      if (sandbox == nullptr) {
        return FailedPreconditionError("declare-confined from non-sandbox task");
      }
      uint8_t buf[16];
      EREBOR_RETURN_IF_ERROR(ReadGuest(cpu, *task.aspace, arg_va, buf, sizeof(buf)));
      const Vaddr va = LoadLe64(buf);
      const uint64_t len = LoadLe64(buf + 8);
      EREBOR_RETURN_IF_ERROR(DeclareConfined(cpu, *sandbox, va, len));
      return 0;
    }
    case emc_ioctl::kInput: {
      if (sandbox == nullptr) {
        return FailedPreconditionError("input ioctl from non-sandbox task");
      }
      ++sandbox->exits.ioctl_io;
      uint8_t buf[16];
      EREBOR_RETURN_IF_ERROR(ReadGuest(cpu, *task.aspace, arg_va, buf, sizeof(buf)));
      const Vaddr dst = LoadLe64(buf);
      const uint64_t cap = LoadLe64(buf + 8);
      if (sandbox->input_plaintext.empty()) {
        return UnavailableError("EAGAIN");
      }
      const Bytes& data = sandbox->input_plaintext.front();
      if (data.size() > cap) {
        return OutOfRangeError("input larger than provided buffer");
      }
      EmcCall copy_call{};
      copy_call.op = EmcOp::kChannelOp;
      copy_call.sandbox_id = sandbox->id;
      const Status copy_st = EmcDispatch(cpu, copy_call, [&]() -> Status {
        return sandbox_mgr_->CopyIntoSandbox(cpu, *sandbox, dst, data.data(),
                                             data.size());
      });
      if (!copy_st.ok()) {
        // The input stays queued so a transient shepherd fault is retryable, but a
        // sandbox that keeps faulting gets quarantined — torn down and scrubbed —
        // rather than wedging the session forever.
        ++sandbox->fault_strikes;
        if (sandbox->fault_strikes >= sandbox->spec.max_fault_strikes) {
          EREBOR_RETURN_IF_ERROR(sandbox_mgr_->Quarantine(
              cpu, *sandbox, "repeated shepherd copy faults: " + copy_st.ToString()));
        }
        return copy_st;
      }
      if (sandbox->fault_strikes > 0) {
        // A queued input finally copied in after transient shepherd faults.
        sandbox->fault_strikes = 0;
        NoteFaultRecovered();
      }
      const uint64_t n = data.size();
      StoreLe64(buf + 8, n);
      EREBOR_RETURN_IF_ERROR(WriteGuest(cpu, *task.aspace, arg_va, buf, sizeof(buf)));
      sandbox->input_plaintext.pop_front();
      return n;
    }
    case emc_ioctl::kOutput: {
      if (sandbox == nullptr) {
        return FailedPreconditionError("output ioctl from non-sandbox task");
      }
      ++sandbox->exits.ioctl_io;
      if (!sandbox->session.established) {
        // A result leaves only sealed under an attested session's keys.
        return FailedPreconditionError("output without an established session");
      }
      uint8_t buf[16];
      EREBOR_RETURN_IF_ERROR(ReadGuest(cpu, *task.aspace, arg_va, buf, sizeof(buf)));
      const Vaddr src = LoadLe64(buf);
      const uint64_t len = LoadLe64(buf + 8);
      if (len > wire::kMaxWireBytes) {
        // The length is sandbox-controlled: bound it before sizing any buffer.
        return InvalidArgumentError("output length exceeds the wire limit");
      }
      Bytes payload(len);
      EmcCall out_call{};
      out_call.op = EmcOp::kChannelOp;
      out_call.sandbox_id = sandbox->id;
      const Status out_st = EmcDispatch(cpu, out_call, [&]() -> Status {
        EREBOR_RETURN_IF_ERROR(
            sandbox_mgr_->CopyFromSandbox(cpu, *sandbox, src, payload.data(), len));
        // Pad to the fixed output quantum, then seal.
        EREBOR_ASSIGN_OR_RETURN(const Bytes padded,
                                PadOutput(payload, sandbox->spec.output_pad_bytes));
        cpu.cycles().Charge(padded.size() * cpu.costs().crypto_per_byte_x100 / 100);
        Tracer::Global().Record(TraceEvent::kChannelEncrypt, cpu.index(),
                                cpu.cycles().now(), sandbox->id, padded.size());
        if (mitigations_.quantize_output) {
          // Release only at fixed interval boundaries: a result's timing no longer
          // reflects the (secret-dependent) processing time.
          const Cycles now = cpu.cycles().now();
          const Cycles boundary = ((now / mitigations_.output_interval) + 1) *
                                  mitigations_.output_interval;
          cpu.cycles().Charge(boundary - now);
          ++counters_.quantized_outputs;
        }
        // Seal straight into the wire buffer (no Packet round trip). Cache the
        // result for retransmission: if it is lost on the wire, the client's
        // duplicate data record triggers a re-send.
        sandbox->session.last_result_wire = SealRecordWire(
            sandbox->session.keys.server_to_client, PacketType::kResultRecord,
            sandbox->id, sandbox->session.next_send_seq++, padded);
        sandbox->outbound_wire.push_back(sandbox->session.last_result_wire);
        return OkStatus();
      });
      EREBOR_RETURN_IF_ERROR(out_st);
      return len;
    }
    case emc_ioctl::kProxyDeliverBatch: {
      if (sandbox != nullptr) {
        return PermissionDeniedError("proxy ioctls are not for sandbox tasks");
      }
      uint8_t buf[16];
      EREBOR_RETURN_IF_ERROR(ReadGuest(cpu, *task.aspace, arg_va, buf, sizeof(buf)));
      const Vaddr src = LoadLe64(buf);
      const uint64_t len = LoadLe64(buf + 8);
      if (len > wire::kMaxWireBytes) {
        return InvalidArgumentError("proxy batch exceeds the wire limit");
      }
      Bytes blob(len);
      EREBOR_RETURN_IF_ERROR(ReadGuest(cpu, *task.aspace, src, blob.data(), len));
      // Proxy-framed burst: [LE32 packet_len | packet]*. The framing is
      // proxy-controlled, so every prefix is bounded against the bytes present.
      std::vector<Bytes> wires;
      size_t off = 0;
      while (off < blob.size()) {
        if (blob.size() - off < 4) {
          return InvalidArgumentError("truncated batch frame header");
        }
        const uint32_t n = LoadLe32(blob.data() + off);
        off += 4;
        if (n > blob.size() - off) {
          return InvalidArgumentError("batch frame overruns the buffer");
        }
        wires.emplace_back(blob.begin() + off, blob.begin() + off + n);
        off += n;
      }
      EREBOR_RETURN_IF_ERROR(ProxyDeliverBatch(cpu, wires));
      return static_cast<uint64_t>(wires.size());
    }
    case emc_ioctl::kProxyFetch: {
      if (sandbox != nullptr) {
        return PermissionDeniedError("proxy ioctls are not for sandbox tasks");
      }
      uint8_t buf[16];
      EREBOR_RETURN_IF_ERROR(ReadGuest(cpu, *task.aspace, arg_va, buf, sizeof(buf)));
      const Vaddr dst = LoadLe64(buf);
      const uint64_t cap = LoadLe64(buf + 8);
      int source_sandbox = -1;
      auto wire = ProxyFetch(cpu, &source_sandbox);
      if (!wire.ok()) {
        return UnavailableError("EAGAIN");
      }
      // The proxy's buffer is ordinary pageable memory: fault it in before copying,
      // and requeue the packet (to its owning sandbox) if the copy cannot complete.
      Status st = wire->size() > cap ? OutOfRangeError("proxy buffer too small")
                                     : kernel_->FaultInUserRange(ctx, task, dst,
                                                                 wire->size());
      if (st.ok()) {
        st = WriteGuest(cpu, *task.aspace, dst, wire->data(), wire->size());
      }
      if (!st.ok()) {
        Sandbox* origin = sandbox_mgr_->Find(source_sandbox);
        // Only requeue into a live sandbox: a teardown or quarantine may have
        // raced the fetch, and its scrubbed queues must stay empty.
        if (origin != nullptr && origin->state != SandboxState::kTornDown &&
            origin->state != SandboxState::kQuarantined) {
          origin->outbound_wire.push_front(std::move(*wire));
        }
        return st;
      }
      return wire->size();
    }
    default:
      return InvalidArgumentError("unknown erebor ioctl " + std::to_string(cmd));
  }
}

}  // namespace erebor
