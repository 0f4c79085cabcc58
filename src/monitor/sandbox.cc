#include "src/monitor/sandbox.h"

#include <cstring>

#include "src/common/faultpoint.h"
#include "src/common/log.h"
#include "src/common/metrics.h"
#include "src/common/trace.h"

namespace erebor {

namespace {

// Lock-discipline probe at every sandbox mutation entry point: a gated (EMC)
// caller must hold this sandbox's lock.
// Non-gated monitor paths — the syscall interposer's kill/teardown, the kill
// observer's quarantine — run outside the gates and are exempt: they execute at
// a point where no EMC is in flight for the sandbox.
void NoteSandboxMutation(Cpu& cpu, const Sandbox& sandbox) {
  if (cpu.in_monitor()) {
    LockAudit::Global().ExpectSandboxHeld(cpu.index(), sandbox.id);
  }
}

}  // namespace

SandboxManager::SandboxManager(Machine* machine, FrameTable* frames, MmuPolicy* policy,
                               IsolationBackend* isolation)
    : machine_(machine), frames_(frames), policy_(policy), isolation_(isolation) {}

void SandboxManager::Attach(Kernel* kernel, FrameNum cma_first, uint64_t cma_frames) {
  kernel_ = kernel;
  cma_ = std::make_unique<FrameAllocator>(cma_first, cma_frames);
}

// The monitor writes PTEs directly (it *is* the privileged mode), skipping the
// policy checks, but charges the monitor-op cost and links the PTP hierarchy.
// StorePte keeps the map counts and shoots down a rewritten present entry (an
// unmap, a W strip, U/S-widening an intermediate) before the caller goes on:
// single mapping and W revocation are only real once no CPU can still hit the old
// translation.
Status SandboxManager::TrustedWriter::operator()(Paddr entry_pa, Pte value) const {
  cpu_.cycles().Charge(cpu_.costs().monitor_pte_op);
  manager_->policy_->NoteTrustedLink(entry_pa, value);
  manager_->policy_->StorePte(cpu_, entry_pa, value, /*deferred=*/nullptr);
  return OkStatus();
}

StatusOr<FrameNum> SandboxManager::TrustedWriter::operator()() const {
  EREBOR_ASSIGN_OR_RETURN(const FrameNum frame, manager_->kernel_->pool().Alloc());
  manager_->machine_->memory().ZeroFrame(frame);
  FrameTable& frames = *manager_->frames_;
  (void)frames.SetType(frame, FrameType::kPtp);
  frames.info(frame).ptp_root = aspace_.root();
  frames.info(frame).ptp_level = 0;  // linked when first referenced
  // Pool frames keep their default-tag direct-map leaf: re-tag it so the kernel
  // cannot forge entries in the sandbox's page tables through the direct map.
  EREBOR_RETURN_IF_ERROR(manager_->policy_->RetrofitTag(cpu_, frame, ProtClass::kPtp, false));
  return frame;
}

StatusOr<Sandbox*> SandboxManager::Create(Task& leader, const SandboxSpec& spec) {
  if (kernel_ == nullptr) {
    return FailedPreconditionError("sandbox manager not attached to a kernel");
  }
  auto sandbox = std::make_unique<Sandbox>();
  sandbox->id = next_id_++;
  // Admission control: every live sandbox holds one isolation domain (a PKS key
  // or TME-MK keyID). When the backend's budget is exhausted the launch is
  // refused cleanly — domains are never shared between tenants.
  auto domain = isolation_->AllocateSandboxDomain(sandbox->id);
  if (!domain.ok()) {
    MetricsRegistry::Global().Increment("fleet.domain_exhausted");
    return UnavailableError("sandbox admission refused: " +
                            std::string(domain.status().message()));
  }
  sandbox->domain_tag = *domain;
  sandbox->lock = SimLock("sandbox." + std::to_string(sandbox->id), kRankSandbox,
                          sandbox->id);
  sandbox->spec = spec;
  sandbox->leader = &leader;
  sandbox->aspace = leader.aspace;
  leader.is_sandbox_member = true;
  leader.sandbox_id = sandbox->id;
  return Adopt(std::move(sandbox));
}

Sandbox* SandboxManager::Adopt(std::unique_ptr<Sandbox> sandbox) {
  const size_t slot = static_cast<size_t>(sandbox->id);
  if (sandboxes_.size() <= slot) {
    sandboxes_.resize(slot + 1);
  }
  sandboxes_[slot] = std::move(sandbox);
  return sandboxes_[slot].get();
}

Status SandboxManager::UnmapFromDirectMap(Cpu& cpu, FrameNum first, uint64_t count) {
  // Single-mapping enforcement: once a frame is confined, the kernel's direct-map view
  // disappears. (The walk may legitimately fail if the direct map never covered it.)
  AddressSpace& kas = kernel_->kernel_aspace();
  const TrustedWriter trusted(this, cpu, kas);
  for (uint64_t i = 0; i < count; ++i) {
    const Vaddr dm_va = layout::DirectMap(AddrOf(first + i));
    const auto walk = kas.Lookup(dm_va);
    if (!walk.ok()) {
      continue;
    }
    EREBOR_RETURN_IF_ERROR(trusted(walk->leaf_entry_pa, 0));
  }
  return OkStatus();
}

Status SandboxManager::DeclareConfined(Cpu& cpu, Sandbox& sandbox, Vaddr va, uint64_t len) {
  NoteSandboxMutation(cpu, sandbox);
  if (sandbox.state != SandboxState::kInitializing) {
    return FailedPreconditionError("confined memory must be declared before sealing");
  }
  len = PageAlignUp(len);
  if (sandbox.confined_bytes + len > sandbox.spec.confined_budget_bytes) {
    return ResourceExhaustedError("confined memory budget exceeded");
  }
  const uint64_t count = len >> kPageShift;
  EREBOR_ASSIGN_OR_RETURN(const FrameNum first, cma_->AllocContiguous(count));
  for (uint64_t i = 0; i < count; ++i) {
    FrameInfo& info = frames_->info(first + i);
    info.type = FrameType::kSandboxConfined;
    info.owner_sandbox = sandbox.id;
    info.pinned = true;
    machine_->memory().ZeroFrame(first + i);
    // Bind the frame to the sandbox's private domain (TME-MK: keyID binding at
    // the controller, first use programs the key; PKS: no-op, the tag lives in
    // the PTE installed below).
    isolation_->BindFrame(&cpu, first + i, sandbox.domain_tag, false);
    // Pre-populating confined memory costs a demand-fault-with-EMC per page — the
    // paper's one-time initialization overhead (11.5%-52.7%, section 9.2).
    cpu.cycles().Charge(cpu.costs().page_zero + cpu.costs().page_fault_service_native +
                        cpu.costs().emc_round_trip);
  }
  EREBOR_RETURN_IF_ERROR(UnmapFromDirectMap(cpu, first, count));

  // Pre-populate + pin the sandbox mapping (user, writable, NX), tagged with the
  // sandbox's own domain so the mapping matches the frame binding (TME-MK) or
  // carries its key label (PKS; inert on user pages — PKS checks supervisor
  // accesses only — but it keeps the tag algebra uniform across backends).
  const Pte base_flags = pte::kPresent | pte::kUser | pte::kWritable | pte::kNoExecute;
  const Pte leaf_flags = isolation_->WithTag(base_flags, sandbox.domain_tag);
  EREBOR_RETURN_IF_ERROR(
      sandbox.aspace->CreateVma(len, base_flags, VmaKind::kConfined, va).status());
  const TrustedWriter trusted(this, cpu, *sandbox.aspace);
  for (uint64_t i = 0; i < count; ++i) {
    EREBOR_RETURN_IF_ERROR(MapPage(machine_->memory(), sandbox.aspace->root(),
                                   va + AddrOf(i), first + i, leaf_flags, trusted.writer()));
  }
  sandbox.confined_ranges.emplace_back(first, count);
  sandbox.confined_bytes += len;
  return OkStatus();
}

Status SandboxManager::SnapshotTemplate(Cpu& cpu, Sandbox& sandbox) {
  NoteSandboxMutation(cpu, sandbox);
  if (sandbox.state != SandboxState::kInitializing) {
    return FailedPreconditionError("only a pre-seal sandbox can become a template");
  }
  if (sandbox.is_template || sandbox.clone_of != -1) {
    return FailedPreconditionError("sandbox already participates in a template");
  }
  // Freeze every confined mapping read-only and untagged, recording the layout
  // for clones. Confined VMAs are physically contiguous (DeclareConfined uses
  // AllocContiguous), so one (va, first, count) triple per VMA suffices. The W
  // revocation reaches cached translations before any clone shares the frame, or
  // the template itself could keep scribbling on it.
  const TrustedWriter trusted(this, cpu, *sandbox.aspace);
  for (const auto& [start, vma] : sandbox.aspace->vmas()) {
    if (vma.kind != VmaKind::kConfined) {
      continue;
    }
    Sandbox::TemplateRange range;
    range.va = vma.start;
    range.count = (vma.end - vma.start) >> kPageShift;
    for (Vaddr va = vma.start; va < vma.end; va += kPageSize) {
      EREBOR_ASSIGN_OR_RETURN(const WalkResult walk, sandbox.aspace->Lookup(va));
      if (va == vma.start) {
        range.first = FrameOf(walk.pa);
      }
      EREBOR_RETURN_IF_ERROR(trusted(walk.leaf_entry_pa,
                                     isolation_->WithTag(walk.leaf & ~pte::kWritable, 0)));
    }
    Vma* mutable_vma = sandbox.aspace->FindVma(start);
    mutable_vma->flags &= ~pte::kWritable;
    sandbox.template_ranges.push_back(range);
  }
  // Retype + rebind: shared read-only through any clone's untagged view
  // (TME-MK: default keyID with the read-shared bit; PKS: user pages are never
  // key-checked — the cleared W bit is the enforcement on both backends).
  for (const auto& [first, count] : sandbox.confined_ranges) {
    for (uint64_t i = 0; i < count; ++i) {
      FrameInfo& info = frames_->info(first + i);
      info.type = FrameType::kSandboxTemplate;
      info.owner_sandbox = sandbox.id;
      isolation_->BindFrame(&cpu, first + i, 0, /*read_shared=*/true);
    }
  }
  // A parked template serves no tenant: return its isolation domain so the
  // pool never pins one of the backend's scarce keys.
  if (sandbox.domain_tag != 0) {
    isolation_->ReleaseSandboxDomain(sandbox.domain_tag);
    sandbox.domain_tag = 0;
  }
  sandbox.is_template = true;
  MetricsRegistry::Global().Increment("sandbox.templates");
  return OkStatus();
}

StatusOr<Sandbox*> SandboxManager::CloneFromTemplate(Cpu& cpu, Task& leader,
                                                     Sandbox& tmpl,
                                                     const SandboxSpec& spec) {
  if (kernel_ == nullptr) {
    return FailedPreconditionError("sandbox manager not attached to a kernel");
  }
  if (!tmpl.is_template) {
    return FailedPreconditionError("clone source is not a template");
  }
  auto sandbox = std::make_unique<Sandbox>();
  sandbox->id = next_id_++;
  // No AllocateSandboxDomain here: a warm standby must not pin one of the
  // backend's scarce domains (PKS has 11) before it serves a tenant.
  sandbox->domain_deferred = true;
  sandbox->clone_of = tmpl.id;
  sandbox->lock = SimLock("sandbox." + std::to_string(sandbox->id), kRankSandbox,
                          sandbox->id);
  sandbox->spec = spec;
  sandbox->leader = &leader;
  sandbox->aspace = leader.aspace;
  leader.is_sandbox_member = true;
  leader.sandbox_id = sandbox->id;
  // Rebuild the template's confined layout as read-only untagged mappings of
  // the shared frames. Cost is one monitor PTE op per page — the clone's whole
  // delta against the 126k-cycle cold boot — and the reverse map
  // (NoteLeafWrite) records every share for the invariant checker.
  const Pte ro_flags = pte::kPresent | pte::kUser | pte::kNoExecute;
  const TrustedWriter trusted(this, cpu, *sandbox->aspace);
  for (const auto& range : tmpl.template_ranges) {
    EREBOR_RETURN_IF_ERROR(sandbox->aspace
                               ->CreateVma(range.count << kPageShift, ro_flags,
                                           VmaKind::kConfined, range.va)
                               .status());
    for (uint64_t i = 0; i < range.count; ++i) {
      EREBOR_RETURN_IF_ERROR(MapPage(machine_->memory(), sandbox->aspace->root(),
                                     range.va + AddrOf(i), range.first + i, ro_flags,
                                     trusted.writer()));
    }
  }
  ++tmpl.live_clones;
  MetricsRegistry::Global().Increment("sandbox.clones");
  return Adopt(std::move(sandbox));
}

Status SandboxManager::ActivateClone(Cpu& cpu, Sandbox& sandbox) {
  NoteSandboxMutation(cpu, sandbox);
  if (!sandbox.domain_deferred) {
    return OkStatus();
  }
  if (sandbox.state != SandboxState::kInitializing) {
    return FailedPreconditionError("cannot activate a torn-down clone");
  }
  auto domain = isolation_->AllocateSandboxDomain(sandbox.id);
  if (!domain.ok()) {
    MetricsRegistry::Global().Increment("fleet.domain_exhausted");
    return UnavailableError("clone promotion refused: " +
                            std::string(domain.status().message()));
  }
  sandbox.domain_tag = *domain;
  sandbox.domain_deferred = false;
  return OkStatus();
}

Status SandboxManager::BreakCowShare(Cpu& cpu, Sandbox& sandbox, Vaddr page_va) {
  NoteSandboxMutation(cpu, sandbox);
  if (sandbox.clone_of == -1) {
    return FailedPreconditionError("copy-on-write break on a non-clone sandbox");
  }
  if (sandbox.state == SandboxState::kTornDown ||
      sandbox.state == SandboxState::kQuarantined) {
    return FailedPreconditionError("sandbox already torn down");
  }
  page_va = PageAlignDown(page_va);
  EREBOR_ASSIGN_OR_RETURN(const WalkResult walk, sandbox.aspace->Lookup(page_va));
  const FrameNum shared = FrameOf(walk.pa);
  const FrameInfo& shared_info = frames_->info(shared);
  if (shared_info.type != FrameType::kSandboxTemplate ||
      shared_info.owner_sandbox != sandbox.clone_of) {
    return FailedPreconditionError("page is not a shared template page");
  }
  if (sandbox.confined_bytes + kPageSize > sandbox.spec.confined_budget_bytes) {
    return ResourceExhaustedError("confined memory budget exceeded");
  }
  // First break promotes the clone: the private frame needs a domain to bind.
  EREBOR_RETURN_IF_ERROR(ActivateClone(cpu, sandbox));
  EREBOR_ASSIGN_OR_RETURN(const FrameNum priv, cma_->Alloc());
  std::memcpy(machine_->memory().FramePtr(priv), machine_->memory().FramePtr(shared),
              kPageSize);
  cpu.cycles().Charge(cpu.costs().page_copy);
  FrameInfo& info = frames_->info(priv);
  info.type = FrameType::kSandboxConfined;
  info.owner_sandbox = sandbox.id;
  info.pinned = true;
  // The per-frame key retrofit: the private copy is bound to the clone's own
  // domain (TME-MK keyID), never the template's — ROADMAP item 5's follow-on.
  isolation_->BindFrame(&cpu, priv, sandbox.domain_tag, false);
  EREBOR_RETURN_IF_ERROR(UnmapFromDirectMap(cpu, priv, 1));
  const Pte base_flags = pte::kPresent | pte::kUser | pte::kWritable | pte::kNoExecute;
  const TrustedWriter trusted(this, cpu, *sandbox.aspace);
  EREBOR_RETURN_IF_ERROR(MapPage(machine_->memory(), sandbox.aspace->root(), page_va,
                                 priv,
                                 isolation_->WithTag(base_flags, sandbox.domain_tag),
                                 trusted.writer()));
  sandbox.confined_ranges.emplace_back(priv, 1);
  sandbox.confined_bytes += kPageSize;
  ++sandbox.cow_broken_pages;
  MetricsRegistry::Global().Increment("sandbox.cow_breaks");
  return OkStatus();
}

StatusOr<bool> SandboxManager::HandleCowWrite(Cpu& cpu, Sandbox& sandbox, Vaddr addr) {
  if (sandbox.clone_of == -1) {
    return false;
  }
  const Vaddr page_va = PageAlignDown(addr);
  const auto walk = sandbox.aspace->Lookup(page_va);
  if (!walk.ok()) {
    return false;  // not mapped: the kernel's demand-fault path owns this one
  }
  const FrameInfo& info = frames_->info(FrameOf(walk->pa));
  if (info.type != FrameType::kSandboxTemplate ||
      info.owner_sandbox != sandbox.clone_of) {
    return false;
  }
  // Monitor-mediated fault service: after the break the write retries against
  // the clone's private copy.
  cpu.cycles().Charge(cpu.costs().page_fault_service_native +
                      cpu.costs().emc_round_trip);
  EREBOR_RETURN_IF_ERROR(BreakCowShare(cpu, sandbox, page_va));
  return true;
}

StatusOr<CommonRegion*> SandboxManager::CreateCommonRegion(const std::string& name,
                                                           uint64_t len,
                                                           FrameAllocator& pool) {
  len = PageAlignUp(len);
  const uint64_t count = len >> kPageShift;
  EREBOR_ASSIGN_OR_RETURN(const FrameNum first, pool.AllocContiguous(count));
  for (uint64_t i = 0; i < count; ++i) {
    FrameInfo& info = frames_->info(first + i);
    info.type = FrameType::kSandboxCommon;
    info.owner_sandbox = -1;
  }
  CommonRegion region;
  region.id = static_cast<int>(common_regions_.size());
  region.name = name;
  region.first_frame = first;
  region.num_frames = count;
  common_regions_.push_back(region);
  return &common_regions_.back();
}

Status SandboxManager::AttachCommon(Cpu& cpu, Sandbox& sandbox, int region_id, Vaddr va,
                                    bool writable_until_seal) {
  NoteSandboxMutation(cpu, sandbox);
  if (region_id < 0 || region_id >= static_cast<int>(common_regions_.size())) {
    return NotFoundError("no such common region");
  }
  CommonRegion& region = common_regions_[region_id];
  Pte flags = pte::kPresent | pte::kUser | pte::kNoExecute;
  if (writable_until_seal && sandbox.state == SandboxState::kInitializing) {
    flags |= pte::kWritable;
  }
  EREBOR_ASSIGN_OR_RETURN(
      const Vaddr start,
      sandbox.aspace->CreateVma(region.num_frames << kPageShift, flags, VmaKind::kCommon,
                                va));
  Vma* vma = sandbox.aspace->FindVma(start);
  vma->backing.resize(region.num_frames);
  for (uint64_t i = 0; i < region.num_frames; ++i) {
    vma->backing[i] = region.first_frame + i;
  }
  // Pages fault in on demand (this is the #PF source for large common regions, e.g.
  // the llama model in Table 6).
  ++region.attach_count;
  sandbox.attached_regions.push_back(region_id);
  return OkStatus();
}

Status SandboxManager::Seal(Cpu& cpu, Sandbox& sandbox) {
  NoteSandboxMutation(cpu, sandbox);
  if (sandbox.state == SandboxState::kSealed) {
    return OkStatus();
  }
  if (sandbox.state == SandboxState::kTornDown ||
      sandbox.state == SandboxState::kQuarantined) {
    return FailedPreconditionError("sandbox already torn down");
  }
  // A sealed sandbox must never run without isolation: sealing a clone that was
  // never explicitly promoted allocates its deferred domain now (and refuses the
  // seal if the backend is out of domains).
  if (sandbox.domain_deferred) {
    EREBOR_RETURN_IF_ERROR(ActivateClone(cpu, sandbox));
  }
  // Revoke write permission on any common pages already mapped.
  const TrustedWriter trusted(this, cpu, *sandbox.aspace);
  for (const auto& [start, vma] : sandbox.aspace->vmas()) {
    if (vma.kind != VmaKind::kCommon) {
      continue;
    }
    for (Vaddr va = vma.start; va < vma.end; va += kPageSize) {
      const auto walk = sandbox.aspace->Lookup(va);
      if (!walk.ok()) {
        continue;
      }
      EREBOR_RETURN_IF_ERROR(trusted(walk->leaf_entry_pa, walk->leaf & ~pte::kWritable));
    }
    // Future demand-mappings of this VMA must be read-only too.
    Vma* mutable_vma = sandbox.aspace->FindVma(start);
    mutable_vma->flags &= ~pte::kWritable;
  }
  // Disable user-interrupt sending (clear IA32_UINTR_TT.valid on every core).
  for (int i = 0; i < machine_->num_cpus(); ++i) {
    Cpu& c = machine_->cpu(i);
    const auto tt = c.ReadMsr(msr::kIa32UintrTt);
    if (tt.ok()) {
      c.TrustedWriteMsr(msr::kIa32UintrTt, *tt & ~msr::kUintrTtValid);
    }
  }
  sandbox.state = SandboxState::kSealed;
  return OkStatus();
}

Status SandboxManager::Teardown(Cpu& cpu, Sandbox& sandbox) {
  NoteSandboxMutation(cpu, sandbox);
  if (sandbox.state == SandboxState::kTornDown ||
      sandbox.state == SandboxState::kQuarantined) {
    return OkStatus();  // already scrubbed and released
  }
  // A template's frames are mapped into every live clone; scrubbing them now
  // would yank shared pages out from under running tenants.
  if (sandbox.is_template && sandbox.live_clones > 0) {
    return FailedPreconditionError("template still has " +
                                   std::to_string(sandbox.live_clones) +
                                   " live clones");
  }
  // Unmap confined regions from the sandbox's address space first: the frames return
  // to the CMA pool below and must not stay reachable through stale PTEs.
  if (sandbox.aspace) {
    std::vector<Vaddr> confined_starts;
    for (const auto& [start, vma] : sandbox.aspace->vmas()) {
      if (vma.kind == VmaKind::kConfined) {
        confined_starts.push_back(start);
      }
    }
    const TrustedWriter trusted(this, cpu, *sandbox.aspace);
    for (const Vaddr start : confined_starts) {
      const Vma* vma = sandbox.aspace->FindVma(start);
      for (Vaddr va = vma->start; va < vma->end; va += kPageSize) {
        const auto walk = sandbox.aspace->Lookup(va);
        if (!walk.ok()) {
          continue;
        }
        EREBOR_RETURN_IF_ERROR(trusted(walk->leaf_entry_pa, 0));
      }
    }
  }
  // Zeroize all confined memory and session state (paper section 6.3 cleanup).
  for (const auto& [first, count] : sandbox.confined_ranges) {
    for (uint64_t i = 0; i < count; ++i) {
      machine_->memory().ZeroFrame(first + i);
      cpu.cycles().Charge(cpu.costs().page_zero);
      FrameInfo& info = frames_->info(first + i);
      info.type = FrameType::kNormal;
      info.owner_sandbox = -1;
      info.pinned = false;
      info.map_count = 0;
      // Drop the domain binding: the frame returns to the pool as default-tagged.
      isolation_->BindFrame(&cpu, first + i, 0, false);
      (void)cma_->Free(first + i);
    }
  }
  sandbox.confined_ranges.clear();
  sandbox.input_plaintext.clear();
  sandbox.outbound_wire.clear();
  sandbox.session = ChannelSession{};
  // Return the isolation domain to the backend so a future tenant can claim it.
  if (sandbox.domain_tag != 0) {
    isolation_->ReleaseSandboxDomain(sandbox.domain_tag);
    sandbox.domain_tag = 0;
  }
  sandbox.domain_deferred = false;
  // A dying clone stops sharing the template's frames (the unmap loop above
  // already dropped its leaf references and their map counts).
  if (sandbox.clone_of != -1) {
    Sandbox* tmpl = Find(sandbox.clone_of);
    if (tmpl != nullptr && tmpl->live_clones > 0) {
      --tmpl->live_clones;
    }
  }
  sandbox.template_ranges.clear();
  sandbox.state = SandboxState::kTornDown;
  return OkStatus();
}

Status SandboxManager::Quarantine(Cpu& cpu, Sandbox& sandbox, const std::string& reason) {
  NoteSandboxMutation(cpu, sandbox);
  if (sandbox.state == SandboxState::kQuarantined) {
    return OkStatus();
  }
  // Fence state held outside the manager first (in-flight MMU-ring SQEs), so no
  // descriptor staged before the quarantine can be applied after the scrub below
  // releases the frames it targets.
  if (quarantine_hook_) {
    quarantine_hook_(cpu, sandbox);
  }
  // Scrub and release exactly like a normal teardown (confined frames zeroized and
  // returned to the CMA pool, session keys destroyed), then park in kQuarantined so
  // no future channel/ioctl traffic can revive the sandbox.
  EREBOR_RETURN_IF_ERROR(Teardown(cpu, sandbox));
  sandbox.state = SandboxState::kQuarantined;
  sandbox.quarantine_reason = reason;
  MetricsRegistry::Global().Increment("sandbox.quarantined");
  Tracer::Global().Record(TraceEvent::kSandboxQuarantine, cpu.index(), cpu.cycles().now(),
                          sandbox.id);
  LOG_WARN() << "sandbox " << sandbox.id << " quarantined: " << reason;
  return OkStatus();
}

bool SandboxManager::SyscallPermitted(const Sandbox& sandbox, const Task& task, int nr,
                                      const uint64_t* args) const {
  if (sandbox.state == SandboxState::kTornDown ||
      sandbox.state == SandboxState::kQuarantined) {
    return nr == sys::kExit;  // a fenced-off sandbox may only die
  }
  if (sandbox.state != SandboxState::kSealed) {
    return true;  // initialization phase: LibOS sets up via normal syscalls
  }
  switch (nr) {
    case sys::kExit:
      return true;  // termination is handled (and observed) by the monitor
    case sys::kIoctl: {
      // Only the monitor's own device is reachable.
      auto of = task.fds->Get(static_cast<int>(args[0]));
      return of.ok() && (*of)->is_device && (*of)->path == "/dev/erebor";
    }
    default:
      return false;
  }
}

Status SandboxManager::CopyIntoSandbox(Cpu& cpu, Sandbox& sandbox, Vaddr va,
                                       const uint8_t* data, uint64_t len) {
  NoteSandboxMutation(cpu, sandbox);
  if (FaultInjector::Armed() &&
      FaultInjector::Global().Fire("sandbox.copy_in", FaultAction::kFail)) {
    // Transient shepherd fault: the caller leaves the input queued and retries, so
    // the error code must read as EAGAIN to the LibOS retry contract.
    return UnavailableError("injected shepherd fault (sandbox.copy_in)");
  }
  // Every touched page must be confined memory owned by this sandbox: the shepherd
  // never writes client data anywhere an outsider could see.
  uint64_t done = 0;
  while (done < len) {
    const Vaddr page_va = va + done;
    EREBOR_ASSIGN_OR_RETURN(WalkResult walk, sandbox.aspace->Lookup(page_va));
    const FrameInfo* info = &frames_->info(FrameOf(walk.pa));
    // A clone's target may still be a shared template page: the shepherd write
    // is the first mutation, so break the share here (the guest's own writes
    // take the #PF path instead).
    if (info->type == FrameType::kSandboxTemplate &&
        info->owner_sandbox == sandbox.clone_of && sandbox.clone_of != -1) {
      EREBOR_RETURN_IF_ERROR(BreakCowShare(cpu, sandbox, page_va));
      EREBOR_ASSIGN_OR_RETURN(walk, sandbox.aspace->Lookup(page_va));
      info = &frames_->info(FrameOf(walk.pa));
    }
    if (info->type != FrameType::kSandboxConfined || info->owner_sandbox != sandbox.id) {
      return PermissionDeniedError("shepherd target is not this sandbox's confined memory");
    }
    const uint64_t take = std::min(len - done, kPageSize - (page_va & kPageMask));
    EREBOR_RETURN_IF_ERROR(machine_->memory().Write(walk.pa, data + done, take));
    done += take;
  }
  cpu.cycles().Charge(len * cpu.costs().crypto_per_byte_x100 / 100);
  return OkStatus();
}

Status SandboxManager::CopyFromSandbox(Cpu& cpu, Sandbox& sandbox, Vaddr va, uint8_t* out,
                                       uint64_t len) {
  NoteSandboxMutation(cpu, sandbox);
  uint64_t done = 0;
  while (done < len) {
    const Vaddr page_va = va + done;
    EREBOR_ASSIGN_OR_RETURN(const WalkResult walk, sandbox.aspace->Lookup(page_va));
    const FrameInfo& info = frames_->info(FrameOf(walk.pa));
    const bool confined =
        info.type == FrameType::kSandboxConfined && info.owner_sandbox == sandbox.id;
    const bool common = info.type == FrameType::kSandboxCommon;
    // Clones may read still-shared template pages: templates hold only the
    // pre-attestation LibOS image, never client secrets.
    const bool cow_shared = info.type == FrameType::kSandboxTemplate &&
                            sandbox.clone_of != -1 &&
                            info.owner_sandbox == sandbox.clone_of;
    if (!confined && !common && !cow_shared) {
      return PermissionDeniedError("shepherd source is not sandbox memory");
    }
    const uint64_t take = std::min(len - done, kPageSize - (page_va & kPageMask));
    EREBOR_RETURN_IF_ERROR(machine_->memory().Read(walk.pa, out + done, take));
    done += take;
  }
  cpu.cycles().Charge(len * cpu.costs().crypto_per_byte_x100 / 100);
  return OkStatus();
}

Status SandboxManager::ValidateCommonMapping(Paddr root, FrameNum frame,
                                             bool writable) const {
  // Find the live sandbox owning this page-table root: a torn-down or quarantined
  // one keeps its slot but owns nothing, and its root frame may be a new tenant's.
  const Sandbox* owner = nullptr;
  for (const auto& sandbox : sandboxes_) {
    if (sandbox != nullptr && sandbox->aspace && sandbox->aspace->root() == root &&
        sandbox->state != SandboxState::kTornDown &&
        sandbox->state != SandboxState::kQuarantined) {
      owner = sandbox.get();
      break;
    }
  }
  if (owner == nullptr) {
    return PermissionDeniedError("common frames may only be mapped into sandboxes");
  }
  // The frame must belong to a region attached to that sandbox.
  bool attached = false;
  for (const int region_id : owner->attached_regions) {
    const CommonRegion& region = common_regions_[region_id];
    if (frame >= region.first_frame && frame < region.first_frame + region.num_frames) {
      attached = true;
      break;
    }
  }
  if (!attached) {
    return PermissionDeniedError("common region not attached to this sandbox");
  }
  if (writable && owner->state == SandboxState::kSealed) {
    return PermissionDeniedError("common memory is read-only after sealing");
  }
  return OkStatus();
}

}  // namespace erebor
