// Erebor-Sandbox lifecycle and data-protection enforcement (paper section 6).
//
// A sandbox wraps one guest process (all its tasks). Its memory is split into
// *confined* regions (exclusively owned, pinned, single-mapped, unmapped from the
// kernel direct map) and *common* regions (monitor-managed frames shared read-only
// across sandboxes). Once client data is installed the sandbox is *sealed*: system
// calls and synchronous exits become fatal, user-interrupt sending is disabled, common
// memory becomes read-only, and external interrupts have the register file scrubbed
// before the untrusted OS sees it.
#ifndef EREBOR_SRC_MONITOR_SANDBOX_H_
#define EREBOR_SRC_MONITOR_SANDBOX_H_

#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "src/kernel/kernel.h"
#include "src/monitor/channel.h"
#include "src/monitor/frame_table.h"
#include "src/monitor/mmu_policy.h"
#include "src/monitor/sim_lock.h"

namespace erebor {

struct SandboxSpec {
  std::string name;
  uint64_t confined_budget_bytes = 32ull << 20;
  int max_threads = 8;
  uint64_t output_pad_bytes = 4096;
  // Consecutive shepherd/channel faults tolerated before the sandbox is quarantined.
  uint64_t max_fault_strikes = 8;
};

// kQuarantined is a terminal state like kTornDown (memory already scrubbed and
// released) but records that the monitor gave up on the sandbox because of repeated
// faults or an invariant violation, rather than a normal end-of-session teardown.
enum class SandboxState : uint8_t { kInitializing, kSealed, kTornDown, kQuarantined };

struct CommonRegion {
  int id = -1;
  std::string name;
  FrameNum first_frame = 0;
  uint64_t num_frames = 0;
  int attach_count = 0;
};

struct SandboxExitStats {
  uint64_t page_faults = 0;
  uint64_t timer_interrupts = 0;
  uint64_t ve_exits = 0;
  uint64_t device_interrupts = 0;
  uint64_t kills = 0;
  uint64_t ioctl_io = 0;
  uint64_t total() const {
    return page_faults + timer_interrupts + ve_exits + device_interrupts;
  }
};

struct Sandbox {
  int id = -1;
  SandboxSpec spec;
  SandboxState state = SandboxState::kInitializing;
  Task* leader = nullptr;
  std::shared_ptr<AddressSpace> aspace;

  // Per-sandbox EMC serialization: every gated operation
  // that mutates this sandbox holds it; LockAudit checks the discipline at the
  // manager's mutation entry points. Bound to the id in SandboxManager::Create.
  SimLock lock;

  std::vector<std::pair<FrameNum, uint64_t>> confined_ranges;  // (first, count)
  uint64_t confined_bytes = 0;
  std::vector<int> attached_regions;

  ChannelSession session;
  std::deque<Bytes> input_plaintext;  // decrypted client payloads awaiting INPUT ioctl
  std::deque<Bytes> outbound_wire;    // serialized result packets awaiting the proxy

  SandboxExitStats exits;
  // Register save area used by exit interposition (monitor memory in the real system).
  Gprs interposition_save;
  bool interposition_active = false;
  // Side-channel mitigation bookkeeping (exit-rate window).
  Cycles exit_window_start = 0;
  uint64_t exits_in_window = 0;

  // Graceful-degradation accounting: consecutive faults observed on this sandbox's
  // trusted paths (reset to zero on any success). Reaching spec.max_fault_strikes
  // quarantines the sandbox.
  uint64_t fault_strikes = 0;
  std::string quarantine_reason;

  // Isolation domain held from Create until Teardown/Quarantine: a PKS key
  // (5..15) or a TME-MK keyID (5..2047), allocated through the backend.
  uint32_t domain_tag = 0;

  // ---- Template/clone machinery (ROADMAP item 2) ----
  // A template sandbox is frozen after attestation/LibOS init: its confined
  // frames are retyped kSandboxTemplate, rebound to the default domain
  // read-shared, and its own mappings go read-only. Clones map those frames
  // copy-on-write and re-confine each page privately on first write.
  bool is_template = false;
  // Clones only: the template sandbox id whose pages this clone shares.
  int clone_of = -1;
  // Warm standbys hold no isolation domain until promotion (the PKS budget is
  // 11 keys; a parked pool must not starve live tenants). Set at clone time,
  // cleared by ActivateClone.
  bool domain_deferred = false;
  // Template only: the frozen confined layout recorded at snapshot time, used
  // by CloneFromTemplate to rebuild each clone's page tables.
  struct TemplateRange {
    Vaddr va = 0;
    FrameNum first = 0;
    uint64_t count = 0;
  };
  std::vector<TemplateRange> template_ranges;
  // Template only: clones currently sharing our frames (blocks teardown).
  uint32_t live_clones = 0;
  // Clones only: pages privately re-confined by copy-on-write breaks.
  uint64_t cow_broken_pages = 0;
};

// Manages all sandboxes. The monitor owns exactly one of these.
class SandboxManager {
 public:
  SandboxManager(Machine* machine, FrameTable* frames, MmuPolicy* policy,
                 IsolationBackend* isolation);

  // Binds the kernel (for task lookups) and takes ownership of the confined-memory
  // CMA range.
  void Attach(Kernel* kernel, FrameNum cma_first, uint64_t cma_frames);

  // ---- Lifecycle ----
  StatusOr<Sandbox*> Create(Task& leader, const SandboxSpec& spec);
  // O(1): the table is indexed by id. Torn-down and quarantined sandboxes are
  // still found; an id never handed out, or whose launch was refused, is nullptr.
  Sandbox* Find(int id) {
    const size_t slot = static_cast<size_t>(id);  // negative ids wrap past the end
    return slot < sandboxes_.size() ? sandboxes_[slot].get() : nullptr;
  }
  Sandbox* FindByTask(const Task& task) {
    return task.is_sandbox_member ? Find(task.sandbox_id) : nullptr;
  }

  // Declares a confined region of `len` bytes at sandbox VA `va` (pre-seal only).
  Status DeclareConfined(Cpu& cpu, Sandbox& sandbox, Vaddr va, uint64_t len);

  // ---- Template snapshots and copy-on-write clones (ROADMAP item 2) ----
  // Freezes a fully initialized (pre-seal) sandbox as a clone template: its
  // confined frames are retyped kSandboxTemplate, rebound to the default
  // domain read-shared, its own leaf mappings go read-only, and its isolation
  // domain returns to the backend (a parked template serves no tenant).
  Status SnapshotTemplate(Cpu& cpu, Sandbox& sandbox);

  // Creates a new sandbox whose confined layout is the template's, mapped
  // copy-on-write: every page references the shared template frame, read-only
  // and untagged. No isolation domain is allocated (domain_deferred) — clones
  // are warm standbys until ActivateClone. Cost is one monitor PTE op per
  // page, not the 126k-cycle attestation + LibOS bring-up of a cold boot.
  StatusOr<Sandbox*> CloneFromTemplate(Cpu& cpu, Task& leader, Sandbox& tmpl,
                                       const SandboxSpec& spec);

  // Promotion half of the warm pool: allocates the clone's isolation domain.
  // Idempotent; failure (backend budget exhausted) is counted in
  // fleet.domain_exhausted exactly like a refused cold-boot admission.
  Status ActivateClone(Cpu& cpu, Sandbox& sandbox);

  // Re-confines one shared template page privately: allocate a CMA frame, copy
  // the template contents, bind the clone's own domain tag (the TME-MK keyID
  // retrofit), and remap the leaf writable+tagged. Lazily activates a deferred
  // clone on its first break.
  Status BreakCowShare(Cpu& cpu, Sandbox& sandbox, Vaddr page_va);

  // #PF-driven CoW entry point (called by the monitor's interrupt interposer
  // before the kernel's demand-fault path). Returns true if `addr` hit a
  // shared template page and the share was broken (the faulting access should
  // be retried), false if this fault is not ours to handle.
  StatusOr<bool> HandleCowWrite(Cpu& cpu, Sandbox& sandbox, Vaddr addr);

  // Common regions.
  StatusOr<CommonRegion*> CreateCommonRegion(const std::string& name, uint64_t len,
                                             FrameAllocator& pool);
  Status AttachCommon(Cpu& cpu, Sandbox& sandbox, int region_id, Vaddr va,
                      bool writable_until_seal);

  // Seals the sandbox (first client data installed): common memory goes read-only,
  // user interrupts are disabled, exits become fatal.
  Status Seal(Cpu& cpu, Sandbox& sandbox);

  // Zeroizes and releases everything (paper: cleanup after the client session ends).
  Status Teardown(Cpu& cpu, Sandbox& sandbox);

  // Quarantines a misbehaving sandbox: scrubs and releases its memory exactly like
  // Teardown, then parks it in kQuarantined so the rest of the system keeps running
  // while this one is permanently fenced off. Idempotent.
  Status Quarantine(Cpu& cpu, Sandbox& sandbox, const std::string& reason);

  // Invoked once per (non-idempotent) Quarantine, before the teardown scrub, so
  // subsystems holding per-sandbox state the manager cannot see — the MMU-ring
  // table with its in-flight SQEs — can drain and fence it. Without the fence a
  // quarantined sandbox's still-bound ring keeps accepting doorbells and its
  // pending descriptors would be applied against released frames.
  using QuarantineHook = std::function<void(Cpu&, Sandbox&)>;
  void SetQuarantineHook(QuarantineHook hook) { quarantine_hook_ = std::move(hook); }

  // ---- Exit-policy queries used by the monitor's interposition stubs ----
  // Returns true if `nr` is permitted for a task of this sandbox in its current state.
  bool SyscallPermitted(const Sandbox& sandbox, const Task& task, int nr,
                        const uint64_t* args) const;

  // ---- Trusted data movement (the data shepherd) ----
  // Writes `data` into sandbox memory at `va` (must be confined) / reads from it.
  Status CopyIntoSandbox(Cpu& cpu, Sandbox& sandbox, Vaddr va, const uint8_t* data,
                         uint64_t len);
  Status CopyFromSandbox(Cpu& cpu, Sandbox& sandbox, Vaddr va, uint8_t* out, uint64_t len);

  // Validates that a user mapping request (root, frame, writable) is a legitimate
  // common-region mapping — the MmuPolicy hook. The owner is the live sandbox whose
  // address space has that root: a torn-down or quarantined sandbox owns none.
  Status ValidateCommonMapping(Paddr root, FrameNum frame, bool writable) const;

  // The monitor's own PTE-writer state for one mapping call into `aspace`: every
  // PTE store of the sandbox manager goes through it (confined pre-population and
  // teardown unmaps, direct-map unmaps, template and seal-time W strips, clone
  // layout, CoW break). It lives in the caller's frame; writer() hands out
  // non-owning references to it.
  class TrustedWriter {
   public:
    TrustedWriter(SandboxManager* manager, Cpu& cpu, AddressSpace& aspace)
        : manager_(manager), cpu_(cpu), aspace_(aspace) {}
    // write_pte: a direct store with frame-table accounting and TLB shootdown.
    Status operator()(Paddr entry_pa, Pte value) const;
    // alloc_ptp: a kernel-pool frame, zeroed and typed as a tagged PTP.
    StatusOr<FrameNum> operator()() const;
    PteWriter writer() const { return {*this, *this}; }

   private:
    SandboxManager* manager_;
    Cpu& cpu_;
    AddressSpace& aspace_;
  };

  // Every sandbox in id order, at index id; null slots are ids without one.
  const std::vector<std::unique_ptr<Sandbox>>& sandboxes() const { return sandboxes_; }
  uint64_t cma_frames_used() const { return cma_ ? cma_->used() : 0; }

 private:
  Status UnmapFromDirectMap(Cpu& cpu, FrameNum first, uint64_t count);
  // Stores a new sandbox at its id's slot, growing the table to reach it.
  Sandbox* Adopt(std::unique_ptr<Sandbox> sandbox);

  Machine* machine_;
  FrameTable* frames_;
  MmuPolicy* policy_;
  IsolationBackend* isolation_;
  Kernel* kernel_ = nullptr;
  std::unique_ptr<FrameAllocator> cma_;
  std::vector<std::unique_ptr<Sandbox>> sandboxes_;  // indexed by id
  // Deque, not vector: CreateCommonRegion hands out pointers into this container and
  // a vector would invalidate them on reallocation.
  std::deque<CommonRegion> common_regions_;
  QuarantineHook quarantine_hook_;
  int next_id_ = 1;
};

}  // namespace erebor

#endif  // EREBOR_SRC_MONITOR_SANDBOX_H_
