// The guest operating system kernel (untrusted in the Erebor threat model).
//
// A deliberately small but real OS: boot (CR/MSR/IDT setup through PrivilegedOps),
// physical frame management, process/thread lifecycle, a round-robin scheduler with
// APIC-timer preemption, a Linux-flavoured syscall table, demand paging, an in-memory
// filesystem, signals, futexes, a character-device registry (hosting /dev/erebor), and
// a GHCI-backed virtio-style network path used by the untrusted proxy.
//
// Interposition hooks: when Erebor is active the monitor substitutes the IDT and the
// syscall entry (IA32_LSTAR) with its own stubs, which wrap the kernel entry points
// declared here. The kernel itself never needs to know whether it is being interposed,
// which is exactly the paper's drop-in property.
#ifndef EREBOR_SRC_KERNEL_KERNEL_H_
#define EREBOR_SRC_KERNEL_KERNEL_H_

#include <algorithm>
#include <array>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "src/host/vmm.h"
#include "src/hw/machine.h"
#include "src/kernel/fs.h"
#include "src/kernel/frame_alloc.h"
#include "src/kernel/layout.h"
#include "src/kernel/privops.h"
#include "src/kernel/syscalls.h"
#include "src/kernel/task.h"
#include "src/tdx/tdx_module.h"

namespace erebor {

class Kernel;

// Registers a callable so an integer syscall argument can refer to it (clone entry
// points, signal handlers). Returns the token to pass through the syscall.
uint64_t StashProgram(ProgramFn fn);
uint64_t StashSignalHandler(SignalHandlerFn fn);

struct KernelStats {
  uint64_t syscalls = 0;
  uint64_t page_faults = 0;
  uint64_t timer_interrupts = 0;
  uint64_t device_interrupts = 0;
  uint64_t ve_exits = 0;          // #VE events (cpuid and other synchronous exits)
  uint64_t context_switches = 0;
  uint64_t signals_delivered = 0;
  uint64_t forks = 0;
  Cycles boot_cycles = 0;

  void Reset() { *this = KernelStats{}; }
};

// User-side API handed to program step functions: syscall issue, user-memory access
// with demand paging, compute-cycle accounting, and preemption polling.
class SyscallContext {
 public:
  SyscallContext(Kernel* kernel, Task* task, Cpu* cpu)
      : kernel_(kernel), task_(task), cpu_(cpu) {}

  Kernel& kernel() { return *kernel_; }
  Task& task() { return *task_; }
  Cpu& cpu() { return *cpu_; }

  // Issues a syscall (charges transition cost, runs the kernel entry in supervisor
  // mode, returns to user). For a sealed sandbox task the monitor stub kills the task:
  // the returned status is kAborted and the task must stop running.
  StatusOr<uint64_t> Syscall(int nr, uint64_t a0 = 0, uint64_t a1 = 0, uint64_t a2 = 0,
                             uint64_t a3 = 0, uint64_t a4 = 0, uint64_t a5 = 0);

  // cpuid "instruction": inside a CVM this raises #VE; the handler performs the
  // hypercall (or, for sealed sandboxes, the monitor serves its cached values).
  StatusOr<uint64_t> Cpuid(uint32_t leaf);

  // Models a faulting instruction in user code (divide-by-zero, ud2, ...): delivers
  // the exception through the IDT. The task is usually dead afterwards.
  Status RaiseException(Vector vector, const std::string& reason);

  // User-memory access with demand paging: on #PF the kernel fault path runs and the
  // access retries. A true segfault (no VMA) kills the task.
  Status ReadUser(Vaddr va, uint8_t* out, uint64_t len);
  Status WriteUser(Vaddr va, const uint8_t* data, uint64_t len);
  // Faults in the page containing va and returns a host pointer to it (valid within
  // the page only) — the fast path for compute kernels.
  StatusOr<uint8_t*> PagePtr(Vaddr va, bool for_write);

  // Charges user compute cycles.
  void Compute(Cycles cycles);

  // Preemption point: delivers pending interrupts and signals. Returns false if the
  // task was killed and must unwind.
  bool Poll();

  uint64_t syscalls_made = 0;

 private:
  Kernel* kernel_;
  Task* task_;
  Cpu* cpu_;
};

// Page-granular user-memory access for compute loops: translates and checks each
// page once, then serves further loads and stores within it from the host pointer.
// A small direct-mapped table of {page, host page base, epoch} that lives on the
// stack and never allocates. At(va) serves a cached page only while
// cpu.access_epoch() is unchanged and the access kind was already checked (a
// checked write also admits reads); anything else goes through PagePtr, so the #PF,
// demand-fault and error path is unchanged. Each served access counts one tlb.hits,
// exactly as PagePtr's TLB hit would (flushed when the cursor dies). With the TLB
// disabled nothing is cached.
//
// Host pointers are valid to the end of their page only: the next simulated page
// may live in any host frame. A loop over consecutive elements takes them a page
// run at a time through Span, which refuses a run that would leave its page.
//
// Slice-local: a task may run on another vCPU in its next slice, so a cursor never
// outlives the step function call that created it.
class PageCursor {
 public:
  explicit PageCursor(SyscallContext& ctx) : ctx_(ctx), cpu_(ctx.cpu()) {}
  ~PageCursor() {
    if (hits_ != 0) {
      CounterAdd(Tlb::GlobalStats().hits, hits_);
    }
  }
  PageCursor(const PageCursor&) = delete;
  PageCursor& operator=(const PageCursor&) = delete;

  // Host pointer to va (valid within its page only), or nullptr with the failure
  // kept in status().
  uint8_t* At(Vaddr va, bool write) {
    const Entry& e = entries_[Slot(va)];
    if (e.page == (va & ~kPageMask) && e.epoch == cpu_.access_epoch() &&
        (e.writable || !write)) {
      ++hits_;
      return e.base + (va & kPageMask);
    }
    return Miss(va, write);
  }

  // Host pointer to the n >= 1 elements of type T from va, all inside va's page:
  // one At(va, write), then n - 1 accesses to a page this cursor has just checked,
  // counted as the n - 1 hits that per-element At calls would count (with the TLB
  // disabled At caches nothing, so the run is one translation). nullptr, with the
  // failure kept in status(), when At fails or when the run is empty or would
  // cross the page's end. The pointer is for the loop at hand: like At's, it does
  // not follow a later change to the page's mapping.
  template <typename T>
  T* Span(Vaddr va, uint64_t n, bool write) {
    if (n == 0 || n > PageRun<T>(va, n)) {
      Refuse(va, n * sizeof(T));
      return nullptr;
    }
    uint8_t* first = At(va, write);
    if (first != nullptr && Tlb::Enabled()) {
      hits_ += n - 1;
    }
    return reinterpret_cast<T*>(first);
  }

  // How many of the n elements of type T from va lie inside va's page.
  template <typename T>
  static uint64_t PageRun(Vaddr va, uint64_t n) {
    return std::min<uint64_t>(n, (kPageSize - (va & kPageMask)) / sizeof(T));
  }

  // The first failed access's status; OK while every access succeeded.
  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

 private:
  static constexpr size_t kEntries = 64;
  static constexpr Vaddr kNoPage = 1;  // never page-aligned, so never a match
  struct Entry {
    Vaddr page = kNoPage;
    uint8_t* base = nullptr;
    uint64_t epoch = 0;
    bool writable = false;
  };

  static size_t Slot(Vaddr va) { return (va >> kPageShift) & (kEntries - 1); }
  uint8_t* Miss(Vaddr va, bool write);
  void Refuse(Vaddr va, uint64_t bytes);

  SyscallContext& ctx_;
  Cpu& cpu_;
  uint64_t hits_ = 0;
  Status status_;
  std::array<Entry, kEntries> entries_{};
};

// Device ioctl signature: (context, task, request, arg_va) -> result.
using DeviceIoctlFn =
    std::function<StatusOr<uint64_t>(SyscallContext&, Task&, uint64_t, Vaddr)>;

// Kernel syscall entry signature, as reachable from the LSTAR-configured entry label.
using SyscallEntryFn =
    std::function<StatusOr<uint64_t>(SyscallContext&, Task&, int, const uint64_t*)>;

struct KernelConfig {
  Cycles timer_period = 2'100'000;  // ~1 kHz at the paper's 2.1 GHz
  bool enable_smep_smap = true;
  uint64_t shared_net_buffer_frames = 64;  // 256 KiB virtio ring (the channel MTU)
};

class Kernel {
 public:
  Kernel(Machine* machine, PrivilegedOps* ops, TdxModule* tdx, HostVmm* host,
         KernelConfig config = {});

  // ---- Boot ----
  // Builds the kernel address space, programs CRs/MSRs/IDT through PrivilegedOps,
  // converts the shared-IO window, and starts the timer.
  Status Boot();

  // ---- Accessors ----
  Machine& machine() { return *machine_; }
  Cpu& boot_cpu() { return machine_->cpu(0); }
  PrivilegedOps& privops() { return *ops_; }
  RamFs& fs() { return fs_; }
  KernelStats& stats() { return stats_; }
  FrameAllocator& pool() { return *pool_; }
  FrameAllocator& cma() { return *cma_; }
  AddressSpace& kernel_aspace() { return *kernel_aspace_; }
  const KernelConfig& config() const { return config_; }
  const IdtTable& kernel_idt() const { return idt_; }

  // ---- Processes / threads ----
  StatusOr<Task*> SpawnProcess(const std::string& name, ProgramFn program);
  StatusOr<Task*> SpawnThread(Task& parent, const std::string& name, ProgramFn program);
  Task* FindTask(int tid);
  void KillTask(Task& task, const std::string& reason);
  int live_tasks() const;

  // ---- Scheduler ----
  // Runs until no runnable tasks remain or `max_slices` quanta have executed.
  void Run(uint64_t max_slices = UINT64_MAX);
  // Runs a single scheduling round across CPUs. Returns false when idle.
  bool RunOnce();

  // ---- Kernel entry points (wrapped by the monitor when Erebor is active) ----
  StatusOr<uint64_t> SyscallEntry(SyscallContext& ctx, Task& task, int nr,
                                  const uint64_t* args);
  void PageFaultEntry(Cpu& cpu, const Fault& fault);
  void TimerEntry(Cpu& cpu, const Fault& fault);
  void VeEntry(Cpu& cpu, const Fault& fault);

  // Interposition hooks (installed by the monitor).
  using SyscallInterposer = std::function<StatusOr<uint64_t>(
      SyscallContext&, Task&, int, const uint64_t*, const SyscallEntryFn& kernel_entry)>;
  using InterruptInterposer =
      std::function<void(Cpu&, const Fault&, const std::function<void()>& kernel_handler)>;
  void SetSyscallInterposer(SyscallInterposer interposer);
  void SetInterruptInterposer(InterruptInterposer interposer);
  using VeInterposer = std::function<StatusOr<uint64_t>(SyscallContext&, Task&, uint32_t,
                                                        const std::function<StatusOr<uint64_t>()>&)>;
  void SetVeInterposer(VeInterposer interposer);
  // Called after a task is marked killed (monitor policy, segfault, ...). The monitor
  // uses this to quarantine the victim's sandbox instead of leaving it half-alive.
  using KillObserver = std::function<void(Task&, const std::string& reason)>;
  void SetKillObserver(KillObserver observer) { kill_observer_ = std::move(observer); }

  // ---- Devices ----
  int RegisterDevice(const std::string& path, DeviceIoctlFn handler);

  // Services demand faults for a user range before a kernel-initiated usercopy (the
  // kernel's equivalent of handling #PF raised inside copy_from/to_user). Also used by
  // the monitor before shepherding data into untrusted user buffers.
  Status FaultInUserRange(SyscallContext& ctx, Task& task, Vaddr va, uint64_t len);

  // ---- Networking (GHCI-backed) ----
  Status NetSend(Cpu& cpu, const Bytes& packet);
  StatusOr<Bytes> NetReceive(Cpu& cpu);

  // Current task on a CPU (set during a quantum; null when idle).
  Task* current(int cpu_index) { return current_[cpu_index]; }

  // Internal syscall implementation, public for the monitor's forwarding stub.
  friend class SyscallContext;

 private:
  struct Device {
    std::string path;
    DeviceIoctlFn handler;
  };

  Status SetupIdt();
  Status SetupSyscallMsr();
  void DeliverInterruptsFor(Cpu& cpu, Task* task);
  void DeliverSignals(SyscallContext& ctx, Task& task);
  Task* PickNext();
  void ContextSwitch(Cpu& cpu, Task* task);
  void ReapTask(Task& task);

  StatusOr<uint64_t> DoSyscall(SyscallContext& ctx, Task& task, int nr,
                               const uint64_t* args);
  StatusOr<uint64_t> SysMmap(SyscallContext& ctx, Task& task, const uint64_t* args);
  StatusOr<uint64_t> SysReadWrite(SyscallContext& ctx, Task& task, int nr,
                                  const uint64_t* args);
  StatusOr<uint64_t> SysFutex(SyscallContext& ctx, Task& task, const uint64_t* args);
  StatusOr<uint64_t> SysForkClone(SyscallContext& ctx, Task& task, int nr,
                                  const uint64_t* args);

  Machine* machine_;
  PrivilegedOps* ops_;
  TdxModule* tdx_;
  HostVmm* host_;
  KernelConfig config_;

  std::unique_ptr<FrameAllocator> pool_;  // general-purpose frames
  std::unique_ptr<FrameAllocator> cma_;   // contiguous region for confined memory
  std::unique_ptr<AddressSpace> kernel_aspace_;
  RamFs fs_;
  KernelStats stats_;
  IdtTable idt_;
  CodeLabelId syscall_entry_label_ = kInvalidCodeLabel;

  std::vector<std::unique_ptr<Task>> tasks_;
  std::deque<Task*> run_queue_;
  std::vector<Task*> current_;
  int next_tid_ = 1;

  std::vector<Device> devices_;
  Paddr net_buffer_pa_ = 0;

  SyscallInterposer syscall_interposer_;
  InterruptInterposer interrupt_interposer_;
  VeInterposer ve_interposer_;
  KillObserver kill_observer_;

  bool booted_ = false;
};

}  // namespace erebor

#endif  // EREBOR_SRC_KERNEL_KERNEL_H_
