#include "src/kernel/kernel.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "src/common/backoff.h"
#include "src/common/faultpoint.h"
#include "src/common/log.h"
#include "src/common/metrics.h"
#include "src/common/trace.h"

namespace erebor {

namespace {
// Program/handler stashes: syscall arguments are integers, so callables crossing the
// syscall boundary (clone entry points, signal handlers) are registered here first and
// referenced by token.
struct Stash {
  std::map<uint64_t, ProgramFn> programs;
  std::map<uint64_t, SignalHandlerFn> signals;
  uint64_t next_token = 1;
};
Stash& GetStash() {
  static Stash stash;
  return stash;
}
}  // namespace

uint64_t StashProgram(ProgramFn fn) {
  Stash& stash = GetStash();
  const uint64_t token = stash.next_token++;
  stash.programs[token] = std::move(fn);
  return token;
}

uint64_t StashSignalHandler(SignalHandlerFn fn) {
  Stash& stash = GetStash();
  const uint64_t token = stash.next_token++;
  stash.signals[token] = std::move(fn);
  return token;
}

Kernel::Kernel(Machine* machine, PrivilegedOps* ops, TdxModule* tdx, HostVmm* host,
               KernelConfig config)
    : machine_(machine), ops_(ops), tdx_(tdx), host_(host), config_(config) {
  current_.resize(machine->num_cpus(), nullptr);
}

Status Kernel::Boot() {
  Cpu& cpu = boot_cpu();
  const Cycles boot_start = cpu.cycles().now();

  // Physical pools: [general | CMA]; CMA occupies the top kCmaFractionPercent of RAM.
  const FrameNum total = machine_->memory().num_frames();
  const FrameNum cma_frames = total * layout::kCmaFractionPercent / 100;
  const FrameNum cma_first = total - cma_frames;
  pool_ = std::make_unique<FrameAllocator>(layout::kGeneralPoolFirstFrame,
                                           cma_first - layout::kGeneralPoolFirstFrame);
  cma_ = std::make_unique<FrameAllocator>(cma_first, cma_frames);

  EREBOR_ASSIGN_OR_RETURN(kernel_aspace_,
                          BuildKernelAddressSpace(cpu, machine_, ops_, pool_.get()));

  // Program every CPU: CR3, protection bits, IDT, syscall entry.
  EREBOR_RETURN_IF_ERROR(SetupIdt());
  EREBOR_RETURN_IF_ERROR(SetupSyscallMsr());
  for (int i = 0; i < machine_->num_cpus(); ++i) {
    Cpu& c = machine_->cpu(i);
    EREBOR_RETURN_IF_ERROR(ops_->WriteCr(c, 3, kernel_aspace_->root()));
    EREBOR_RETURN_IF_ERROR(ops_->WriteCr(c, 0, cr::kCr0Wp));
    uint64_t cr4 = c.cr4();
    if (config_.enable_smep_smap) {
      cr4 |= cr::kCr4Smep | cr::kCr4Smap;
    }
    EREBOR_RETURN_IF_ERROR(ops_->WriteCr(c, 4, cr4));
  }

  // Shared-IO window for device DMA: convert to shared via the GHCI.
  net_buffer_pa_ = AddrOf(layout::kSharedIoFirstFrame);
  uint64_t args[3] = {net_buffer_pa_, config_.shared_net_buffer_frames, 1};
  EREBOR_RETURN_IF_ERROR(ops_->Tdcall(cpu, tdcall_leaf::kMapGpa, args, 3));

  machine_->interrupts().SetTimerPeriod(config_.timer_period);

  stats_.boot_cycles = cpu.cycles().now() - boot_start;
  booted_ = true;
  return OkStatus();
}

Status Kernel::SetupIdt() {
  CodeRegistry& registry = machine_->registry();
  const CodeLabelId pf_label = registry.Register("kernel_page_fault", CodeDomain::kKernel, true);
  const CodeLabelId timer_label = registry.Register("kernel_timer", CodeDomain::kKernel, true);
  const CodeLabelId device_label = registry.Register("kernel_device_irq", CodeDomain::kKernel, true);
  const CodeLabelId ve_label = registry.Register("kernel_ve", CodeDomain::kKernel, true);
  const CodeLabelId gp_label = registry.Register("kernel_gp", CodeDomain::kKernel, true);
  const CodeLabelId excp_label =
      registry.Register("kernel_fatal_exception", CodeDomain::kKernel, true);

  idt_.gate[static_cast<uint8_t>(Vector::kPageFault)] = pf_label;
  idt_.gate[static_cast<uint8_t>(Vector::kTimer)] = timer_label;
  idt_.gate[static_cast<uint8_t>(Vector::kDevice)] = device_label;
  idt_.gate[static_cast<uint8_t>(Vector::kVirtualizationException)] = ve_label;
  idt_.gate[static_cast<uint8_t>(Vector::kGeneralProtection)] = gp_label;
  idt_.gate[static_cast<uint8_t>(Vector::kDivideError)] = excp_label;
  idt_.gate[static_cast<uint8_t>(Vector::kInvalidOpcode)] = excp_label;

  for (int i = 0; i < machine_->num_cpus(); ++i) {
    Cpu& c = machine_->cpu(i);
    c.BindHandler(pf_label, [this](Cpu& cpu, const Fault& f) { PageFaultEntry(cpu, f); });
    c.BindHandler(timer_label, [this](Cpu& cpu, const Fault& f) { TimerEntry(cpu, f); });
    c.BindHandler(device_label, [this](Cpu& cpu, const Fault& f) {
      const auto kernel_handler = [this] { ++stats_.device_interrupts; };
      if (interrupt_interposer_) {
        interrupt_interposer_(cpu, f, kernel_handler);
      } else {
        kernel_handler();
      }
    });
    c.BindHandler(ve_label, [this](Cpu& cpu, const Fault& f) { VeEntry(cpu, f); });
    c.BindHandler(gp_label, [this](Cpu& cpu, const Fault& f) {
      Task* task = current_[cpu.index()];
      if (task != nullptr) {
        KillTask(*task, "#GP: " + f.reason);
      }
    });
    c.BindHandler(excp_label, [this](Cpu& cpu, const Fault& f) {
      // Fatal software exceptions (#DE, #UD, ...): route through the interposer so a
      // sealed sandbox's exception is scrubbed and observed by the monitor before the
      // task dies (paper claim C8).
      const auto kernel_handler = [this, &cpu, &f] {
        Task* task = current_[cpu.index()];
        if (task != nullptr) {
          KillTask(*task, VectorName(f.vector) + ": " + f.reason);
        }
      };
      if (interrupt_interposer_) {
        interrupt_interposer_(cpu, f, kernel_handler);
      } else {
        kernel_handler();
      }
    });
    EREBOR_RETURN_IF_ERROR(ops_->LoadIdt(c, &idt_));
  }
  return OkStatus();
}

Status Kernel::SetupSyscallMsr() {
  syscall_entry_label_ =
      machine_->registry().Register("kernel_syscall_entry", CodeDomain::kKernel, true);
  for (int i = 0; i < machine_->num_cpus(); ++i) {
    EREBOR_RETURN_IF_ERROR(
        ops_->WriteMsr(machine_->cpu(i), msr::kIa32Lstar, syscall_entry_label_));
  }
  return OkStatus();
}

void Kernel::SetSyscallInterposer(SyscallInterposer interposer) {
  syscall_interposer_ = std::move(interposer);
}

void Kernel::SetInterruptInterposer(InterruptInterposer interposer) {
  interrupt_interposer_ = std::move(interposer);
}

void Kernel::SetVeInterposer(VeInterposer interposer) {
  ve_interposer_ = std::move(interposer);
}

// ---- Processes / threads ----

StatusOr<Task*> Kernel::SpawnProcess(const std::string& name, ProgramFn program) {
  Cpu& cpu = boot_cpu();
  EREBOR_ASSIGN_OR_RETURN(auto aspace,
                          AddressSpace::Create(cpu, machine_, ops_, pool_.get(),
                                               kernel_aspace_.get()));
  auto task = std::make_unique<Task>();
  task->tid = next_tid_++;
  task->pid = task->tid;
  task->name = name;
  task->aspace = std::move(aspace);
  task->fds = std::make_shared<FdTable>();
  task->program = std::move(program);
  Task* raw = task.get();
  tasks_.push_back(std::move(task));
  run_queue_.push_back(raw);
  return raw;
}

StatusOr<Task*> Kernel::SpawnThread(Task& parent, const std::string& name,
                                    ProgramFn program) {
  auto task = std::make_unique<Task>();
  task->tid = next_tid_++;
  task->pid = parent.pid;
  task->name = name;
  task->aspace = parent.aspace;
  task->fds = parent.fds;
  task->program = std::move(program);
  task->is_sandbox_member = parent.is_sandbox_member;
  task->sandbox_id = parent.sandbox_id;
  Task* raw = task.get();
  tasks_.push_back(std::move(task));
  run_queue_.push_back(raw);
  return raw;
}

Task* Kernel::FindTask(int tid) {
  for (auto& task : tasks_) {
    if (task->tid == tid) {
      return task.get();
    }
  }
  return nullptr;
}

void Kernel::KillTask(Task& task, const std::string& reason) {
  if (task.state == TaskState::kExited) {
    return;
  }
  task.state = TaskState::kExited;
  task.killed_by_monitor = true;
  task.kill_reason = reason;
  LOG_DEBUG() << "task " << task.name << " killed: " << reason;
  if (kill_observer_) {
    kill_observer_(task, reason);
  }
}

int Kernel::live_tasks() const {
  int live = 0;
  for (const auto& task : tasks_) {
    if (task->state != TaskState::kExited) {
      ++live;
    }
  }
  return live;
}

void Kernel::ReapTask(Task& task) {
  task.state = TaskState::kExited;
  // Wake any waiter.
  for (auto& t : tasks_) {
    if (t->state == TaskState::kBlocked && t->waiting_for_pid == task.pid) {
      t->waiting_for_pid = 0;
      t->state = TaskState::kRunnable;
      run_queue_.push_back(t.get());
    }
  }
  if (task.aspace && task.aspace.use_count() == 1) {
    task.aspace->ReleaseUserFrames(boot_cpu());
  }
}

// ---- Scheduler ----

Task* Kernel::PickNext() {
  while (!run_queue_.empty()) {
    Task* task = run_queue_.front();
    run_queue_.pop_front();
    bool already_running = false;
    for (Task* cur : current_) {
      if (cur == task) {
        already_running = true;
      }
    }
    if (already_running) {
      // Re-queued by a waker while mid-slice; try again later.
      run_queue_.push_back(task);
      return nullptr;
    }
    if (task->state == TaskState::kRunnable) {
      return task;
    }
  }
  return nullptr;
}

void Kernel::ContextSwitch(Cpu& cpu, Task* task) {
  // Continuing the same address space on the same CPU is not a context switch (no CR3
  // reload, no TLB flush) — matching real scheduler behaviour.
  if (cpu.cr3() != task->aspace->root()) {
    ++stats_.context_switches;
    cpu.cycles().Charge(cpu.costs().context_switch);
    (void)ops_->WriteCr(cpu, 3, task->aspace->root());
    Tracer::Global().Record(TraceEvent::kContextSwitch, cpu.index(), cpu.cycles().now(),
                            task->is_sandbox_member ? task->sandbox_id : -1, task->tid);
  }
  cpu.gprs() = task->saved_gprs;
}

void Kernel::DeliverInterruptsFor(Cpu& cpu, Task* task) {
  while (machine_->interrupts().HasPending(cpu)) {
    auto vector = machine_->interrupts().TakePending(cpu);
    if (!vector.ok()) {
      break;
    }
    Fault fault;
    fault.vector = *vector;
    fault.reason = "external interrupt";
    (void)cpu.Deliver(fault);
  }
}

bool Kernel::RunOnce() {
  bool ran = false;
  for (int c = 0; c < machine_->num_cpus(); ++c) {
    Task* task = PickNext();
    if (task == nullptr) {
      break;
    }
    ran = true;
    Cpu& cpu = machine_->cpu(c);
    current_[c] = task;
    ContextSwitch(cpu, task);

    SyscallContext ctx(this, task, &cpu);
    cpu.SetMode(CpuMode::kUser);
    StepOutcome outcome = StepOutcome::kExited;
    if (task->state == TaskState::kRunnable) {
      outcome = task->program(ctx);
    }
    cpu.SetMode(CpuMode::kSupervisor);
    task->saved_gprs = cpu.gprs();
    current_[c] = nullptr;

    if (task->state == TaskState::kExited) {
      ReapTask(*task);
    } else {
      switch (outcome) {
        case StepOutcome::kYield:
          run_queue_.push_back(task);
          break;
        case StepOutcome::kBlocked:
          if (task->futex_wait_addr == 0 && task->waiting_for_pid == 0) {
            // Already woken before we could block; stay runnable.
            run_queue_.push_back(task);
          } else {
            task->state = TaskState::kBlocked;
          }
          break;
        case StepOutcome::kExited:
          ReapTask(*task);
          break;
      }
    }
    DeliverInterruptsFor(cpu, task);
  }
  return ran;
}

void Kernel::Run(uint64_t max_slices) {
  for (uint64_t i = 0; i < max_slices; ++i) {
    if (!RunOnce()) {
      break;
    }
  }
}

// ---- Entry points ----

void Kernel::PageFaultEntry(Cpu& cpu, const Fault& fault) {
  ++stats_.page_faults;
  Tracer::Global().Record(TraceEvent::kPageFault, cpu.index(), cpu.cycles().now(), -1,
                          fault.address);
  const auto kernel_handler = [&] {
    cpu.cycles().Charge(cpu.costs().page_fault_service_native);
    Task* task = current_[cpu.index()];
    AddressSpace* aspace =
        task != nullptr ? task->aspace.get() : kernel_aspace_.get();
    auto result = aspace->HandleDemandFault(cpu, fault.address);
    if (!result.ok() && result.status().code() == ErrorCode::kResourceExhausted) {
      // Transient allocator exhaustion (e.g. an injected fault) gets one bounded
      // retry before the task is declared dead; a genuinely full pool fails again.
      result = aspace->HandleDemandFault(cpu, fault.address);
      if (result.ok() && FaultInjector::Armed()) {
        NoteFaultRecovered();
      }
    }
    if (!result.ok() && task != nullptr) {
      KillTask(*task, "segfault at " + std::to_string(fault.address) + ": " +
                          std::string(result.status().message()));
    }
    if (task != nullptr) {
      ++task->minor_faults;
    }
  };
  if (interrupt_interposer_) {
    interrupt_interposer_(cpu, fault, kernel_handler);
  } else {
    kernel_handler();
  }
}

void Kernel::TimerEntry(Cpu& cpu, const Fault& fault) {
  Tracer::Global().Record(TraceEvent::kInterrupt, cpu.index(), cpu.cycles().now(), -1,
                          static_cast<uint64_t>(fault.vector));
  const auto kernel_handler = [&] { ++stats_.timer_interrupts; };
  if (interrupt_interposer_) {
    interrupt_interposer_(cpu, fault, kernel_handler);
  } else {
    kernel_handler();
  }
}

void Kernel::VeEntry(Cpu& cpu, const Fault& fault) {
  ++stats_.ve_exits;
  Tracer::Global().Record(TraceEvent::kVeExit, cpu.index(), cpu.cycles().now());
}

StatusOr<uint64_t> Kernel::SyscallEntry(SyscallContext& ctx, Task& task, int nr,
                                        const uint64_t* args) {
  return DoSyscall(ctx, task, nr, args);
}

// ---- Syscall implementation ----

namespace {
Status WouldBlock() { return UnavailableError("EAGAIN"); }
}  // namespace

bool IsWouldBlock(const Status& status) {
  return !status.ok() && status.code() == ErrorCode::kUnavailable;
}

bool EagainBackoff::ShouldRetry(SyscallContext& ctx) {
  static constexpr BackoffPolicy kPolicy{.max_attempts = kMaxAttempts,
                                         .base_wait = kBaseWaitCycles,
                                         .max_wait = kMaxWaitCycles,
                                         .jitter_pct = 0};
  if (attempts >= kPolicy.max_attempts) {
    return false;
  }
  ctx.Compute(JitteredBackoffWait(kPolicy, /*seed=*/0, attempts));
  ++attempts;
  return true;
}

Status Kernel::FaultInUserRange(SyscallContext& ctx, Task& task, Vaddr va, uint64_t len) {
  if (len == 0) {
    return OkStatus();
  }
  for (Vaddr page = PageAlignDown(va); page < va + len; page += kPageSize) {
    if (task.aspace->LookupCached(ctx.cpu(), page).ok()) {
      continue;
    }
    ++stats_.page_faults;
    ++task.minor_faults;
    ctx.cpu().cycles().Charge(ctx.cpu().costs().exception_delivery +
                              ctx.cpu().costs().page_fault_service_native);
    EREBOR_RETURN_IF_ERROR(task.aspace->HandleDemandFault(ctx.cpu(), page).status());
  }
  return OkStatus();
}

StatusOr<uint64_t> Kernel::DoSyscall(SyscallContext& ctx, Task& task, int nr,
                                     const uint64_t* args) {
  switch (nr) {
    case sys::kGetpid:
      return static_cast<uint64_t>(task.pid);
    case sys::kGettid:
      return static_cast<uint64_t>(task.tid);
    case sys::kSchedYield:
      return 0;
    case sys::kNanosleep:
      ctx.cpu().cycles().Charge(args[0]);
      return 0;
    case sys::kExit:
      task.state = TaskState::kExited;
      task.exit_code = static_cast<int>(args[0]);
      return 0;
    case sys::kOpen: {
      // args[0] = user VA of path string, args[1] = length, args[2] = create flag.
      std::string path(args[1], '\0');
      EREBOR_RETURN_IF_ERROR(FaultInUserRange(ctx, task, args[0], args[1]));
      EREBOR_RETURN_IF_ERROR(ops_->CopyFromUser(
          ctx.cpu(), args[0], reinterpret_cast<uint8_t*>(path.data()), args[1]));
      // Device files.
      for (size_t i = 0; i < devices_.size(); ++i) {
        if (devices_[i].path == path) {
          OpenFile of;
          of.path = path;
          of.is_device = true;
          of.device_id = static_cast<int>(i);
          return static_cast<uint64_t>(task.fds->Install(of));
        }
      }
      EREBOR_ASSIGN_OR_RETURN(RamFile * file, fs_.Open(path, args[2] != 0));
      OpenFile of;
      of.path = path;
      of.file = file;
      return static_cast<uint64_t>(task.fds->Install(of));
    }
    case sys::kClose:
      EREBOR_RETURN_IF_ERROR(task.fds->Close(static_cast<int>(args[0])));
      return 0;
    case sys::kStat: {
      std::string path(args[1], '\0');
      EREBOR_RETURN_IF_ERROR(FaultInUserRange(ctx, task, args[0], args[1]));
      EREBOR_RETURN_IF_ERROR(ops_->CopyFromUser(
          ctx.cpu(), args[0], reinterpret_cast<uint8_t*>(path.data()), args[1]));
      return fs_.SizeOf(path);
    }
    case sys::kRead:
    case sys::kWrite:
      return SysReadWrite(ctx, task, nr, args);
    case sys::kMmap:
      return SysMmap(ctx, task, args);
    case sys::kMunmap:
      EREBOR_RETURN_IF_ERROR(task.aspace->DestroyVma(ctx.cpu(), args[0]));
      return 0;
    case sys::kBrk:
      return 0;  // the LibOS manages its own heap; brk is a no-op
    case sys::kIoctl: {
      EREBOR_ASSIGN_OR_RETURN(OpenFile * of, task.fds->Get(static_cast<int>(args[0])));
      if (!of->is_device) {
        return InvalidArgumentError("ioctl on non-device fd");
      }
      return devices_[of->device_id].handler(ctx, task, args[1], args[2]);
    }
    case sys::kFutex:
      return SysFutex(ctx, task, args);
    case sys::kFork:
    case sys::kClone:
      return SysForkClone(ctx, task, nr, args);
    case sys::kWait4: {
      const int pid = static_cast<int>(args[0]);
      bool found_live = false;
      for (auto& t : tasks_) {
        if (t->pid == pid && t.get() != &task && t->state != TaskState::kExited) {
          found_live = true;
        }
      }
      if (!found_live) {
        return 0;  // child already exited (or never existed)
      }
      task.waiting_for_pid = pid;
      return WouldBlock();
    }
    case sys::kKill: {
      Task* target = FindTask(static_cast<int>(args[0]));
      if (target == nullptr) {
        return NotFoundError("no such task");
      }
      target->pending_signals.push_back(static_cast<int>(args[1]));
      if (target->state == TaskState::kBlocked) {
        target->state = TaskState::kRunnable;
        target->futex_wait_addr = 0;
        run_queue_.push_back(target);
      }
      return 0;
    }
    case sys::kSigaction: {
      const int signo = static_cast<int>(args[0]);
      const uint64_t token = args[1];
      auto& stash = GetStash();
      const auto it = stash.signals.find(token);
      if (it == stash.signals.end()) {
        return InvalidArgumentError("bad signal-handler token");
      }
      task.signal_handlers[signo] = it->second;
      return 0;
    }
    case sys::kSendto: {
      Bytes packet(args[1]);
      EREBOR_RETURN_IF_ERROR(FaultInUserRange(ctx, task, args[0], args[1]));
      EREBOR_RETURN_IF_ERROR(
          ops_->CopyFromUser(ctx.cpu(), args[0], packet.data(), packet.size()));
      EREBOR_RETURN_IF_ERROR(NetSend(ctx.cpu(), packet));
      return packet.size();
    }
    case sys::kRecvfrom: {
      EREBOR_ASSIGN_OR_RETURN(Bytes packet, NetReceive(ctx.cpu()));
      if (packet.size() > args[1]) {
        return OutOfRangeError("recv buffer too small");
      }
      EREBOR_RETURN_IF_ERROR(FaultInUserRange(ctx, task, args[0], packet.size()));
      EREBOR_RETURN_IF_ERROR(
          ops_->CopyToUser(ctx.cpu(), args[0], packet.data(), packet.size()));
      return packet.size();
    }
    default:
      return UnimplementedError("syscall " + std::to_string(nr));
  }
}

StatusOr<uint64_t> Kernel::SysMmap(SyscallContext& ctx, Task& task, const uint64_t* args) {
  // args: [0]=hint(0), [1]=length, [2]=prot, [3]=flags.
  Pte flags = pte::kPresent | pte::kUser | pte::kNoExecute;
  if ((args[2] & sys::kProtWrite) != 0) {
    flags |= pte::kWritable;
  }
  EREBOR_ASSIGN_OR_RETURN(const Vaddr va,
                          task.aspace->CreateVma(args[1], flags, VmaKind::kAnon, args[0]));
  if ((args[3] & sys::kMapPopulate) != 0) {
    const uint64_t pages = PageAlignUp(args[1]) >> kPageShift;
    stats_.page_faults += pages;
    task.minor_faults += pages;
    ctx.cpu().cycles().Charge(pages * ctx.cpu().costs().page_fault_service_native);
    EREBOR_RETURN_IF_ERROR(task.aspace->PopulateVma(ctx.cpu(), va));
  }
  return va;
}

StatusOr<uint64_t> Kernel::SysReadWrite(SyscallContext& ctx, Task& task, int nr,
                                        const uint64_t* args) {
  // args: [0]=fd, [1]=user buffer, [2]=length.
  EREBOR_ASSIGN_OR_RETURN(OpenFile * of, task.fds->Get(static_cast<int>(args[0])));
  if (of->is_device) {
    return InvalidArgumentError("read/write on device fd (use ioctl)");
  }
  EREBOR_RETURN_IF_ERROR(FaultInUserRange(ctx, task, args[1], args[2]));
  if (of->file == nullptr) {
    // stdio: accept and discard writes.
    return nr == sys::kWrite ? args[2] : 0;
  }
  if (nr == sys::kRead) {
    const uint64_t available =
        of->offset >= of->file->data.size() ? 0 : of->file->data.size() - of->offset;
    const uint64_t n = std::min(args[2], available);
    if (n > 0) {
      EREBOR_RETURN_IF_ERROR(
          ops_->CopyToUser(ctx.cpu(), args[1], of->file->data.data() + of->offset, n));
      of->offset += n;
    }
    return n;
  }
  // write
  const uint64_t n = args[2];
  if (of->file->data.size() < of->offset + n) {
    of->file->data.resize(of->offset + n);
  }
  EREBOR_RETURN_IF_ERROR(
      ops_->CopyFromUser(ctx.cpu(), args[1], of->file->data.data() + of->offset, n));
  of->offset += n;
  return n;
}

StatusOr<uint64_t> Kernel::SysFutex(SyscallContext& ctx, Task& task, const uint64_t* args) {
  // args: [0]=user VA of 32-bit futex word, [1]=op, [2]=expected value / wake count.
  const Vaddr addr = args[0];
  if (args[1] == sys::kFutexWait) {
    uint8_t word[4];
    EREBOR_RETURN_IF_ERROR(FaultInUserRange(ctx, task, addr, sizeof(word)));
    EREBOR_RETURN_IF_ERROR(ops_->CopyFromUser(ctx.cpu(), addr, word, sizeof(word)));
    if (LoadLe32(word) != static_cast<uint32_t>(args[2])) {
      return 1;  // value changed; do not block
    }
    task.futex_wait_addr = addr;
    return WouldBlock();
  }
  if (args[1] == sys::kFutexWake) {
    uint64_t woken = 0;
    for (auto& t : tasks_) {
      if (woken >= args[2]) {
        break;
      }
      if (t->futex_wait_addr == addr && t->state == TaskState::kBlocked) {
        t->futex_wait_addr = 0;
        t->state = TaskState::kRunnable;
        run_queue_.push_back(t.get());
        ++woken;
      } else if (t->futex_wait_addr == addr && t->state != TaskState::kExited) {
        // Blocked-in-progress (will check on slice end).
        t->futex_wait_addr = 0;
        ++woken;
      }
    }
    return woken;
  }
  return InvalidArgumentError("bad futex op");
}

StatusOr<uint64_t> Kernel::SysForkClone(SyscallContext& ctx, Task& task, int nr,
                                        const uint64_t* args) {
  ++stats_.forks;
  ProgramFn child_program;
  if (nr == sys::kClone && args[0] != 0) {
    auto& stash = GetStash();
    const auto it = stash.programs.find(args[0]);
    if (it == stash.programs.end()) {
      return InvalidArgumentError("bad clone program token");
    }
    child_program = it->second;
    stash.programs.erase(it);
  } else {
    child_program = [](SyscallContext&) { return StepOutcome::kExited; };
  }

  if (nr == sys::kClone) {
    EREBOR_ASSIGN_OR_RETURN(Task * child,
                            SpawnThread(task, task.name + "+thr", std::move(child_program)));
    return static_cast<uint64_t>(child->tid);
  }

  // fork: duplicate the address space (allocates frames + copies pages + PTE writes).
  Cpu& cpu = ctx.cpu();
  EREBOR_ASSIGN_OR_RETURN(auto aspace,
                          AddressSpace::Create(cpu, machine_, ops_, pool_.get(),
                                               kernel_aspace_.get()));
  EREBOR_RETURN_IF_ERROR(aspace->CloneUserMappings(cpu, *task.aspace));
  auto child = std::make_unique<Task>();
  child->tid = next_tid_++;
  child->pid = child->tid;
  child->name = task.name + "+fork";
  child->aspace = std::move(aspace);
  child->fds = std::make_shared<FdTable>();
  child->program = std::move(child_program);
  Task* raw = child.get();
  tasks_.push_back(std::move(child));
  run_queue_.push_back(raw);
  return static_cast<uint64_t>(raw->pid);
}

// ---- Devices ----

int Kernel::RegisterDevice(const std::string& path, DeviceIoctlFn handler) {
  devices_.push_back(Device{path, std::move(handler)});
  return static_cast<int>(devices_.size() - 1);
}

// ---- Networking ----

Status Kernel::NetSend(Cpu& cpu, const Bytes& packet) {
  const uint64_t capacity = config_.shared_net_buffer_frames * kPageSize;
  if (packet.size() > capacity) {
    return OutOfRangeError("packet larger than net bounce buffer");
  }
  // Stage in the shared window, then GHCI NetTx.
  EREBOR_RETURN_IF_ERROR(machine_->memory().Write(net_buffer_pa_, packet.data(),
                                                  packet.size()));
  uint64_t args[3] = {static_cast<uint64_t>(GhciReason::kNetTx), net_buffer_pa_,
                      packet.size()};
  EREBOR_RETURN_IF_ERROR(ops_->Tdcall(cpu, tdcall_leaf::kVmcall, args, 3));
  if (args[1] == 0) {
    return UnavailableError("host dropped packet (DMA blocked?)");
  }
  return OkStatus();
}

StatusOr<Bytes> Kernel::NetReceive(Cpu& cpu) {
  uint64_t args[3] = {static_cast<uint64_t>(GhciReason::kNetRx), net_buffer_pa_, 0};
  EREBOR_RETURN_IF_ERROR(ops_->Tdcall(cpu, tdcall_leaf::kVmcall, args, 3));
  const uint64_t len = args[1];
  if (len == 0) {
    return WouldBlock();
  }
  Bytes packet(len);
  EREBOR_RETURN_IF_ERROR(machine_->memory().Read(net_buffer_pa_, packet.data(), len));
  return packet;
}

// ---- SyscallContext ----

StatusOr<uint64_t> SyscallContext::Syscall(int nr, uint64_t a0, uint64_t a1, uint64_t a2,
                                           uint64_t a3, uint64_t a4, uint64_t a5) {
  Cpu& cpu = *cpu_;
  cpu.cycles().Charge(cpu.costs().syscall_round_trip);
  ++kernel_->stats_.syscalls;
  ++task_->syscall_count;
  ++syscalls_made;
  Tracer& tracer = Tracer::Global();
  const int32_t trace_sandbox = task_->is_sandbox_member ? task_->sandbox_id : -1;
  const Cycles trace_start = tracer.enabled() ? cpu.cycles().now() : 0;
  tracer.Record(TraceEvent::kSyscallEnter, cpu.index(), trace_start, trace_sandbox,
                static_cast<uint64_t>(nr));

  const uint64_t args[6] = {a0, a1, a2, a3, a4, a5};
  const CpuMode saved_mode = cpu.mode();
  cpu.SetMode(CpuMode::kSupervisor);

  StatusOr<uint64_t> result = 0;
  const SyscallEntryFn kernel_entry = [this](SyscallContext& ctx, Task& task, int nr2,
                                             const uint64_t* args2) {
    return kernel_->SyscallEntry(ctx, task, nr2, args2);
  };
  if (kernel_->syscall_interposer_) {
    result = kernel_->syscall_interposer_(*this, *task_, nr, args, kernel_entry);
  } else {
    result = kernel_->SyscallEntry(*this, *task_, nr, args);
  }
  cpu.SetMode(saved_mode);
  if (tracer.enabled()) {
    const Cycles now = cpu.cycles().now();
    // Dispatch time plus the modeled round-trip entry cost, comparable to Table 3.
    const Cycles total = (now - trace_start) + cpu.costs().syscall_round_trip;
    tracer.Record(TraceEvent::kSyscallExit, cpu.index(), now, trace_sandbox,
                  static_cast<uint64_t>(nr));
    MetricsRegistry::Global().GetHistogram("trace.syscall_cycles")->Observe(total);
  }

  // Signal + interrupt delivery on the return-to-user path.
  if (task_->state != TaskState::kExited) {
    kernel_->DeliverSignals(*this, *task_);
  }
  return result;
}

StatusOr<uint64_t> SyscallContext::Cpuid(uint32_t leaf) {
  Cpu& cpu = *cpu_;
  ++kernel_->stats_.ve_exits;
  cpu.cycles().Charge(cpu.costs().ve_delivery);
  Tracer::Global().Record(TraceEvent::kVeExit, cpu.index(), cpu.cycles().now(),
                          task_->is_sandbox_member ? task_->sandbox_id : -1, leaf);
  const CpuMode saved_mode = cpu.mode();
  cpu.SetMode(CpuMode::kSupervisor);

  const auto hypercall = [&]() -> StatusOr<uint64_t> {
    uint64_t args[3] = {static_cast<uint64_t>(GhciReason::kCpuid), leaf, 0};
    EREBOR_RETURN_IF_ERROR(kernel_->ops_->Tdcall(cpu, tdcall_leaf::kVmcall, args, 3));
    return args[1];
  };
  StatusOr<uint64_t> result = 0;
  if (kernel_->ve_interposer_) {
    result = kernel_->ve_interposer_(*this, *task_, leaf, hypercall);
  } else {
    result = hypercall();
  }
  cpu.SetMode(saved_mode);
  return result;
}

namespace {
// Shared demand-paged user access loop: every faulting page gets one #PF delivery
// (through the full interposed handler path) and one retry, like real hardware
// restart semantics.
Status UserAccessLoop(Cpu& cpu, Task& task, Vaddr va, uint8_t* buffer, uint64_t len,
                      bool write) {
  uint64_t done = 0;
  int faults_on_page = 0;
  while (done < len) {
    const uint64_t chunk = std::min(len - done, kPageSize - ((va + done) & kPageMask));
    Fault fault;
    const Status st =
        write ? cpu.WriteVirt(va + done, buffer + done, chunk, &fault)
              : cpu.ReadVirt(va + done, buffer + done, chunk, &fault);
    if (st.ok()) {
      done += chunk;
      faults_on_page = 0;
      continue;
    }
    if (++faults_on_page > 1) {
      return st;  // fault persists after service: a real access violation
    }
    const CpuMode saved = cpu.mode();
    cpu.SetMode(CpuMode::kSupervisor);
    (void)cpu.Deliver(fault);
    cpu.SetMode(saved);
    if (task.state == TaskState::kExited) {
      return AbortedError("task killed during fault handling");
    }
  }
  return OkStatus();
}
}  // namespace

Status SyscallContext::RaiseException(Vector vector, const std::string& reason) {
  Fault fault;
  fault.vector = vector;
  fault.reason = reason;
  const CpuMode saved = cpu_->mode();
  cpu_->SetMode(CpuMode::kSupervisor);
  const Status st = cpu_->Deliver(fault);
  cpu_->SetMode(saved);
  return st;
}

Status SyscallContext::ReadUser(Vaddr va, uint8_t* out, uint64_t len) {
  return UserAccessLoop(*cpu_, *task_, va, out, len, /*write=*/false);
}

Status SyscallContext::WriteUser(Vaddr va, const uint8_t* data, uint64_t len) {
  return UserAccessLoop(*cpu_, *task_, va, const_cast<uint8_t*>(data), len,
                        /*write=*/true);
}

StatusOr<uint8_t*> SyscallContext::PagePtr(Vaddr va, bool for_write) {
  const AccessType access = for_write ? AccessType::kWrite : AccessType::kRead;
  if (const WalkResult* hit = cpu_->TranslateHit(va, access)) {
    return cpu_->memory().FramePtr(FrameOf(hit->pa)) + (va & kPageMask);
  }
  for (int attempt = 0; attempt < 2; ++attempt) {
    Fault fault;
    auto walk = cpu_->Translate(va, access, &fault);
    if (walk.ok()) {
      return cpu_->memory().FramePtr(FrameOf(walk->pa)) + (va & kPageMask);
    }
    if (attempt == 0) {
      const CpuMode saved = cpu_->mode();
      cpu_->SetMode(CpuMode::kSupervisor);
      (void)cpu_->Deliver(fault);
      cpu_->SetMode(saved);
      if (task_->state == TaskState::kExited) {
        return AbortedError("task killed during fault handling");
      }
      continue;
    }
    return walk.status();
  }
  return InternalError("unreachable");
}

uint8_t* PageCursor::Miss(Vaddr va, bool write) {
  auto ptr = ctx_.PagePtr(va, write);
  if (!ptr.ok()) {
    if (status_.ok()) {
      status_ = ptr.status();
    }
    return nullptr;
  }
  // PagePtr succeeded, so the TLB now holds (CR3, va, mode) and CheckAccess allows
  // this access: exactly what a TranslateHit before the next epoch change would see.
  if (Tlb::Enabled()) {
    entries_[Slot(va)] = {va & ~kPageMask, *ptr - (va & kPageMask), cpu_.access_epoch(),
                          write};
  }
  return *ptr;
}

void PageCursor::Refuse(Vaddr va, uint64_t bytes) {
  if (status_.ok()) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "page run of %llu bytes at 0x%llx leaves its page",
                  static_cast<unsigned long long>(bytes), static_cast<unsigned long long>(va));
    status_ = OutOfRangeError(buf);
  }
}

void SyscallContext::Compute(Cycles cycles) { cpu_->cycles().Charge(cycles); }

bool SyscallContext::Poll() {
  kernel_->DeliverInterruptsFor(*cpu_, task_);
  kernel_->DeliverSignals(*this, *task_);
  return task_->state != TaskState::kExited;
}

void Kernel::DeliverSignals(SyscallContext& ctx, Task& task) {
  while (!task.pending_signals.empty()) {
    const int signo = task.pending_signals.back();
    task.pending_signals.pop_back();
    const auto it = task.signal_handlers.find(signo);
    if (it != task.signal_handlers.end()) {
      ++stats_.signals_delivered;
      ctx.cpu().cycles().Charge(ctx.cpu().costs().exception_delivery);
      it->second(signo);
    }
  }
}

}  // namespace erebor
