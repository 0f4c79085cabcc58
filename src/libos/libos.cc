#include "src/libos/libos.h"

#include <cstring>

#include "src/common/log.h"

namespace erebor {

namespace {
// Cycle cost of one LibOS userspace-emulated call (no kernel transition; this is why
// the LibOS-only configuration is cheap, Figure 9).
constexpr Cycles kEmulationCost = 95;
constexpr Cycles kSpinTryCost = 40;
}  // namespace

bool SpinLock::TryAcquire(SyscallContext& ctx, int tid) {
  if (charge_) {
    ctx.Compute(kSpinTryCost);
  }
  if (holder_ == -1) {
    holder_ = tid;
    return true;
  }
  ++contention_spins_;
  return false;
}

void SpinLock::Release() { holder_ = -1; }

LibosEnv::LibosEnv(LibosManifest manifest, LibosBackend backend, bool charge_overheads)
    : manifest_(std::move(manifest)),
      backend_(backend),
      charge_overheads_(charge_overheads) {
  for (int i = 0; i < 64; ++i) {
    locks_.push_back(std::make_unique<SpinLock>());
    locks_.back()->set_charge(charge_overheads_);
  }
}

Status LibosEnv::Initialize(SyscallContext& ctx) {
  if (initialized_) {
    return OkStatus();
  }
  // Runtime bootstrap (loader, relocation, manifest parsing) — identical in every
  // mode; keeps initialization from being purely memory-bound.
  ctx.Compute(2'000'000);
  const uint64_t arena = PageAlignUp(manifest_.heap_bytes);
  heap_base_ = kLibosArenaBase;
  heap_limit_ = arena;
  heap_cursor_ = 0;

  if (backend_ == LibosBackend::kSandboxed) {
    // Open the monitor device and declare the whole arena as confined memory; the
    // monitor pre-populates and pins it (no page faults at runtime).
    const std::string dev = "/dev/erebor";
    // Bootstrap subtlety: arena VAs are not declared yet, so the open()/declare path
    // uses a kernel-visible staging page.
    EREBOR_ASSIGN_OR_RETURN(
        const Vaddr staging,
        ctx.task().aspace->CreateVma(kPageSize, pte::kPresent | pte::kUser |
                                                    pte::kWritable | pte::kNoExecute,
                                     VmaKind::kAnon));
    EREBOR_RETURN_IF_ERROR(ctx.WriteUser(
        staging, reinterpret_cast<const uint8_t*>(dev.data()), dev.size()));
    EREBOR_ASSIGN_OR_RETURN(const uint64_t fd,
                            ctx.Syscall(sys::kOpen, staging, dev.size(), 0));
    erebor_fd_ = static_cast<int>(fd);

    // ioctl(DECLARE_CONFINED, {va, len}) via the staging page.
    uint8_t req[16];
    StoreLe64(req, heap_base_);
    StoreLe64(req + 8, arena);
    EREBOR_RETURN_IF_ERROR(ctx.WriteUser(staging, req, sizeof(req)));
    EREBOR_RETURN_IF_ERROR(
        ctx.Syscall(sys::kIoctl, fd, emc_ioctl::kDeclareConfined, staging).status());
  } else {
    // Native/LibOS-only: a populated anonymous mmap at the same VA.
    EREBOR_RETURN_IF_ERROR(ctx.Syscall(sys::kMmap, heap_base_, arena,
                                       sys::kProtRead | sys::kProtWrite,
                                       sys::kMapPopulate)
                               .status());
  }

  // Preload files into the in-memory FS (mount points created before client data).
  for (const auto& [name, contents] : manifest_.preload_files) {
    EREBOR_RETURN_IF_ERROR(FileCreate(ctx, name, contents));
  }

  if (backend_ == LibosBackend::kNativeDirect) {
    // The native baseline exchanges "client" data through ramfs files.
    const std::string in_path = manifest_.name + ".client_input";
    const std::string out_path = manifest_.name + ".client_output";
    EREBOR_ASSIGN_OR_RETURN(
        const Vaddr staging,
        ctx.task().aspace->CreateVma(kPageSize, pte::kPresent | pte::kUser |
                                                    pte::kWritable | pte::kNoExecute,
                                     VmaKind::kAnon));
    EREBOR_RETURN_IF_ERROR(ctx.WriteUser(
        staging, reinterpret_cast<const uint8_t*>(in_path.data()), in_path.size()));
    EREBOR_ASSIGN_OR_RETURN(const uint64_t in_fd,
                            ctx.Syscall(sys::kOpen, staging, in_path.size(), 1));
    io_in_fd_ = static_cast<int>(in_fd);
    EREBOR_RETURN_IF_ERROR(ctx.WriteUser(
        staging, reinterpret_cast<const uint8_t*>(out_path.data()), out_path.size()));
    EREBOR_ASSIGN_OR_RETURN(const uint64_t out_fd,
                            ctx.Syscall(sys::kOpen, staging, out_path.size(), 1));
    io_out_fd_ = static_cast<int>(out_fd);
  }

  initialized_ = true;
  return OkStatus();
}

void LibosEnv::AdoptTemplateState(const LibosEnv& tmpl) {
  heap_base_ = tmpl.heap_base_;
  heap_limit_ = tmpl.heap_limit_;
  heap_cursor_ = tmpl.heap_cursor_;
  heap_used_ = tmpl.heap_used_;
  free_list_ = tmpl.free_list_;
  memfs_ = tmpl.memfs_;
  io_buf_va_ = tmpl.io_buf_va_;
  io_buf_cap_ = tmpl.io_buf_cap_;
  io_req_va_ = tmpl.io_req_va_;
}

Status LibosEnv::AttachClone(SyscallContext& ctx) {
  if (initialized_) {
    return OkStatus();
  }
  if (backend_ != LibosBackend::kSandboxed) {
    return FailedPreconditionError("clone attach only exists for the sandboxed backend");
  }
  if (heap_base_ == 0) {
    return FailedPreconditionError("AdoptTemplateState must run before AttachClone");
  }
  // No 2M-cycle bootstrap, no DECLARE_CONFINED, no preloads: all of that state
  // arrived with the template's pages. Only the per-process device fd remains.
  const std::string dev = "/dev/erebor";
  EREBOR_ASSIGN_OR_RETURN(
      const Vaddr staging,
      ctx.task().aspace->CreateVma(kPageSize, pte::kPresent | pte::kUser |
                                                  pte::kWritable | pte::kNoExecute,
                                   VmaKind::kAnon));
  EREBOR_RETURN_IF_ERROR(ctx.WriteUser(
      staging, reinterpret_cast<const uint8_t*>(dev.data()), dev.size()));
  EREBOR_ASSIGN_OR_RETURN(const uint64_t fd,
                          ctx.Syscall(sys::kOpen, staging, dev.size(), 0));
  erebor_fd_ = static_cast<int>(fd);
  initialized_ = true;
  return OkStatus();
}

StatusOr<Vaddr> LibosEnv::Alloc(uint64_t size) {
  size = (size + 15) & ~15ull;
  // First-fit over the free list.
  for (size_t i = 0; i < free_list_.size(); ++i) {
    if (free_list_[i].size >= size) {
      const Vaddr va = free_list_[i].va;
      free_list_[i].va += size;
      free_list_[i].size -= size;
      if (free_list_[i].size == 0) {
        free_list_.erase(free_list_.begin() + i);
      }
      heap_used_ += size;
      return va;
    }
  }
  if (heap_cursor_ + size > heap_limit_) {
    return ResourceExhaustedError("LibOS heap exhausted (" +
                                  std::to_string(heap_limit_) + " bytes)");
  }
  const Vaddr va = heap_base_ + heap_cursor_;
  heap_cursor_ += size;
  heap_used_ += size;
  return va;
}

Status LibosEnv::FileCreate(SyscallContext& ctx, const std::string& name,
                            const Bytes& contents) {
  ChargeEmulation(ctx);
  MemFile file;
  file.capacity = PageAlignUp(contents.size() + 1);
  EREBOR_ASSIGN_OR_RETURN(file.data_va, Alloc(file.capacity));
  file.size = contents.size();
  if (!contents.empty()) {
    EREBOR_RETURN_IF_ERROR(ctx.WriteUser(file.data_va, contents.data(), contents.size()));
  }
  memfs_[name] = file;
  return OkStatus();
}

StatusOr<Bytes> LibosEnv::FileRead(SyscallContext& ctx, const std::string& name) {
  ChargeEmulation(ctx);
  const auto it = memfs_.find(name);
  if (it == memfs_.end()) {
    return NotFoundError("libos memfs: no file " + name);
  }
  Bytes out(it->second.size);
  if (!out.empty()) {
    EREBOR_RETURN_IF_ERROR(ctx.ReadUser(it->second.data_va, out.data(), out.size()));
  }
  return out;
}

StatusOr<Bytes> LibosEnv::RecvInput(SyscallContext& ctx, uint64_t max_len) {
  ChargeEmulation(ctx);
  if (backend_ == LibosBackend::kSandboxed) {
    if (io_req_va_ == 0) {
      EREBOR_ASSIGN_OR_RETURN(io_req_va_, Alloc(16));
    }
    if (io_buf_cap_ < max_len) {
      EREBOR_ASSIGN_OR_RETURN(io_buf_va_, Alloc(max_len));
      io_buf_cap_ = max_len;
    }
    uint8_t req[16];
    StoreLe64(req, io_buf_va_);
    StoreLe64(req + 8, max_len);
    EREBOR_RETURN_IF_ERROR(ctx.WriteUser(io_req_va_, req, sizeof(req)));
    EREBOR_ASSIGN_OR_RETURN(const uint64_t n, ctx.Syscall(sys::kIoctl, erebor_fd_,
                                                          emc_ioctl::kInput, io_req_va_));
    Bytes data(n);
    EREBOR_RETURN_IF_ERROR(ctx.ReadUser(io_buf_va_, data.data(), n));
    return data;
  }
  // Native: read the whole input file.
  Bytes data;
  uint8_t chunk[4096];
  EREBOR_ASSIGN_OR_RETURN(
      const Vaddr staging,
      ctx.task().aspace->CreateVma(kPageSize, pte::kPresent | pte::kUser |
                                                  pte::kWritable | pte::kNoExecute,
                                   VmaKind::kAnon));
  while (true) {
    EREBOR_ASSIGN_OR_RETURN(const uint64_t n,
                            ctx.Syscall(sys::kRead, io_in_fd_, staging, sizeof(chunk)));
    if (n == 0) {
      break;
    }
    EREBOR_RETURN_IF_ERROR(ctx.ReadUser(staging, chunk, n));
    data.insert(data.end(), chunk, chunk + n);
  }
  if (data.empty()) {
    return UnavailableError("EAGAIN");
  }
  return data;
}

Status LibosEnv::SendOutput(SyscallContext& ctx, const Bytes& data) {
  ChargeEmulation(ctx);
  if (backend_ == LibosBackend::kSandboxed) {
    if (io_req_va_ == 0) {
      EREBOR_ASSIGN_OR_RETURN(io_req_va_, Alloc(16));
    }
    if (io_buf_cap_ < data.size()) {
      EREBOR_ASSIGN_OR_RETURN(io_buf_va_, Alloc(data.size()));
      io_buf_cap_ = data.size();
    }
    EREBOR_RETURN_IF_ERROR(ctx.WriteUser(io_buf_va_, data.data(), data.size()));
    uint8_t req[16];
    StoreLe64(req, io_buf_va_);
    StoreLe64(req + 8, data.size());
    EREBOR_RETURN_IF_ERROR(ctx.WriteUser(io_req_va_, req, sizeof(req)));
    return ctx.Syscall(sys::kIoctl, erebor_fd_, emc_ioctl::kOutput, io_req_va_).status();
  }
  EREBOR_ASSIGN_OR_RETURN(
      const Vaddr staging,
      ctx.task().aspace->CreateVma(PageAlignUp(std::max<uint64_t>(data.size(), 1)),
                                   pte::kPresent | pte::kUser | pte::kWritable |
                                       pte::kNoExecute,
                                   VmaKind::kAnon));
  EREBOR_RETURN_IF_ERROR(ctx.WriteUser(staging, data.data(), data.size()));
  return ctx.Syscall(sys::kWrite, io_out_fd_, staging, data.size()).status();
}

Status LibosEnv::SpawnWorkers(SyscallContext& ctx, const std::vector<ProgramFn>& workers) {
  for (const auto& worker : workers) {
    const uint64_t token = StashProgram(worker);
    EREBOR_RETURN_IF_ERROR(ctx.Syscall(sys::kClone, token).status());
  }
  return OkStatus();
}

SpinLock& LibosEnv::lock(size_t index) { return *locks_[index % locks_.size()]; }

void LibosEnv::ChargeEmulation(SyscallContext& ctx, uint64_t calls) {
  emulated_calls_ += calls;
  if (charge_overheads_) {
    ctx.Compute(kEmulationCost * calls);
  }
}

void LibosEnv::ChargeRuntime(SyscallContext& ctx, uint64_t units) {
  if (charge_overheads_) {
    ctx.Compute(18 * units);
  }
}

}  // namespace erebor
