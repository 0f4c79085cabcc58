// Erebor's Library OS (the Gramine-derived toolchain of paper section 6.2/7).
//
// The LibOS emulates the four runtime services a sandboxed application needs after the
// kernel becomes unreachable: (1) heap memory management over pre-declared confined
// memory, (2) an in-memory stateless filesystem, (3) multi-threading with userspace
// spinlock synchronization (futexes are unavailable in a sealed sandbox), and (4) the
// client data channel through the monitor's /dev/erebor ioctl interface.
//
// Two backends share the application-facing API:
//  - kSandboxed: confined memory via the erebor driver, I/O via monitor ioctls;
//  - kNativeDirect: plain mmap + ramfs files (the LibOS-only and Native baselines).
#ifndef EREBOR_SRC_LIBOS_LIBOS_H_
#define EREBOR_SRC_LIBOS_LIBOS_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/kernel/kernel.h"
#include "src/monitor/monitor.h"

namespace erebor {

enum class LibosBackend : uint8_t { kNativeDirect, kSandboxed };

struct LibosManifest {
  std::string name;
  uint64_t heap_bytes = 8ull << 20;
  int num_threads = 1;
  uint64_t output_pad_bytes = 4096;
  // Files preloaded into the in-memory FS before client data arrives.
  std::vector<std::pair<std::string, Bytes>> preload_files;
};

// Userspace spinlock (SGX-SDK style, paper section 6.2): no futex exits, busy waiting
// charged as cycles.
class SpinLock {
 public:
  void set_charge(bool charge) { charge_ = charge; }
  bool TryAcquire(SyscallContext& ctx, int tid);
  void Release();
  bool held() const { return holder_ != -1; }
  uint64_t contention_spins() const { return contention_spins_; }

 private:
  int holder_ = -1;
  bool charge_ = true;
  uint64_t contention_spins_ = 0;
};

// Shared state of one LibOS instance (one application, possibly many threads).
class LibosEnv {
 public:
  // charge_overheads=false models the "Native" baseline where the application links
  // directly against the kernel ABI with no LibOS emulation layer in between.
  LibosEnv(LibosManifest manifest, LibosBackend backend, bool charge_overheads = true);

  const LibosManifest& manifest() const { return manifest_; }
  LibosBackend backend() const { return backend_; }

  // Leader-thread initialization: allocates + declares all memory up front, preloads
  // files, opens the monitor device (sandbox backend).
  Status Initialize(SyscallContext& ctx);
  bool initialized() const { return initialized_; }

  // ---- Clone fast path (warm starts, ROADMAP item 2) ----
  // Adopts the host-side bookkeeping of a template's fully initialized env —
  // heap cursors, memfs layout, io-buffer VAs — whose backing pages the clone
  // already shares copy-on-write at the same VAs. Run before AttachClone.
  void AdoptTemplateState(const LibosEnv& tmpl);
  // Replaces Initialize for clones: the arena rides in on the template's
  // CoW-shared pages, so the whole bring-up shrinks to opening this process's
  // own /dev/erebor fd (fds are per-task and cannot be cloned).
  Status AttachClone(SyscallContext& ctx);

  // ---- Heap (bump + free-list over the confined arena) ----
  StatusOr<Vaddr> Alloc(uint64_t size);
  uint64_t heap_used() const { return heap_used_; }

  // ---- In-memory stateless filesystem ----
  Status FileCreate(SyscallContext& ctx, const std::string& name, const Bytes& contents);
  StatusOr<Bytes> FileRead(SyscallContext& ctx, const std::string& name);
  bool FileExists(const std::string& name) const { return memfs_.count(name) > 0; }

  // ---- Client data channel ----
  // kUnavailable("EAGAIN") when no input is pending yet.
  StatusOr<Bytes> RecvInput(SyscallContext& ctx, uint64_t max_len = 1ull << 20);
  Status SendOutput(SyscallContext& ctx, const Bytes& data);

  // ---- Threads / synchronization ----
  // Pre-spawns the manifest's worker threads (must run before client data arrives).
  Status SpawnWorkers(SyscallContext& ctx, const std::vector<ProgramFn>& workers);
  SpinLock& lock(size_t index);

  // Charges the small userspace-emulation overhead the LibOS adds per emulated call.
  void ChargeEmulation(SyscallContext& ctx, uint64_t calls = 1);
  // Per-work-item runtime tax (allocator/TLS/libc bookkeeping under the LibOS); one
  // unit is ~18 cycles. No-op in the Native baseline.
  void ChargeRuntime(SyscallContext& ctx, uint64_t units);

  // Scratch VA arena for workloads (valid after Initialize).
  Vaddr heap_base() const { return heap_base_; }
  int erebor_fd() const { return erebor_fd_; }

  // Statistics for Table 6.
  uint64_t emulated_calls() const { return emulated_calls_; }

 private:
  struct MemFile {
    Vaddr data_va = 0;
    uint64_t size = 0;
    uint64_t capacity = 0;
  };

  struct FreeBlock {
    Vaddr va;
    uint64_t size;
  };

  LibosManifest manifest_;
  LibosBackend backend_;
  bool charge_overheads_;
  bool initialized_ = false;

  Vaddr heap_base_ = 0;
  uint64_t heap_limit_ = 0;
  uint64_t heap_cursor_ = 0;
  uint64_t heap_used_ = 0;
  std::vector<FreeBlock> free_list_;

  std::map<std::string, MemFile> memfs_;
  Vaddr io_buf_va_ = 0;     // reusable channel buffer (polling must not leak heap)
  uint64_t io_buf_cap_ = 0;
  Vaddr io_req_va_ = 0;     // reusable 16-byte ioctl request
  std::vector<std::unique_ptr<SpinLock>> locks_;
  int erebor_fd_ = -1;
  int io_in_fd_ = -1;   // native backend: ramfs-based channel
  int io_out_fd_ = -1;
  uint64_t emulated_calls_ = 0;
};

// Fixed VA where the LibOS places the confined arena inside a sandbox.
inline constexpr Vaddr kLibosArenaBase = 0x0000200000000000ULL;
// Fixed VA where common regions are attached.
inline constexpr Vaddr kLibosCommonBase = 0x0000300000000000ULL;

}  // namespace erebor

#endif  // EREBOR_SRC_LIBOS_LIBOS_H_
