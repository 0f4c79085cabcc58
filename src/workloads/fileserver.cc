#include "src/workloads/fileserver.h"

#include "src/kernel/syscalls.h"

namespace erebor {

namespace {

struct ServerState {
  ServerKind kind = ServerKind::kNginx;
  uint64_t file_bytes = 0;
  uint64_t requests = 0;
  uint64_t completed = 0;
  // Nginx reads in 16 KiB buffers; the SSH channel packetizes at 4 KiB, so it makes
  // 4x the syscalls per byte (why the paper sees a larger OpenSSH reduction).
  uint64_t chunk = 16 * 1024;
  bool done = false;
  bool failed = false;
  std::string error;
  Cycles cycles_used = 0;
  int phase = 0;
  Vaddr buffer = 0;
  int fd = -1;

  // Crypto cost for the OpenSSH-style server: ~6 cycles/byte (AES-NI-ish).
  static constexpr Cycles kCryptoCyclesPerByteX100 = 600;
};

Status ReopenFile(SyscallContext& ctx, ServerState& s, bool create) {
  const std::string path = "served.bin";
  EREBOR_RETURN_IF_ERROR(ctx.WriteUser(
      s.buffer, reinterpret_cast<const uint8_t*>(path.data()), path.size()));
  EREBOR_ASSIGN_OR_RETURN(const uint64_t fd,
                          ctx.Syscall(sys::kOpen, s.buffer, path.size(), create ? 1 : 0));
  s.fd = static_cast<int>(fd);
  return OkStatus();
}

ProgramFn MakeServerProgram(std::shared_ptr<ServerState> state) {
  return [state](SyscallContext& ctx) -> StepOutcome {
    ServerState& s = *state;
    auto fail = [&](const Status& st) {
      s.failed = true;
      s.error = st.ToString();
      s.done = true;
      return StepOutcome::kExited;
    };

    if (s.phase == 0) {
      // Setup: mmap a transfer buffer and create the served file.
      auto buf = ctx.task().aspace->CreateVma(
          PageAlignUp(s.chunk) + 2 * kPageSize,
          pte::kPresent | pte::kUser | pte::kWritable | pte::kNoExecute, VmaKind::kAnon);
      if (!buf.ok()) {
        return fail(buf.status());
      }
      s.buffer = *buf;
      Status st = ReopenFile(ctx, s, true);
      if (!st.ok()) {
        return fail(st);
      }
      // Populate the file in chunk-sized writes.
      Bytes junk(s.chunk, 0x5A);
      for (uint64_t off = 0; off < s.file_bytes; off += s.chunk) {
        const uint64_t n = std::min(s.chunk, s.file_bytes - off);
        st = ctx.WriteUser(s.buffer + kPageSize, junk.data(), n);
        if (!st.ok()) {
          return fail(st);
        }
        auto w = ctx.Syscall(sys::kWrite, s.fd, s.buffer + kPageSize, n);
        if (!w.ok()) {
          return fail(w.status());
        }
      }
      st = ctx.Syscall(sys::kClose, s.fd).status();
      if (!st.ok()) {
        return fail(st);
      }
      s.phase = 1;
      return StepOutcome::kYield;
    }

    // One request per slice: accept -> open -> chunked read (+ crypto for ssh) ->
    // net send of a summary frame -> close.
    if (s.completed < s.requests) {
      const Cycles before = ctx.cpu().cycles().now();
      ctx.Compute(25'000);  // request parsing / session handling (mode-independent)
      Status st = ReopenFile(ctx, s, false);
      if (!st.ok()) {
        return fail(st);
      }
      PageCursor pages(ctx);
      uint64_t transferred = 0;
      while (transferred < s.file_bytes) {
        auto r = ctx.Syscall(sys::kRead, s.fd, s.buffer + kPageSize, s.chunk);
        if (!r.ok()) {
          return fail(r.status());
        }
        if (*r == 0) {
          break;
        }
        if (s.kind == ServerKind::kOpenSsh) {
          // Encrypt the chunk: one real pass over the bytes + charged cipher cost.
          uint8_t* page = pages.At(s.buffer + kPageSize, true);
          if (page == nullptr) {
            return fail(pages.status());
          }
          uint8_t x = 0x3C;
          for (uint64_t i = 0; i < std::min<uint64_t>(*r, kPageSize); ++i) {
            page[i] ^= x;
            x = static_cast<uint8_t>(x * 5 + 1);
          }
          ctx.Compute(*r * ServerState::kCryptoCyclesPerByteX100 / 100);
        }
        transferred += *r;
        if (!ctx.Poll()) {
          s.done = true;
          return StepOutcome::kExited;
        }
      }
      // Send a transfer-complete frame to the client over the virtio net path.
      uint8_t frame[16];
      StoreLe64(frame, s.completed);
      StoreLe64(frame + 8, transferred);
      st = ctx.WriteUser(s.buffer, frame, sizeof(frame));
      if (!st.ok()) {
        return fail(st);
      }
      (void)ctx.Syscall(sys::kSendto, s.buffer, sizeof(frame));
      st = ctx.Syscall(sys::kClose, s.fd).status();
      if (!st.ok()) {
        return fail(st);
      }
      ++s.completed;
      s.cycles_used += ctx.cpu().cycles().now() - before;
      return StepOutcome::kYield;
    }
    s.done = true;
    return StepOutcome::kExited;
  };
}

}  // namespace

std::vector<uint64_t> FileServerSizes() {
  return {1ull << 10, 4ull << 10, 16ull << 10, 64ull << 10, 256ull << 10,
          1ull << 20, 4ull << 20, 16ull << 20};
}

StatusOr<FileServerResult> RunFileServer(ServerKind kind, SimMode mode,
                                         uint64_t file_bytes, uint64_t requests,
                                         const RunnerOptions& options) {
  WorldConfig config;
  config.mode = mode;
  config.machine.num_cpus = options.num_cpus;
  // The 16 MiB file sweep needs more guest memory than the RunnerOptions
  // default; keep the historical 256 MiB sizing regardless of the option.
  config.machine.memory_frames = 64 * 1024;
  World world(config);
  EREBOR_RETURN_IF_ERROR(world.Boot());

  auto state = std::make_shared<ServerState>();
  state->kind = kind;
  state->file_bytes = file_bytes;
  state->requests = requests;
  if (kind == ServerKind::kOpenSsh) {
    state->chunk = 2 * 1024;
  }

  EREBOR_RETURN_IF_ERROR(
      world.LaunchProcess("fileserver", MakeServerProgram(state)).status());
  EREBOR_RETURN_IF_ERROR(world.RunUntil([&] { return state->done; }, 50'000'000));
  if (state->failed) {
    return InternalError("fileserver: " + state->error);
  }

  FileServerResult result;
  result.kind = kind;
  result.file_bytes = file_bytes;
  result.requests = state->completed;
  result.total_cycles = state->cycles_used;
  return result;
}

}  // namespace erebor
