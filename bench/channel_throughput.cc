// Channel throughput bench, two parts:
//
// Part A (wall clock): single-session seal+open record pipeline, new zero-copy
// accelerated path (SealRecordWire/ParseRecordWire/OpenRecordWire with the
// SHA-NI + AVX2 dispatch) versus a faithful replica of the pre-PR scalar path
// (byte-at-a-time ChaCha20 block XOR, scalar SHA-256, and the full
// plaintext -> SealedRecord -> Packet::Serialize -> Deserialize -> AeadOpen
// copy chain). Both paths must produce byte-identical wires and plaintexts;
// the new path must be >= 4x at 64 KiB records.
//
// Part B (simulated cycles): multi-session ingest aggregate through
// ProxyDeliverBatch on an 8-vCPU machine, 1/4/16 concurrent sessions, with
// deterministic lock-contention simulation. Throughput is bytes * 2.1e9 /
// max-per-vCPU-cycle-delta. The 16-session aggregate must be >= 2x the
// 1-session aggregate.
//
// Part B also re-runs the ingest cells on the real-thread execution
// engine (one OS thread per vCPU, real mutexes instead of simulated
// contention); every threaded cell must ingest exactly the same per-session
// record counts as a fresh deterministic oracle run. Set
// EREBOR_EXEC=deterministic to skip the threaded half.
//
// Emits BENCH_channel.json (scripts/bench.sh collects and validates it).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "src/common/rng.h"
#include "src/crypto/accel.h"
#include "src/crypto/aead.h"
#include "src/crypto/chacha20.h"
#include "src/libos/libos.h"
#include "src/monitor/channel.h"
#include "src/sim/world.h"

using namespace erebor;

namespace {

// ---- Part A: the pre-PR scalar copy-chain, replicated byte-for-byte ----

ChaChaNonce NonceFromSequence(uint64_t sequence) {
  ChaChaNonce nonce{};
  StoreLe64(nonce.data() + 4, sequence);
  return nonce;
}

// Pre-PR seal: copy the plaintext into a SealedRecord, encrypt it in place with
// the byte-wise scalar ChaCha20, MAC with scalar SHA-256, then serialize the
// whole Packet into yet another buffer.
Bytes BaselineSealToWire(const AeadKeys& keys, int32_t sandbox_id, uint64_t seq,
                         const Bytes& plaintext) {
  accel::ScopedEnable scalar_only(false);
  Packet packet;
  packet.type = PacketType::kDataRecord;
  packet.sandbox_id = sandbox_id;
  packet.record.sequence = seq;
  packet.record.ciphertext = plaintext;  // copy 1
  ChaCha20XorScalar(keys.cipher_key, NonceFromSequence(seq), 1,
                    packet.record.ciphertext.data(), packet.record.ciphertext.size());
  packet.record.tag =
      ComputeTag(keys, RecordAad{static_cast<uint8_t>(packet.type), sandbox_id}, seq,
                 packet.record.ciphertext.data(), packet.record.ciphertext.size());
  return packet.Serialize();  // copy 2
}

// Pre-PR open: deserialize into a Packet (ciphertext copy), verify, then
// decrypt into a fresh plaintext buffer.
StatusOr<Bytes> BaselineOpenFromWire(const AeadKeys& keys, const Bytes& wire,
                                     uint64_t expected_seq) {
  accel::ScopedEnable scalar_only(false);
  EREBOR_ASSIGN_OR_RETURN(const Packet packet, Packet::Deserialize(wire));  // copy 3
  if (packet.record.sequence != expected_seq) {
    return PermissionDeniedError("sequence mismatch");
  }
  const Digest256 tag =
      ComputeTag(keys, RecordAad{static_cast<uint8_t>(packet.type), packet.sandbox_id},
                 expected_seq, packet.record.ciphertext.data(),
                 packet.record.ciphertext.size());
  if (!ConstantTimeEqual(tag.data(), packet.record.tag.data(), tag.size())) {
    return PermissionDeniedError("tag mismatch");
  }
  Bytes plaintext = packet.record.ciphertext;  // copy 4
  ChaCha20XorScalar(keys.cipher_key, NonceFromSequence(expected_seq), 1,
                    plaintext.data(), plaintext.size());
  return plaintext;
}

struct PipelineCell {
  size_t record_bytes = 0;
  double baseline_mbps = 0;
  double zero_copy_mbps = 0;
  double speedup() const {
    return baseline_mbps == 0 ? 0 : zero_copy_mbps / baseline_mbps;
  }
};

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

bool RunPipelineCell(size_t record_bytes, PipelineCell* out) {
  const SessionKeys session = DeriveSessionKeys(Bytes(32, 0x42), Digest256{});
  const AeadKeys& keys = session.client_to_server;
  Rng rng(record_bytes);
  Bytes plaintext(record_bytes);
  rng.Fill(plaintext.data(), plaintext.size());

  // Cross-check first: the two paths must agree on every byte of both the wire
  // and the decrypted plaintext, or the speedup would be comparing different
  // protocols.
  const Bytes baseline_wire = BaselineSealToWire(keys, 1, 0, plaintext);
  const Bytes new_wire = SealRecordWire(keys, PacketType::kDataRecord, 1, 0, plaintext);
  if (baseline_wire != new_wire) {
    std::printf("channel_throughput: wire mismatch at %zu bytes\n", record_bytes);
    return false;
  }
  const auto baseline_plain = BaselineOpenFromWire(keys, baseline_wire, 0);
  auto view = ParseRecordWire(new_wire);
  if (!view.ok()) {
    return false;
  }
  const auto new_plain = OpenRecordWire(keys, *view, 0);
  if (!baseline_plain.ok() || !new_plain.ok() || *baseline_plain != plaintext ||
      *new_plain != plaintext) {
    std::printf("channel_throughput: plaintext mismatch at %zu bytes\n", record_bytes);
    return false;
  }

  // ~32 MiB of record payload per measured cell (floor of 64 iterations).
  const int iters =
      std::max<int>(64, static_cast<int>((32u << 20) / std::max<size_t>(record_bytes, 1)));

  {
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) {
      const Bytes wire = BaselineSealToWire(keys, 1, i, plaintext);
      const auto opened = BaselineOpenFromWire(keys, wire, i);
      if (!opened.ok()) {
        return false;
      }
    }
    out->baseline_mbps =
        static_cast<double>(record_bytes) * iters / SecondsSince(start) / 1e6;
  }
  {
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) {
      const Bytes wire =
          SealRecordWire(keys, PacketType::kDataRecord, 1, i, plaintext);
      auto parsed = ParseRecordWire(wire);
      if (!parsed.ok()) {
        return false;
      }
      const auto opened = OpenRecordWire(keys, *parsed, i);
      if (!opened.ok()) {
        return false;
      }
    }
    out->zero_copy_mbps =
        static_cast<double>(record_bytes) * iters / SecondsSince(start) / 1e6;
  }
  out->record_bytes = record_bytes;
  return true;
}

// ---- Part B: multi-session batched ingest under the EMC lock plan ----

constexpr int kVcpus = 8;
constexpr int kRounds = 120;
constexpr uint64_t kIngestPayload = 4096;

struct IngestCell {
  int sessions = 0;
  uint64_t bytes = 0;
  Cycles wall_cycles = 0;
  uint64_t wall_ns = 0;  // host wall clock (meaningful on the threaded engine)
  // Per-session ingested record counts (session.next_recv_seq), the oracle
  // observable for the engine comparison.
  std::vector<uint64_t> recv_seqs;
  // Aggregate simulated throughput in MB/s at 2.1 GHz.
  double mbps() const {
    return wall_cycles == 0 ? 0 : static_cast<double>(bytes) * 2.1e9 / wall_cycles / 1e6;
  }
  double wall_mbps() const {
    return wall_ns == 0 ? 0 : static_cast<double>(bytes) * 1e9 / wall_ns / 1e6;
  }
};

bool RunIngestCell(int sessions, IngestCell* out,
                   ExecMode exec = ExecMode::kDeterministic) {
  WorldConfig config;
  config.mode = SimMode::kEreborFull;
  config.exec = exec;
  // Up to 16 concurrent ingest sessions — past PKS's 11 sandbox domains.
  config.isolation = IsolationKind::kTmeMk;
  config.machine.num_cpus = kVcpus;
  config.machine.memory_frames = 64 * 1024;
  World world(config);
  if (!world.Boot().ok()) {
    std::printf("channel_throughput: boot failed (%d sessions)\n", sessions);
    return false;
  }

  int initialized = 0;
  std::vector<Sandbox*> fleet;
  for (int i = 0; i < sessions; ++i) {
    SandboxSpec spec;
    spec.name = "chan" + std::to_string(i);
    spec.confined_budget_bytes = 2 << 20;
    auto env = std::make_shared<LibosEnv>(
        LibosManifest{.name = spec.name, .heap_bytes = 1 << 20},
        LibosBackend::kSandboxed);
    auto sandbox = world.LaunchSandboxProcess(
        spec.name, spec, [env, &initialized](SyscallContext& ctx) -> StepOutcome {
          if (!env->initialized()) {
            if (!env->Initialize(ctx).ok()) {
              return StepOutcome::kExited;
            }
            ++initialized;
          }
          ctx.Compute(10'000);  // stay resident; the bench drives ingest directly
          return StepOutcome::kYield;
        });
    if (!sandbox.ok()) {
      std::printf("channel_throughput: launch failed: %s\n",
                  sandbox.status().ToString().c_str());
      return false;
    }
    fleet.push_back(*sandbox);
  }
  if (!world.RunUntil([&] { return initialized == sessions; }, 400'000).ok()) {
    std::printf("channel_throughput: sandboxes failed to initialize\n");
    return false;
  }

  // Open every session through the real handshake, then pre-seal every record,
  // so only the ingest path is measured.
  std::vector<std::vector<Bytes>> records(sessions);
  Rng rng(7);
  Bytes payload(kIngestPayload);
  rng.Fill(payload.data(), payload.size());
  for (int s = 0; s < sessions; ++s) {
    ClientSession session(world, fleet[s]->id, static_cast<uint64_t>(s + 1),
                          &world.machine().cpu(0));
    const Status st = session.Handshake();
    if (!st.ok()) {
      std::printf("channel_throughput: handshake failed: %s\n", st.ToString().c_str());
      return false;
    }
    for (int r = 0; r < kRounds; ++r) {
      records[s].push_back(session.client().SealData(payload));
    }
  }

  EreborMonitor* monitor = world.monitor();
  // Deterministic cells charge simulated contention; under real threads the
  // locks are backed by real mutexes and wall time is the signal.
  monitor->SetLockContention(exec == ExecMode::kDeterministic);
  LockAudit::Global().Reset();

  Machine& machine = world.machine();
  const Cycles start = world.AlignClocks();

  // Session s is pinned to vCPU s % kVcpus (records must stay in sequence per
  // session); each round every vCPU ingests one batch holding one record for
  // each of its sessions, interleaved round-robin so contended acquisitions
  // overlap the way a real concurrent burst would. On the threaded engine the
  // same per-vCPU schedule runs on real OS threads.
  const auto wall_start = std::chrono::steady_clock::now();
  if (exec == ExecMode::kDeterministic) {
    for (int round = 0; round < kRounds; ++round) {
      for (int c = 0; c < kVcpus; ++c) {
        std::vector<Bytes> batch;
        for (int s = c; s < sessions; s += kVcpus) {
          batch.push_back(records[s][round]);
        }
        if (batch.empty()) {
          continue;
        }
        const Status st = monitor->ProxyDeliverBatch(machine.cpu(c), batch);
        if (!st.ok()) {
          std::printf("channel_throughput: ingest failed: %s\n", st.ToString().c_str());
          return false;
        }
      }
    }
  } else {
    const Status st = world.RunOnThreads([&](int c) -> Status {
      for (int round = 0; round < kRounds; ++round) {
        std::vector<Bytes> batch;
        for (int s = c; s < sessions; s += kVcpus) {
          batch.push_back(records[s][round]);
        }
        if (batch.empty()) {
          continue;
        }
        EREBOR_RETURN_IF_ERROR(monitor->ProxyDeliverBatch(machine.cpu(c), batch));
      }
      return OkStatus();
    });
    if (!st.ok()) {
      std::printf("channel_throughput: threaded ingest failed: %s\n",
                  st.ToString().c_str());
      return false;
    }
  }
  const auto wall_end = std::chrono::steady_clock::now();

  Cycles wall = 0;
  for (int c = 0; c < kVcpus; ++c) {
    wall = std::max(wall, machine.cpu(c).cycles().now() - start);
  }

  // Every record must actually have been installed, in order, per session.
  for (int s = 0; s < sessions; ++s) {
    if (fleet[s]->session.next_recv_seq != static_cast<uint64_t>(kRounds)) {
      std::printf("channel_throughput: session %d ingested %llu/%d records\n", s,
                  static_cast<unsigned long long>(fleet[s]->session.next_recv_seq),
                  kRounds);
      return false;
    }
  }
  if (LockAudit::Global().violations() != 0) {
    std::printf("channel_throughput: lock-discipline violations recorded\n");
    return false;
  }
  if (!monitor->AuditInvariants().ok()) {
    std::printf("channel_throughput: invariant audit failed\n");
    return false;
  }

  out->sessions = sessions;
  out->bytes = static_cast<uint64_t>(sessions) * kRounds * kIngestPayload;
  out->wall_cycles = wall;
  out->wall_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(wall_end - wall_start)
          .count());
  out->recv_seqs.clear();
  for (int s = 0; s < sessions; ++s) {
    out->recv_seqs.push_back(fleet[s]->session.next_recv_seq);
  }
  return true;
}

}  // namespace

int main() {
  const bool accelerated = accel::HasShaNi() && accel::HasAvx2();
  std::printf("=== channel throughput ===\n");
  std::printf("cpu features: sha_ni=%d avx2=%d\n", accel::HasShaNi(), accel::HasAvx2());

  // Part A.
  std::printf("\n-- single-session seal+open pipeline (wall clock) --\n");
  std::printf("%-12s %14s %14s %9s\n", "record", "scalar MB/s", "zero-copy MB/s",
              "speedup");
  Json pipeline = Json::Array();
  double speedup_64k = 0;
  bool ok = true;
  for (const size_t bytes :
       {size_t{64}, size_t{1024}, size_t{4096}, size_t{65536}, size_t{262144}}) {
    PipelineCell cell;
    if (!RunPipelineCell(bytes, &cell)) {
      return 1;
    }
    if (bytes == 65536) {
      speedup_64k = cell.speedup();
    }
    std::printf("%-12zu %14.1f %14.1f %8.2fx\n", bytes, cell.baseline_mbps,
                cell.zero_copy_mbps, cell.speedup());
    pipeline.Push(Json::Object()
                      .Set("record_bytes", static_cast<uint64_t>(cell.record_bytes))
                      .Set("baseline_mbps", cell.baseline_mbps)
                      .Set("zero_copy_mbps", cell.zero_copy_mbps)
                      .Set("speedup", cell.speedup()));
  }
  std::printf("\nspeedup at 64 KiB records: %.2fx (target >= 4x)\n", speedup_64k);
  if (speedup_64k < 4.0) {
    if (accelerated) {
      std::printf("channel_throughput: FAIL below 4x at 64 KiB\n");
      ok = false;
    } else {
      std::printf("channel_throughput: WARN no SHA-NI/AVX2 on this host; "
                  "4x gate skipped\n");
    }
  }

  // Part B.
  std::printf("\n-- multi-session batched ingest (simulated cycles, %d vCPUs) --\n",
              kVcpus);
  std::printf("%-9s %14s\n", "sessions", "MB/s");
  Json ingest = Json::Array();
  double mbps_1 = 0, mbps_16 = 0;
  for (const int sessions : {1, 4, 16}) {
    IngestCell cell;
    if (!RunIngestCell(sessions, &cell)) {
      return 1;
    }
    if (sessions == 1) {
      mbps_1 = cell.mbps();
    }
    if (sessions == 16) {
      mbps_16 = cell.mbps();
    }
    std::printf("%-9d %14.1f\n", sessions, cell.mbps());
    ingest.Push(Json::Object()
                    .Set("sessions", cell.sessions)
                    .Set("bytes", cell.bytes)
                    .Set("wall_cycles", static_cast<uint64_t>(cell.wall_cycles))
                    .Set("aggregate_mbps", cell.mbps()));
  }
  const double scale_16 = mbps_1 == 0 ? 0 : mbps_16 / mbps_1;
  std::printf("\naggregate, 16 sessions vs 1: %.2fx (target >= 2x)\n", scale_16);
  if (scale_16 < 2.0) {
    std::printf("channel_throughput: FAIL 16-session aggregate below 2x\n");
    ok = false;
  }

  // -- real-thread engine: same ingest cells, record-count oracle --
  Json ingest_engine = Json::Array();
  bool engine_oracle = true;
  const char* exec_env = std::getenv("EREBOR_EXEC");
  if (exec_env == nullptr || std::string(exec_env) != "deterministic") {
    std::printf("\n-- real-thread engine ingest (host wall clock, %d vCPUs) --\n",
                kVcpus);
    std::printf("%-9s %14s %9s\n", "sessions", "wall MB/s", "oracle");
    for (const int sessions : {4, 16}) {
      IngestCell threaded, oracle;
      if (!RunIngestCell(sessions, &threaded, ExecMode::kRealThreads) ||
          !RunIngestCell(sessions, &oracle, ExecMode::kDeterministic)) {
        return 1;
      }
      const bool match = threaded.recv_seqs == oracle.recv_seqs;
      if (!match) {
        std::printf("channel_throughput: ORACLE MISMATCH per-session record "
                    "counts (%d sessions)\n",
                    sessions);
        engine_oracle = false;
      }
      std::printf("%-9d %14.1f %9s\n", sessions, threaded.wall_mbps(),
                  match ? "match" : "MISMATCH");
      ingest_engine.Push(Json::Object()
                             .Set("sessions", sessions)
                             .Set("bytes", threaded.bytes)
                             .Set("wall_ns", threaded.wall_ns)
                             .Set("wall_mbps", threaded.wall_mbps())
                             .Set("oracle_match", match));
    }
    if (!engine_oracle) {
      ok = false;
    }
  } else {
    std::printf("\nEREBOR_EXEC=deterministic: skipping real-thread ingest\n");
  }

  Json root = Json::Object();
  root.Set("bench", "channel")
      .Set("sha_ni", accel::HasShaNi())
      .Set("avx2", accel::HasAvx2())
      .Set("pipeline", std::move(pipeline))
      .Set("ingest", std::move(ingest))
      .Set("ingest_engine", std::move(ingest_engine))
      .Set("engine_oracle_match", engine_oracle)
      .Set("speedup_64k", speedup_64k)
      .Set("sharded_scale_16_sessions", scale_16)
      .Set("pass", ok);
  std::string path;
  if (WriteBenchJson("channel", root, &path)) {
    std::printf("channel_throughput: JSON written to %s\n", path.c_str());
  }
  return ok ? 0 : 1;
}
