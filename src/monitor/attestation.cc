// Attestation and secure-channel termination (paper sections 6.3 and 9):
// the gated tdcall EMC, quote generation, and the ClientHello/DataRecord/Fin
// packet handlers. Packet plumbing (ProxyDeliverBatch/ProxyFetch) is in
// emc_dispatch.cc; record-window accounting lives on ChannelSession.
#include <cstring>

#include "src/common/faultpoint.h"
#include "src/common/log.h"
#include "src/monitor/monitor.h"

namespace erebor {

Status EreborMonitor::EmcTdcall(Cpu& cpu, uint64_t leaf, uint64_t* args, size_t nargs) {
  EmcCall call{};
  call.op = EmcOp::kTdcall;
  call.args.leaf = leaf;
  call.args.nargs = nargs;
  if (leaf != tdcall_leaf::kTdReport) {
    // Only the (refused) report path pays the Table-4 tdreport cost; ordinary
    // GHCI leaves are a plain gated round trip.
    call.has_unit_override = true;
    call.unit_override = 64;
  }
  // The descriptor's validator refuses kTdReport/kRtmrExtend (attestation is
  // exclusively the monitor's, claim C5) and malformed map-gpa argument counts.
  return EmcDispatch(cpu, call, [&]() -> Status {
    if (leaf == tdcall_leaf::kMapGpa) {
      EREBOR_RETURN_IF_ERROR(policy_->CheckSharedConversion(
          FrameOf(args[0]), args[1], args[2] != 0));
    }
    return cpu.Tdcall(leaf, args, nargs);
  });
}

StatusOr<TdQuote> EreborMonitor::GenerateQuote(Cpu& cpu,
                                               const std::array<uint8_t, 64>& report_data) {
  EREBOR_RETURN_IF_ERROR(
      machine_->memory().Write(scratch_pa_, report_data.data(), report_data.size()));
  const bool was_in_monitor = cpu.in_monitor();
  cpu.SetMonitorContext(true);
  uint64_t args[2] = {scratch_pa_, scratch_pa_ + 512};
  const Status st = cpu.Tdcall(tdcall_leaf::kTdReport, args, 2);
  cpu.SetMonitorContext(was_in_monitor);
  EREBOR_RETURN_IF_ERROR(st);
  EREBOR_ASSIGN_OR_RETURN(const TdReport report, tdx_->TakeLastReport());
  return tdx_->SignQuote(report);
}

Status EreborMonitor::HandleHello(Cpu& cpu, const Packet& packet) {
  Sandbox* sandbox = sandbox_mgr_->Find(packet.sandbox_id);
  if (sandbox == nullptr) {
    return NotFoundError("hello for unknown sandbox");
  }
  // The dispatch entered with no target (the sandbox id is inside the packet),
  // so the handler serializes on the sandbox itself.
  SimLockGuard held = locks_.SandboxGuard(cpu, sandbox->lock);
  ChannelSession& session = sandbox->session;
  if (session.IsHelloReplay(packet.client_public, packet.nonce)) {
    // Retransmitted ClientHello: the ServerHello was likely lost in flight, so answer
    // with the identical cached response. Re-running the handshake here would let a
    // replayed hello re-key (and thus reset the sequence space of) a live session.
    session.CountRetransmit();
    Tracer::Global().Record(TraceEvent::kChannelRetry, cpu.index(), cpu.cycles().now(),
                            sandbox->id);
    sandbox->outbound_wire.push_back(session.cached_server_hello);
    NoteFaultRecovered();
    return OkStatus();
  }
  if (!session.RenegotiationAllowed()) {
    // A non-replay hello against a live session that already installed client
    // data is a stale-hello replay (or an active attack): re-keying here would
    // destroy the session's keys, reorder state and cached results, so a
    // recorded old hello could DoS the victim at will. The client signals
    // intentional renegotiation by sending kFin first.
    MetricsRegistry::Global().Increment("channel.hostile_hellos");
    return PermissionDeniedError("hello renegotiation refused on a live session");
  }
  const GroupParams& group = GroupParams::Default();
  const KeyPair ephemeral = GenerateKeyPair(group, rng_);
  const Digest256 transcript =
      HandshakeTranscript(packet.client_public, ephemeral.public_key, packet.nonce);

  std::array<uint8_t, 64> report_data{};
  std::memcpy(report_data.data(), transcript.data(), transcript.size());
  EREBOR_ASSIGN_OR_RETURN(const TdQuote quote, GenerateQuote(cpu, report_data));

  const Bytes shared = DhSharedSecret(group, ephemeral.private_key, packet.client_public);
  // A fresh hello (new nonce/share) is a renegotiation: the whole session state —
  // reorder buffer, cached results, counters — dies with the old keys.
  sandbox->session = ChannelSession{};
  sandbox->session.keys = DeriveSessionKeys(shared, transcript);
  sandbox->session.established = true;
  sandbox->session.hello_client_public = packet.client_public;
  sandbox->session.hello_nonce = packet.nonce;

  Packet response;
  response.type = PacketType::kServerHello;
  response.sandbox_id = sandbox->id;
  response.monitor_public = ephemeral.public_key;
  response.quote = quote;
  sandbox->session.cached_server_hello = response.Serialize();
  sandbox->outbound_wire.push_back(sandbox->session.cached_server_hello);
  return OkStatus();
}

Status EreborMonitor::IngestDataRecordLocked(Cpu& cpu, Sandbox& sandbox,
                                             const RecordView& view) {
  ChannelSession& session = sandbox.session;
  switch (session.AdmitRecord(view)) {
    case ChannelSession::RecordAdmit::kDuplicate:
      // An honest client only re-sends when our result never arrived, so
      // retransmit the cached last result to heal that loss.
      Tracer::Global().Record(TraceEvent::kChannelRetry, cpu.index(), cpu.cycles().now(),
                              sandbox.id, view.sequence);
      if (!session.last_result_wire.empty()) {
        sandbox.outbound_wire.push_back(session.last_result_wire);
        session.CountRetransmit();
        NoteFaultRecovered();
      }
      return OkStatus();
    case ChannelSession::RecordAdmit::kRejected:
      return InvalidArgumentError("data record beyond the reorder window");
    case ChannelSession::RecordAdmit::kStashed:
      return OkStatus();
    case ChannelSession::RecordAdmit::kInSequence:
      break;
  }

  // Authenticate-then-decrypt straight from the wire buffer into the plaintext
  // destination (no intermediate SealedRecord/Packet copies).
  auto accept = [&](const uint8_t* ciphertext, size_t len, const Digest256& tag) -> Status {
    const RecordAad aad{static_cast<uint8_t>(PacketType::kDataRecord), sandbox.id};
    Bytes plaintext(len);
    EREBOR_RETURN_IF_ERROR(AeadOpenInto(session.keys.client_to_server, aad,
                                        session.next_recv_seq, ciphertext, len, tag,
                                        plaintext.data()));
    session.AdvanceRecv();
    session.data_installed = true;
    cpu.cycles().Charge(plaintext.size() * cpu.costs().crypto_per_byte_x100 / 100);
    Tracer::Global().Record(TraceEvent::kChannelDecrypt, cpu.index(), cpu.cycles().now(),
                            sandbox.id, plaintext.size());
    sandbox.input_plaintext.push_back(std::move(plaintext));
    // First client data seals the sandbox (paper section 6.2).
    return sandbox_mgr_->Seal(cpu, sandbox);
  };

  const Status st = accept(view.ciphertext, view.ciphertext_len, view.tag);
  if (!st.ok()) {
    // Authentication failure proves nothing about the sender — a forged header
    // can name any sandbox — so the reject is counted globally, never against
    // this session's strike counters, and the sequence does not advance (an
    // honest client's retransmission of the same record is accepted cleanly).
    NoteChannelAuthReject();
    return st;
  }
  // Drain any stashed reordered records that are now in sequence. A stashed record
  // that fails to open was corrupt on the wire: drop it (the client retransmits).
  SealedRecord stashed;
  while (session.TakeDrainable(&stashed)) {
    if (!accept(stashed.ciphertext.data(), stashed.ciphertext.size(), stashed.tag).ok()) {
      NoteChannelAuthReject();
      break;
    }
    NoteFaultRecovered();
  }
  return OkStatus();
}

Status EreborMonitor::HandleFin(Cpu& cpu, const Packet& packet) {
  Sandbox* sandbox = sandbox_mgr_->Find(packet.sandbox_id);
  if (sandbox == nullptr) {
    return NotFoundError("fin for unknown sandbox");
  }
  SimLockGuard held = locks_.SandboxGuard(cpu, sandbox->lock);
  // An authenticated teardown intent: renegotiation on this slot is legitimate
  // again (the stale-hello guard in HandleHello keys off this).
  sandbox->session.fin_seen = true;
  return sandbox_mgr_->Teardown(cpu, *sandbox);
}

}  // namespace erebor
