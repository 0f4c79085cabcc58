#include "src/client/client.h"

#include <cstring>

#include "src/common/metrics.h"

namespace erebor {

Digest256 ComputeExpectedMrtd(const Bytes& firmware_image, const Bytes& monitor_image) {
  MeasurementRegisters regs;
  regs.ExtendMrtd(Sha256::Hash(firmware_image));
  regs.ExtendMrtd(Sha256::Hash(monitor_image));
  return regs.mrtd;
}

namespace {
// Default retransmit schedule, in scheduler slices: generous enough for chaos soaks
// (dozens of retransmission rounds under heavy fault injection), tight enough that a
// dead peer exhausts the budget instead of wedging the session driver.
constexpr BackoffPolicy kClientRetryPolicy{
    .max_attempts = 256, .base_wait = 8, .max_wait = 256, .jitter_pct = 50};
}  // namespace

RemoteClient::RemoteClient(ClientTrustAnchors anchors, uint64_t seed)
    : anchors_(anchors), rng_(seed), backoff_(kClientRetryPolicy, seed) {}

void RemoteClient::AccountResend() {
  ++retries_;
  MetricsRegistry::Global().Increment("channel.retries");
  if (!backoff_.NextWait(&retry_wait_)) {
    retry_wait_ = backoff_.policy().max_wait;  // exhausted: caller must give up
  }
}

Bytes RemoteClient::MakeHello(int sandbox_id) {
  sandbox_id_ = sandbox_id;
  ephemeral_ = GenerateKeyPair(GroupParams::Default(), rng_);
  rng_.Fill(nonce_.data(), nonce_.size());
  Packet packet;
  packet.type = PacketType::kClientHello;
  packet.sandbox_id = sandbox_id;
  packet.client_public = ephemeral_.public_key;
  packet.nonce = nonce_;
  last_hello_wire_ = packet.Serialize();
  return last_hello_wire_;
}

Bytes RemoteClient::ResendHello() {
  AccountResend();
  return last_hello_wire_;
}

Bytes RemoteClient::ResendData() {
  AccountResend();
  return last_data_wire_;
}

Status RemoteClient::ProcessServerHello(const Bytes& wire) {
  EREBOR_ASSIGN_OR_RETURN(const Packet packet, Packet::Deserialize(wire));
  if (packet.type != PacketType::kServerHello) {
    return InvalidArgumentError("expected ServerHello");
  }
  // 1. Quote signature: signed by the platform attestation key.
  if (!SchnorrVerify(GroupParams::Default(), anchors_.platform_attestation_key,
                     packet.quote.report.SerializeForMac(), packet.quote.signature)) {
    return PermissionDeniedError("quote signature verification failed");
  }
  // 2. Measurement: the CVM must be running exactly the expected firmware + monitor.
  if (!ConstantTimeEqual(packet.quote.report.measurements.mrtd.data(),
                         anchors_.expected_mrtd.data(), 32)) {
    return PermissionDeniedError("MRTD mismatch: unexpected monitor/firmware");
  }
  // 3. Transcript binding: report_data must commit to *this* handshake, so the DH peer
  // is the measured monitor (no impersonation by the untrusted OS, claim C5).
  const Digest256 transcript =
      HandshakeTranscript(ephemeral_.public_key, packet.monitor_public, nonce_);
  if (!ConstantTimeEqual(packet.quote.report.report_data.data(), transcript.data(), 32)) {
    return PermissionDeniedError("quote does not bind this handshake");
  }
  const Bytes shared =
      DhSharedSecret(GroupParams::Default(), ephemeral_.private_key, packet.monitor_public);
  keys_ = DeriveSessionKeys(shared, transcript);
  established_ = true;
  return OkStatus();
}

Bytes RemoteClient::SealData(const Bytes& plaintext) {
  // Seal straight into the wire buffer; byte-identical to the old
  // Packet-serialize path, minus its staging copies.
  last_data_wire_ = SealRecordWire(keys_.client_to_server, PacketType::kDataRecord,
                                   sandbox_id_, send_seq_++, plaintext);
  return last_data_wire_;
}

StatusOr<Bytes> RemoteClient::OpenResult(const Bytes& wire) {
  EREBOR_ASSIGN_OR_RETURN(const RecordView view, ParseRecordWire(wire));
  if (view.type != PacketType::kResultRecord) {
    return InvalidArgumentError("expected ResultRecord");
  }
  if (view.sandbox_id != sandbox_id_) {
    return InvalidArgumentError("result record for a different sandbox");
  }
  const uint64_t seq = view.sequence;
  if (seq < recv_seq_) {
    return AlreadyExistsError("duplicate result record (seq " + std::to_string(seq) +
                              " already consumed)");
  }
  if (seq > recv_seq_) {
    if (seq - recv_seq_ > ChannelSession::kReorderWindow) {
      return OutOfRangeError("result record beyond the reorder window");
    }
    SealedRecord& slot = stashed_[seq];
    slot.sequence = seq;
    slot.ciphertext.assign(view.ciphertext, view.ciphertext + view.ciphertext_len);
    slot.tag = view.tag;
    return UnavailableError("result out of order; stashed awaiting seq " +
                            std::to_string(recv_seq_));
  }
  EREBOR_ASSIGN_OR_RETURN(const Bytes padded,
                          OpenRecordWire(keys_.server_to_client, view, recv_seq_));
  ++recv_seq_;
  return UnpadOutput(padded);
}

StatusOr<Bytes> RemoteClient::PopStashedResult() {
  const auto it = stashed_.find(recv_seq_);
  if (it == stashed_.end()) {
    return NotFoundError("no stashed result at seq " + std::to_string(recv_seq_));
  }
  const RecordAad aad{static_cast<uint8_t>(PacketType::kResultRecord), sandbox_id_};
  EREBOR_ASSIGN_OR_RETURN(
      const Bytes padded, AeadOpen(keys_.server_to_client, aad, it->second, recv_seq_));
  stashed_.erase(it);
  ++recv_seq_;
  return UnpadOutput(padded);
}

Bytes RemoteClient::MakeFin() {
  Packet packet;
  packet.type = PacketType::kFin;
  packet.sandbox_id = sandbox_id_;
  return packet.Serialize();
}

}  // namespace erebor
