#include "src/monitor/channel.h"

#include <cassert>
#include <cstring>

#include "src/common/metrics.h"

namespace erebor {

namespace {

void Put32(Bytes& out, uint32_t v) {
  out.resize(out.size() + 4);
  StoreLe32(out.data() + out.size() - 4, v);
}

void Put64(Bytes& out, uint64_t v) {
  out.resize(out.size() + 8);
  StoreLe64(out.data() + out.size() - 8, v);
}

void PutBytes(Bytes& out, const Bytes& b) {
  Put32(out, static_cast<uint32_t>(b.size()));
  out.insert(out.end(), b.begin(), b.end());
}

void PutU256(Bytes& out, const U256& v) {
  const Bytes b = v.ToBytesBe();
  out.insert(out.end(), b.begin(), b.end());
}

class Reader {
 public:
  explicit Reader(const Bytes& wire) : wire_(wire) {}

  bool ok() const { return ok_; }

  uint8_t Get8() {
    if (!Need(1)) {
      return 0;
    }
    return wire_[pos_++];
  }
  uint32_t Get32() {
    if (!Need(4)) {
      return 0;
    }
    const uint32_t v = LoadLe32(wire_.data() + pos_);
    pos_ += 4;
    return v;
  }
  uint64_t Get64() {
    if (!Need(8)) {
      return 0;
    }
    const uint64_t v = LoadLe64(wire_.data() + pos_);
    pos_ += 8;
    return v;
  }
  Bytes GetBytes() {
    const uint32_t len = Get32();
    // The length prefix is attacker-controlled: it must be covered by bytes actually
    // present on the wire before any buffer is sized from it.
    if (len > wire_.size() || !Need(len)) {
      ok_ = false;
      return {};
    }
    Bytes b(wire_.begin() + pos_, wire_.begin() + pos_ + len);
    pos_ += len;
    return b;
  }
  U256 GetU256() {
    if (!Need(32)) {
      return U256();
    }
    const U256 v = U256::FromBytesBe(wire_.data() + pos_, 32);
    pos_ += 32;
    return v;
  }
  template <size_t N>
  void GetArray(std::array<uint8_t, N>& out) {
    if (!Need(N)) {
      return;
    }
    std::memcpy(out.data(), wire_.data() + pos_, N);
    pos_ += N;
  }

 private:
  bool Need(size_t n) {
    // Written as a subtraction so a near-SIZE_MAX `n` cannot wrap the comparison
    // (pos_ <= wire_.size() always holds).
    if (n > wire_.size() - pos_) {
      ok_ = false;
      return false;
    }
    return true;
  }

  const Bytes& wire_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace

Bytes Packet::Serialize() const {
  Bytes out;
  out.push_back(static_cast<uint8_t>(type));
  Put32(out, static_cast<uint32_t>(sandbox_id));
  switch (type) {
    case PacketType::kClientHello:
      PutU256(out, client_public);
      out.insert(out.end(), nonce.begin(), nonce.end());
      break;
    case PacketType::kServerHello: {
      PutU256(out, monitor_public);
      // Quote: measurements, report data, mac, signature.
      const Bytes meas = quote.report.measurements.Serialize();
      PutBytes(out, meas);
      out.insert(out.end(), quote.report.report_data.begin(), quote.report.report_data.end());
      out.insert(out.end(), quote.report.mac.begin(), quote.report.mac.end());
      PutU256(out, quote.signature.commitment);
      PutU256(out, quote.signature.response);
      break;
    }
    case PacketType::kDataRecord:
    case PacketType::kResultRecord:
      Put64(out, record.sequence);
      PutBytes(out, record.ciphertext);
      out.insert(out.end(), record.tag.begin(), record.tag.end());
      break;
    case PacketType::kFin:
      break;
  }
  return out;
}

namespace {

StatusOr<Packet> DeserializeImpl(const Bytes& wire) {
  if (wire.size() > wire::kMaxWireBytes) {
    return InvalidArgumentError("packet exceeds the wire limit");
  }
  Reader reader(wire);
  Packet packet;
  packet.type = static_cast<PacketType>(reader.Get8());
  packet.sandbox_id = static_cast<int32_t>(reader.Get32());
  switch (packet.type) {
    case PacketType::kClientHello:
      packet.client_public = reader.GetU256();
      reader.GetArray(packet.nonce);
      break;
    case PacketType::kServerHello: {
      packet.monitor_public = reader.GetU256();
      const Bytes meas = reader.GetBytes();
      if (meas.size() != 32 * 5) {
        return InvalidArgumentError("bad measurement blob");
      }
      std::memcpy(packet.quote.report.measurements.mrtd.data(), meas.data(), 32);
      for (int i = 0; i < 4; ++i) {
        std::memcpy(packet.quote.report.measurements.rtmr[i].data(),
                    meas.data() + 32 * (i + 1), 32);
      }
      reader.GetArray(packet.quote.report.report_data);
      reader.GetArray(packet.quote.report.mac);
      packet.quote.signature.commitment = reader.GetU256();
      packet.quote.signature.response = reader.GetU256();
      break;
    }
    case PacketType::kDataRecord:
    case PacketType::kResultRecord: {
      packet.record.sequence = reader.Get64();
      packet.record.ciphertext = reader.GetBytes();
      reader.GetArray(packet.record.tag);
      break;
    }
    case PacketType::kFin:
      break;
    default:
      return InvalidArgumentError("unknown packet type");
  }
  if (!reader.ok()) {
    return InvalidArgumentError("truncated packet");
  }
  return packet;
}

}  // namespace

StatusOr<Packet> Packet::Deserialize(const Bytes& wire) {
  StatusOr<Packet> packet = DeserializeImpl(wire);
  MetricsRegistry::Global().Increment(packet.ok() ? "channel.packets_parsed"
                                                  : "channel.parse_rejects");
  return packet;
}

Bytes SealRecordWire(const AeadKeys& keys, PacketType type, int32_t sandbox_id,
                     uint64_t sequence, const uint8_t* plaintext, size_t len) {
  // Same bytes as Packet::Serialize for a data/result record, but the ciphertext
  // is produced in place in the wire buffer: one encryption pass, no staging copy.
  Bytes out(wire::kRecordHeaderBytes + len + wire::kRecordTagBytes);
  out[0] = static_cast<uint8_t>(type);
  StoreLe32(out.data() + 1, static_cast<uint32_t>(sandbox_id));
  StoreLe64(out.data() + 5, sequence);
  StoreLe32(out.data() + 13, static_cast<uint32_t>(len));
  const RecordAad aad{static_cast<uint8_t>(type), sandbox_id};
  const Digest256 tag =
      AeadSealInto(keys, aad, sequence, plaintext, len, out.data() + wire::kRecordHeaderBytes);
  std::memcpy(out.data() + wire::kRecordHeaderBytes + len, tag.data(), tag.size());
  return out;
}

namespace {

StatusOr<RecordView> ParseRecordWireImpl(const Bytes& wire) {
  if (wire.size() > wire::kMaxWireBytes) {
    return InvalidArgumentError("packet exceeds the wire limit");
  }
  if (wire.size() < wire::kRecordHeaderBytes + wire::kRecordTagBytes) {
    return InvalidArgumentError("truncated packet");
  }
  RecordView view;
  view.type = static_cast<PacketType>(wire[0]);
  if (view.type != PacketType::kDataRecord && view.type != PacketType::kResultRecord) {
    return InvalidArgumentError("not a record packet");
  }
  view.sandbox_id = static_cast<int32_t>(LoadLe32(wire.data() + 1));
  view.sequence = LoadLe64(wire.data() + 5);
  const uint32_t ct_len = LoadLe32(wire.data() + 13);
  // The length prefix is attacker-controlled; a record carries exactly one
  // ciphertext and one tag, so it must match the remaining bytes exactly.
  if (ct_len != wire.size() - wire::kRecordHeaderBytes - wire::kRecordTagBytes) {
    return InvalidArgumentError("record length prefix mismatch");
  }
  view.ciphertext = wire.data() + wire::kRecordHeaderBytes;
  view.ciphertext_len = ct_len;
  std::memcpy(view.tag.data(), wire.data() + wire::kRecordHeaderBytes + ct_len,
              view.tag.size());
  return view;
}

}  // namespace

StatusOr<RecordView> ParseRecordWire(const Bytes& wire) {
  StatusOr<RecordView> view = ParseRecordWireImpl(wire);
  MetricsRegistry::Global().Increment(view.ok() ? "channel.packets_parsed"
                                                : "channel.parse_rejects");
  return view;
}

StatusOr<Bytes> OpenRecordWire(const AeadKeys& keys, const RecordView& view,
                               uint64_t expected_sequence) {
  if (view.sequence != expected_sequence) {
    return PermissionDeniedError("AEAD record sequence mismatch (replay or reorder)");
  }
  Bytes plaintext(view.ciphertext_len);
  EREBOR_RETURN_IF_ERROR(AeadOpenInto(keys, view.Aad(), view.sequence, view.ciphertext,
                                      view.ciphertext_len, view.tag, plaintext.data()));
  return plaintext;
}

void NoteChannelAuthReject() {
  MetricsRegistry::Global().Increment("channel.corrupt_rejects");
}

namespace {

// Shared admission logic; `stash` is invoked only for kStashed so the zero-copy
// caller materializes a SealedRecord copy only when one is actually parked.
template <typename StashFn>
ChannelSession::RecordAdmit AdmitRecordImpl(ChannelSession& session, uint64_t seq,
                                            StashFn&& stash) {
  using RecordAdmit = ChannelSession::RecordAdmit;
  if (seq < session.next_recv_seq) {
    // Replay window: a duplicate of an already-accepted record. It is absorbed,
    // never re-decrypted or re-delivered (replay cannot double-install client data).
    ++session.duplicates;
    MetricsRegistry::Global().Increment("channel.duplicates");
    return RecordAdmit::kDuplicate;
  }
  if (seq > session.next_recv_seq) {
    if (seq - session.next_recv_seq > ChannelSession::kReorderWindow) {
      ++session.rejects;
      MetricsRegistry::Global().Increment("channel.rejects");
      return RecordAdmit::kRejected;
    }
    // Reordered ahead of a gap: stash the sealed record until the gap fills.
    // Nothing is decrypted out of order — AEAD still runs at exactly the
    // expected sequence.
    ++session.reorders;
    MetricsRegistry::Global().Increment("channel.reorders");
    stash();
    // Every key is in (next_recv_seq, next_recv_seq + kReorderWindow], so the
    // buffer can never hold more than kReorderWindow entries.
    assert(session.reorder.size() <= ChannelSession::kReorderWindow);
    return RecordAdmit::kStashed;
  }
  return RecordAdmit::kInSequence;
}

}  // namespace

ChannelSession::RecordAdmit ChannelSession::AdmitRecord(uint64_t seq,
                                                        const SealedRecord& record) {
  return AdmitRecordImpl(*this, seq, [&] { reorder[seq] = record; });
}

ChannelSession::RecordAdmit ChannelSession::AdmitRecord(const RecordView& view) {
  return AdmitRecordImpl(*this, view.sequence, [&] {
    SealedRecord& slot = reorder[view.sequence];
    slot.sequence = view.sequence;
    slot.ciphertext.assign(view.ciphertext, view.ciphertext + view.ciphertext_len);
    slot.tag = view.tag;
  });
}

bool ChannelSession::TakeDrainable(SealedRecord* out) {
  const auto it = reorder.find(next_recv_seq);
  if (it == reorder.end()) {
    return false;
  }
  *out = it->second;
  reorder.erase(it);
  return true;
}

void ChannelSession::AdvanceRecv() {
  ++next_recv_seq;
  // Prune every stash entry the window has passed. A record can be stashed AND
  // later accepted via direct in-sequence arrival; without this, that stale
  // stash entry (seq < next_recv_seq) would never be erased (TakeDrainable only
  // looks at exactly next_recv_seq) and the buffer would leak.
  reorder.erase(reorder.begin(), reorder.lower_bound(next_recv_seq));
  assert(reorder.size() <= kReorderWindow);
}

bool ChannelSession::IsHelloReplay(const U256& client_public,
                                   const std::array<uint8_t, 32>& nonce) const {
  return established && client_public == hello_client_public && nonce == hello_nonce;
}

void ChannelSession::CountRetransmit() {
  ++retransmits;
  MetricsRegistry::Global().Increment("channel.retries");
}

Digest256 HandshakeTranscript(const U256& client_public, const U256& monitor_public,
                              const std::array<uint8_t, 32>& nonce) {
  Sha256 hasher;
  const Bytes c = client_public.ToBytesBe();
  const Bytes m = monitor_public.ToBytesBe();
  hasher.Update(c);
  hasher.Update(m);
  hasher.Update(nonce.data(), nonce.size());
  return hasher.Finish();
}

StatusOr<Bytes> PadOutput(const Bytes& plaintext, uint64_t pad_quantum) {
  if (pad_quantum <= 8) {
    // 0 would divide by zero below; 1..8 cannot even hold the length prefix.
    return InvalidArgumentError("pad quantum must be > 8");
  }
  if (pad_quantum > wire::kMaxWireBytes) {
    return InvalidArgumentError("pad quantum exceeds the wire limit");
  }
  Bytes out(8);
  StoreLe64(out.data(), plaintext.size());
  out.insert(out.end(), plaintext.begin(), plaintext.end());
  const uint64_t target = ((out.size() + pad_quantum - 1) / pad_quantum) * pad_quantum;
  out.resize(target, 0);
  return out;
}

StatusOr<Bytes> UnpadOutput(const Bytes& padded) {
  if (padded.size() < 8) {
    return InvalidArgumentError("short padded buffer");
  }
  const uint64_t len = LoadLe64(padded.data());
  // Subtraction form: `len + 8` could wrap for an attacker-chosen length near 2^64
  // and slip past the check.
  if (len > padded.size() - 8) {
    return InvalidArgumentError("bad pad length");
  }
  return Bytes(padded.begin() + 8, padded.begin() + 8 + len);
}

}  // namespace erebor
