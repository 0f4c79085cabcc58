// Client<->monitor secure channel: wire format and session state (paper section 6.3).
//
// Handshake: ClientHello{client_pub, nonce, sandbox} -> ServerHello{monitor_pub, quote}
// where the quote's report_data binds the handshake transcript, so a verified quote
// proves the DH peer *is* the measured monitor inside the CVM. Data flows as AEAD
// records with strictly increasing sequence numbers; output records are padded to a
// fixed length to close the size side channel.
#ifndef EREBOR_SRC_MONITOR_CHANNEL_H_
#define EREBOR_SRC_MONITOR_CHANNEL_H_

#include <map>

#include "src/crypto/aead.h"
#include "src/crypto/group.h"
#include "src/tdx/report.h"

namespace erebor {

namespace wire {
// Upper bound on any single wire packet / channel payload. Lengths on the wire (and
// in proxy/sandbox ioctl arguments) are attacker-controlled; every consumer must
// bound them against this before sizing a buffer.
inline constexpr uint64_t kMaxWireBytes = 16ull << 20;  // 16 MiB

// Fixed layout of a data/result record on the wire:
//   type(1) | sandbox_id LE32(4) | sequence LE64(8) | ct_len LE32(4) | ct | tag(32)
inline constexpr size_t kRecordHeaderBytes = 1 + 4 + 8 + 4;
inline constexpr size_t kRecordTagBytes = 32;
}  // namespace wire

enum class PacketType : uint8_t {
  kClientHello = 1,
  kServerHello = 2,
  kDataRecord = 3,    // client -> sandbox input
  kResultRecord = 4,  // sandbox -> client output (padded)
  kFin = 5,
};

// A handshake or teardown packet. Data/result records never take this form:
// they exist only as wire bytes, built by SealRecordWire and read through
// ParseRecordWire.
struct Packet {
  PacketType type = PacketType::kFin;
  int32_t sandbox_id = -1;

  // kClientHello
  U256 client_public;
  std::array<uint8_t, 32> nonce{};

  // kServerHello
  U256 monitor_public;
  TdQuote quote;

  Bytes Serialize() const;
  // InvalidArgument on a record-typed wire, a truncated one, or trailing bytes.
  static StatusOr<Packet> Deserialize(const Bytes& wire);
};

// Computes the transcript hash binding both DH shares and the client nonce; the first
// 32 bytes of the quote's report_data must equal it.
Digest256 HandshakeTranscript(const U256& client_public, const U256& monitor_public,
                              const std::array<uint8_t, 32>& nonce);

// The record path. A data/result record is built straight into its wire buffer
// (SealRecordWire), read as a borrowed view of the received buffer
// (ParseRecordWire), and decrypted from that view into its destination.

// Borrowed, non-owning view of a data/result record inside a wire buffer. Valid
// only while the underlying buffer is alive and unmodified.
struct RecordView {
  PacketType type = PacketType::kDataRecord;
  int32_t sandbox_id = -1;
  uint64_t sequence = 0;
  const uint8_t* ciphertext = nullptr;
  size_t ciphertext_len = 0;
  Digest256 tag{};
  // The whole wire buffer the view borrows from.
  const Bytes* wire = nullptr;

  // The AAD the record's tag must cover: exactly the rewritable header fields.
  RecordAad Aad() const { return RecordAad{static_cast<uint8_t>(type), sandbox_id}; }
};

// Builds a complete wire packet, sealing `len` plaintext bytes directly into it.
Bytes SealRecordWire(const AeadKeys& keys, PacketType type, int32_t sandbox_id,
                     uint64_t sequence, const uint8_t* plaintext, size_t len);
inline Bytes SealRecordWire(const AeadKeys& keys, PacketType type, int32_t sandbox_id,
                            uint64_t sequence, const Bytes& plaintext) {
  return SealRecordWire(keys, type, sandbox_id, sequence, plaintext.data(),
                        plaintext.size());
}

// Parses a kDataRecord/kResultRecord wire packet without copying the ciphertext.
// Bumps the same parse metrics as Packet::Deserialize. InvalidArgument on anything
// that is not a well-formed record packet, trailing bytes included.
StatusOr<RecordView> ParseRecordWire(const Bytes& wire);

// Authenticate-then-decrypt a viewed record into a fresh buffer, enforcing the
// expected sequence (kPermissionDenied on mismatch or bad tag).
StatusOr<Bytes> OpenRecordWire(const AeadKeys& keys, const RecordView& view,
                               uint64_t expected_sequence);

// A record that failed authentication. Deliberately NOT a ChannelSession method:
// an unauthenticated record proves nothing about who sent it (a forged header can
// name any sandbox), so the reject is accounted globally and never charged to the
// session the header points at — otherwise re-addressed garbage could strike out
// an innocent session.
void NoteChannelAuthReject();

// The receive side of one channel direction, applied by both ends: the monitor's
// ChannelSession to inbound data records, RemoteClient to inbound result records.
// The untrusted host carries every packet, so it may drop, duplicate or reorder:
//  - a record below next() is a duplicate of an accepted one: it is never
//    re-decrypted or re-delivered, so replay cannot double-install data;
//  - a record up to kReorderWindow ahead of next() is stashed as its received
//    wire bytes and drained once the gap fills;
//  - anything further ahead is rejected.
// The window only classifies and stores; it decrypts nothing and counts nothing.
class ReceiveWindow {
 public:
  static constexpr uint64_t kReorderWindow = 8;

  // Where an inbound record lands relative to the window.
  enum class RecordAdmit : uint8_t {
    kInSequence,  // exactly next(): decrypt now
    kDuplicate,   // below the window: absorbed, never re-decrypted
    kStashed,     // ahead within kReorderWindow: its wire is parked until the gap fills
    kRejected,    // beyond the reorder window
  };

  // Classifies one parsed record; on kStashed a copy of view.wire is parked.
  RecordAdmit Admit(const RecordView& view);

  // True when the record at next() is stashed (the drain after an in-sequence
  // accept).
  bool HasDrainable() const { return stash_.count(next_) != 0; }

  // Moves the stashed wire at next() into *wire and views it in *view (which
  // borrows *wire). False when nothing is stashed there. The wire was parsed and
  // counted when it arrived, so it is re-read without bumping the parse metrics.
  bool TakeDrainable(Bytes* wire, RecordView* view);

  // Advances past an accepted record and prunes every stashed entry the window
  // has passed. Without the prune, a record that was stashed and then also
  // arrived in sequence would leak its stale stash entry forever.
  void Advance();

  uint64_t next() const { return next_; }
  size_t stashed() const { return stash_.size(); }

 private:
  uint64_t next_ = 0;
  // Wire sequence -> received wire, at most kReorderWindow entries.
  std::map<uint64_t, Bytes> stash_;
};

// Channel session state (one per connected client/sandbox).
//
// Robustness against a lossy/adversarial transport is built into the session, not
// bolted onto callers:
//  - The receive window (ReceiveWindow above); a duplicate may trigger a
//    retransmit of the cached last result so a dropped response heals.
//  - The handshake replay cache: an identical retransmitted ClientHello gets the
//    identical cached ServerHello back instead of re-keying a live session.
struct ChannelSession {
  // Classifies one inbound record through `recv` and accounts for it: the
  // duplicate/reorder/reject counters and their global metrics are bumped here.
  // The caller only decrypts on kInSequence.
  ReceiveWindow::RecordAdmit AdmitRecord(const RecordView& view);

  // True when a ClientHello is a byte-identical retransmit of the hello that
  // established this session (answered from the cached ServerHello).
  bool IsHelloReplay(const U256& client_public,
                     const std::array<uint8_t, 32>& nonce) const;

  // Renegotiation policy: a fresh hello may re-key this session only while no
  // client data has been installed, or after the client said kFin. Otherwise a
  // replayed stale hello (valid format, old nonce) could tear down a live
  // session's keys, reorder state and cached results.
  bool RenegotiationAllowed() const {
    return !established || !data_installed || fin_seen;
  }

  // A cached response re-sent to heal client-observed loss ("channel.retries").
  void CountRetransmit();

  bool established = false;
  // Set once the first data record decrypts and installs; gates renegotiation.
  bool data_installed = false;
  // Set when the client's kFin arrives; re-opens renegotiation for this slot.
  bool fin_seen = false;
  SessionKeys keys;
  ReceiveWindow recv;
  uint64_t next_send_seq = 0;

  // Handshake replay cache.
  U256 hello_client_public;
  std::array<uint8_t, 32> hello_nonce{};
  Bytes cached_server_hello;

  // Last result wire packet, retransmitted when the client signals loss by
  // re-sending an already-accepted data record.
  Bytes last_result_wire;

  // Degradation accounting (also mirrored into the global metrics registry).
  uint64_t duplicates = 0;
  uint64_t reorders = 0;
  uint64_t retransmits = 0;
  uint64_t rejects = 0;
};

// Pads `plaintext` to the next multiple of pad_quantum (length prefix included so the
// receiver can strip it). pad_quantum must be > 8 and at most wire::kMaxWireBytes;
// anything else is an InvalidArgumentError (a zero quantum would divide by zero).
StatusOr<Bytes> PadOutput(const Bytes& plaintext, uint64_t pad_quantum);
StatusOr<Bytes> UnpadOutput(const Bytes& padded);

}  // namespace erebor

#endif  // EREBOR_SRC_MONITOR_CHANNEL_H_
