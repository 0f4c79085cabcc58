// The remote client: owns sensitive data, verifies the CVM quote, and exchanges data
// with the Erebor monitor over the authenticated encrypted channel (paper section 6.3).
// Runs entirely "outside" the simulated machine — it only ever sees wire bytes.
#ifndef EREBOR_SRC_CLIENT_CLIENT_H_
#define EREBOR_SRC_CLIENT_CLIENT_H_

#include <map>

#include "src/common/backoff.h"
#include "src/monitor/channel.h"

namespace erebor {

// What a client must know a priori: the platform vendor's attestation public key and
// the measurement of the open-source firmware + monitor it expects to talk to.
struct ClientTrustAnchors {
  U256 platform_attestation_key;
  Digest256 expected_mrtd{};
};

// Computes the expected MRTD for given firmware + monitor binaries (the client builds
// these reproducibly from the open-source releases).
Digest256 ComputeExpectedMrtd(const Bytes& firmware_image, const Bytes& monitor_image);

class RemoteClient {
 public:
  RemoteClient(ClientTrustAnchors anchors, uint64_t seed);

  // Handshake.
  Bytes MakeHello(int sandbox_id);
  // Verifies the quote (signature, measurement, transcript binding) and derives the
  // session keys. kPermissionDenied on any verification failure.
  Status ProcessServerHello(const Bytes& wire);
  bool established() const { return established_; }

  // Data exchange.
  Bytes SealData(const Bytes& plaintext);          // -> kDataRecord wire
  // Opens the next result. The transport (the untrusted host) may duplicate or
  // reorder records, so the client keeps its own window:
  //  - a record below recv_seq is a duplicate -> AlreadyExistsError (safe to ignore);
  //  - a record ahead of recv_seq within kReorderWindow is stashed ->
  //    UnavailableError (drain it with PopStashedResult once the gap fills);
  //  - anything further ahead -> OutOfRangeError.
  StatusOr<Bytes> OpenResult(const Bytes& wire);   // <- kResultRecord wire (unpads)
  // Opens the stashed record at recv_seq, if any (NotFoundError otherwise). Call
  // repeatedly after an in-order OpenResult to drain a healed reorder gap.
  StatusOr<Bytes> PopStashedResult();
  bool HasStashedResult() const { return stashed_.count(recv_seq_) != 0; }
  Bytes MakeFin();

  // Loss recovery: byte-identical retransmissions of the last hello / data record.
  // The monitor's handshake replay cache answers a resent hello with the identical
  // cached ServerHello; a resent data record is absorbed as a duplicate and triggers
  // a retransmit of any lost result. Both bump the "channel.retries" metric.
  //
  // Retransmit pacing is centralized here instead of in every caller's loop: both
  // resend paths draw on one jittered exponential retry budget (src/common/backoff.h)
  // seeded per-client, so a fleet of clients that time out together does not
  // retransmit in lockstep. Each Resend* accounts one attempt and refreshes
  // retry_wait() — the pause, in scheduler slices, the caller should pump before
  // expecting the retransmission to have been answered. Once the budget is
  // exhausted, retry_budget_exhausted() turns true and the caller must fail the
  // session rather than keep flooding a peer that will never answer.
  Bytes ResendHello();
  Bytes ResendData();
  uint64_t retry_wait() const { return retry_wait_; }
  bool retry_budget_exhausted() const { return backoff_.exhausted(); }
  void ResetRetryBudget() { backoff_.Reset(); }
  uint64_t retries() const { return retries_; }

  int sandbox_id() const { return sandbox_id_; }

 private:
  void AccountResend();

  ClientTrustAnchors anchors_;
  Rng rng_;
  int sandbox_id_ = -1;
  KeyPair ephemeral_;
  std::array<uint8_t, 32> nonce_{};
  SessionKeys keys_;
  uint64_t send_seq_ = 0;
  uint64_t recv_seq_ = 0;
  bool established_ = false;

  Bytes last_hello_wire_;
  Bytes last_data_wire_;
  uint64_t retries_ = 0;
  JitteredBackoff backoff_;
  uint64_t retry_wait_ = 0;
  std::map<uint64_t, SealedRecord> stashed_;  // out-of-order results awaiting the gap
};

}  // namespace erebor

#endif  // EREBOR_SRC_CLIENT_CLIENT_H_
