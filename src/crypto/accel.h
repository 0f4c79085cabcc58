// Runtime CPU-feature dispatch for the crypto hot paths (SHA-NI, AVX-512F). The
// channel record pipeline is the only consumer: everything else in the tree uses
// the portable scalar code unconditionally. Detection is done once with CPUID;
// a process-wide switch lets benches and cross-check tests force the scalar
// paths so accelerated and reference implementations can be compared in-process.
#ifndef EREBOR_SRC_CRYPTO_ACCEL_H_
#define EREBOR_SRC_CRYPTO_ACCEL_H_

namespace erebor {
namespace accel {

// CPU capability bits, detected once and cached. These report what the hardware
// (and OS, for vector state) can do, independent of the Enabled() switch.
bool HasShaNi();
bool HasAvx512();  // AVX-512F with OS-enabled opmask and ZMM state

// Master switch consulted by every dispatch site. Defaults to on. Returns the
// previous value so callers can save/restore around a measurement.
bool SetEnabled(bool on);
bool Enabled();

// RAII save/restore for tests and benches that flip the switch.
class ScopedEnable {
 public:
  explicit ScopedEnable(bool on) : previous_(SetEnabled(on)) {}
  ~ScopedEnable() { SetEnabled(previous_); }
  ScopedEnable(const ScopedEnable&) = delete;
  ScopedEnable& operator=(const ScopedEnable&) = delete;

 private:
  bool previous_;
};

}  // namespace accel
}  // namespace erebor

#endif  // EREBOR_SRC_CRYPTO_ACCEL_H_
