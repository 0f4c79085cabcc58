#include "src/crypto/accel.h"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#define EREBOR_ACCEL_X86 1
#endif

namespace erebor {
namespace accel {

namespace {

struct Features {
  bool sha_ni = false;
  bool avx512 = false;
};

Features Detect() {
  Features f;
#ifdef EREBOR_ACCEL_X86
  unsigned int eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid_max(0, nullptr) < 7) {
    return f;
  }
  __cpuid_count(7, 0, eax, ebx, ecx, edx);
  const bool cpu_sha = (ebx & (1u << 29)) != 0;
  const bool cpu_avx512f = (ebx & (1u << 16)) != 0;

  // AVX-512 additionally needs the OS to save the XMM/YMM state and the opmask
  // and ZMM state (OSXSAVE + XCR0 bits 1, 2, 5, 6 and 7).
  bool os_avx512 = false;
  __cpuid_count(1, 0, eax, ebx, ecx, edx);
  if ((ecx & (1u << 27)) != 0) {  // OSXSAVE
    // xgetbv(0): _xgetbv() would need -mxsave on this TU, so issue it directly.
    unsigned int xcr0_lo = 0, xcr0_hi = 0;
    __asm__ volatile(".byte 0x0f, 0x01, 0xd0"  // xgetbv
                     : "=a"(xcr0_lo), "=d"(xcr0_hi)
                     : "c"(0));
    os_avx512 = (xcr0_lo & 0xE6) == 0xE6;
  }
  const bool cpu_sse41 = (ecx & (1u << 19)) != 0;

  f.sha_ni = cpu_sha && cpu_sse41;
  f.avx512 = cpu_avx512f && os_avx512;
#endif
  return f;
}

const Features& Cached() {
  static const Features features = Detect();
  return features;
}

bool g_enabled = true;

}  // namespace

bool HasShaNi() { return Cached().sha_ni; }
bool HasAvx512() { return Cached().avx512; }

bool SetEnabled(bool on) {
  const bool previous = g_enabled;
  g_enabled = on;
  return previous;
}

bool Enabled() { return g_enabled; }

}  // namespace accel
}  // namespace erebor
