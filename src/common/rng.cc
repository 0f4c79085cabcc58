#include "src/common/rng.h"

#include <cmath>

#include "src/common/bytes.h"

namespace erebor {

namespace {
inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

Rng::Rng(uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& s : s_) {
    s = sm.Next();
  }
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::NextBelow(uint64_t bound) {
  // Multiply-shift rejection-free bounded draw (Lemire). Bias is negligible for
  // simulation purposes.
  return static_cast<uint64_t>((static_cast<__uint128_t>(Next()) * bound) >> 64);
}

double Rng::NextDouble() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

uint64_t Rng::NextZipf(uint64_t n, double s) {
  // Inverse-CDF approximation for the Zipf distribution using the continuous
  // bounded-Pareto envelope; accurate enough for skewed access-pattern synthesis.
  if (n <= 1) {
    return 0;
  }
  const double u = NextDouble();
  if (s == 1.0) {
    const double h = std::log(static_cast<double>(n));
    return static_cast<uint64_t>(std::exp(u * h)) - 1;
  }
  const double exp = 1.0 - s;
  const double top = std::pow(static_cast<double>(n), exp);
  const double x = std::pow(u * (top - 1.0) + 1.0, 1.0 / exp);
  uint64_t rank = static_cast<uint64_t>(x) - 1;
  return rank >= n ? n - 1 : rank;
}

void Rng::Fill(uint8_t* data, size_t len) {
  // Runs a local copy of the state: the byte stores may alias s_, which would
  // otherwise force a reload and store of all four words per output word.
  Rng local = *this;
  size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    StoreLe64(data + i, local.Next());
  }
  if (i < len) {
    const uint64_t v = local.Next();
    for (int b = 0; i < len; ++i, ++b) {
      data[i] = static_cast<uint8_t>(v >> (8 * b));
    }
  }
  *this = local;
}

EdgeList GeneratePowerLawGraph(uint32_t num_nodes, uint32_t num_edges, uint64_t seed) {
  EdgeList g;
  g.num_nodes = num_nodes;
  g.edges.reserve(num_edges);
  Rng rng(seed);
  for (uint32_t i = 0; i < num_edges; ++i) {
    // Source uniform, destination Zipf-skewed: a few hub nodes receive most edges,
    // like real social graphs (Twitch-gamers in the paper).
    const uint32_t src = static_cast<uint32_t>(rng.NextBelow(num_nodes));
    const uint32_t dst = static_cast<uint32_t>(rng.NextZipf(num_nodes, 0.9));
    g.edges.emplace_back(src, dst);
  }
  return g;
}

}  // namespace erebor
