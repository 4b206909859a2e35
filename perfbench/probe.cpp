// The host-speed probe's kernel (see SpeedProbe in common.hpp). It has a
// file of its own, first on the link line and built with aligned loops, so
// its code sits at the same place, aligned the same way, whatever else in
// the program changes.

#include <cstdint>
#include <vector>

#include "common.hpp"

namespace perfbench {

namespace {

constexpr int kProbeDim = 128;
/// Row stride of the probe's matrices, and a gap between them: padding off
/// 4 KiB multiples, so stores to one matrix never alias loads of another in
/// the low address bits — where that happened, the product's time hung on
/// the heap layout of each process.
constexpr int kProbeStride = kProbeDim + 8;
constexpr std::size_t kProbeMatrix = kProbeDim * kProbeStride + 16;
constexpr std::size_t kProbeWalk = std::size_t{1} << 22;  // 16 MiB of floats
/// Matrix products a sample: about three fifths of its time, the rest the
/// walk. Timed against a 1% sha3 inference and a training epoch on the same
/// thread while the host's speed swung by up to two fifths, the ratio of
/// either to this mix stayed within 6-12% over five-second stretches; the
/// walk alone let inference drift by 33%.
constexpr int kProbeProducts = 8;
/// Floats per cache line: both buffers start on a line boundary, so the
/// kernel's loads split lines the same way in every process.
constexpr std::size_t kLine = 16;

struct ProbeData {
  std::vector<float> matrix_storage = std::vector<float>(3 * kProbeMatrix + kLine, 1.0f);
  std::vector<float> walk_storage = std::vector<float>(kProbeWalk + kLine, 1.0f);
  float* matrices = line_aligned(matrix_storage);
  const float* walk = line_aligned(walk_storage);

  static float* line_aligned(std::vector<float>& v) {
    const auto addr = reinterpret_cast<std::uintptr_t>(v.data());
    const std::uintptr_t pad = (64 - addr % 64) % 64;
    return v.data() + pad / sizeof(float);
  }
};

}  // namespace

void SpeedProbe::sample() {
  static ProbeData d;
  const Clock::time_point t0 = Clock::now();
  const float* a = d.matrices;
  const float* b = a + kProbeMatrix;
  float* c = d.matrices + 2 * kProbeMatrix;
  for (int rep = 0; rep < kProbeProducts; ++rep) {
    for (int i = 0; i < kProbeDim; ++i) {
      for (int k = 0; k < kProbeDim; ++k) {
        const float aik = a[i * kProbeStride + k] * 1e-3f;
        for (int j = 0; j < kProbeDim; ++j) c[i * kProbeStride + j] += aik * b[k * kProbeStride + j];
      }
    }
  }
  // One float from every cache line of the table, in a scattered order.
  float sum = 0.0f;
  for (std::size_t i = 0; i < kProbeWalk; i += kLine) sum += d.walk[(i * 7919) % kProbeWalk];
  c[0] += sum * 1e-30f;
  last_ = Clock::now();
  ms_.push_back(ms_between(t0, last_));
}

void SpeedProbe::sample_every(double every_s) {
  if (ms_.empty() || seconds_since(last_) >= every_s) sample();
}

double SpeedProbe::scale_since(std::size_t mark) const {
  const std::vector<double> window(ms_.begin() + static_cast<std::ptrdiff_t>(mark), ms_.end());
  return window.empty() ? 1.0 : kReferenceMs / quantile(window, 0.5);
}

}  // namespace perfbench
