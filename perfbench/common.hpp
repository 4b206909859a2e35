#pragma once
// Shared plumbing of the end-to-end benchmark program (BENCHMARK.json at the
// repository root names the workloads and metrics): arguments, clocks, sample
// statistics, the seeded fixture designs, the traced window that folds obs
// aggregates into per-layer metrics, and the result record main() prints.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "flow/dataset_flow.hpp"
#include "gen/benchmarks.hpp"
#include "model/inference.hpp"
#include "obs/obs.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Fold the obs aggregates of the timed window into per-layer metrics.
  bool trace = false;
};

double ms_between(Clock::time_point from, Clock::time_point to);
double seconds_since(Clock::time_point from);

/// Nearest-rank quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> sample, double q);

/// Every random stream of a run derives from (workload seed, stream tag), so
/// one seed fixes circuits, placements, popularity, arrivals and request mix.
std::uint64_t mix(std::uint64_t seed, std::uint64_t tag);

/// Bitwise tensor equality (shape and every float's bits).
bool same_bits(const rtp::nn::Tensor& a, const rtp::nn::Tensor& b);

/// Design size every workload uses: 1% of TABLE I.
inline constexpr double kScale = 0.01;

/// The standard cell library, alive for the whole process: netlists keep a
/// pointer to it, and timing graphs keep one to their netlist.
const rtp::nl::CellLibrary& cell_library();

/// The paper suite (TABLE I split) with each spec seed re-derived from the
/// workload seed.
std::vector<rtp::gen::BenchmarkSpec> seeded_specs(std::uint64_t seed);

/// A design as a prediction client holds it: the generated netlist placed
/// under `placer_seed`, every registry corner, no sign-off labels (zeros).
rtp::flow::DesignData input_design(const rtp::gen::BenchmarkSpec& spec,
                                   std::uint64_t placer_seed);

/// Re-places `data`'s netlist in place under `placer_seed`.
void replace(rtp::flow::DesignData& data, const rtp::gen::BenchmarkSpec& spec,
             std::uint64_t placer_seed);

/// The model every workload serves or trains (repository CPU config).
rtp::model::ModelConfig model_config(std::uint64_t seed);

/// A freshly initialized model frozen for serving; inference cost does not
/// depend on the weights, so serving workloads skip training.
std::shared_ptr<const rtp::model::WeightSnapshot> untrained_snapshot(std::uint64_t seed);

/// Host-speed probe. The benchmark shares its host, whose speed drifts by a
/// third within minutes as neighbours come and go: on a 4-vCPU Intel Xeon VM
/// one fixed inference of sha3 (1% scale, one thread) read a median of 22 to
/// 37 ms over ten back-to-back 20 s runs. So every run interleaves a fixed
/// kernel with its workload and reports its timings at a reference speed,
/// the one at which the kernel takes kReferenceMs: wall time times
/// kReferenceMs / the kernel's median time in the run. Over ten 25 s
/// train_epochs runs on that VM the median epoch read 96 to 128 ms, its
/// quartiles 20% apart, and 4% apart at the reference speed. The kernel
/// depends on nothing in src/ — a float matrix product and a scattered walk
/// over 16 MiB, the two kinds of work the program does — so a change to the
/// program moves the scaled timings as it moves the raw ones.
class SpeedProbe {
 public:
  /// The kernel's median time, in ms, at the reference speed (about its
  /// median on the host above).
  static constexpr double kReferenceMs = 7.0;

  /// Runs the kernel once and records its wall time.
  void sample();
  /// Samples when at least `every_s` seconds passed since the last sample.
  void sample_every(double every_s);
  /// Number of samples so far; a mark for scale_since().
  std::size_t mark() const { return ms_.size(); }
  /// Multiplier from wall time to reference time over the samples since
  /// `mark`: kReferenceMs / their median. Throughputs divide by it.
  double scale_since(std::size_t mark) const;

 private:
  std::vector<double> ms_;
  Clock::time_point last_{};
};

/// Runs `build` `reps` times and returns the median seconds of one call at
/// the reference speed, the probe sampled around each call. Set-up is
/// repeated so setup_s is a median, not one noisy sample.
template <class Build>
double timed_setup(int reps, SpeedProbe& probe, Build&& build) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    const std::size_t mark = probe.mark();
    for (int k = 0; k < 3; ++k) probe.sample();
    const Clock::time_point t0 = Clock::now();
    build();
    const double wall_s = seconds_since(t0);
    for (int k = 0; k < 3; ++k) probe.sample();
    times.push_back(wall_s * probe.scale_since(mark));
  }
  return quantile(times, 0.5);
}

/// The obs state of the timed phase. Enabled, start() turns span capture on,
/// zeroes counters and histograms and drops recorded spans, so setup work
/// and reference predictions are excluded; stop() snapshots what the window
/// recorded. Disabled, start() turns span capture off.
class TracedWindow {
 public:
  explicit TracedWindow(bool enabled) : enabled_(enabled) {}
  void start();
  void stop();
  bool enabled() const { return enabled_; }

  std::uint64_t counter(const std::string& name) const;
  std::uint64_t gauge(const std::string& name) const;
  /// Histogram sum / quantile in the recorded unit (ns for timing kinds).
  double hist_sum(const std::string& name) const;
  double hist_quantile(const std::string& name, double q) const;
  /// Span aggregates over the window, in ms.
  double span_total_ms(const std::string& name) const;
  std::size_t span_count(const std::string& name) const;
  double span_quantile_ms(const std::string& name, double q) const;
  /// Outermost GNN inference time: gnn.infer_streamed plus every gnn.infer
  /// that is not a partition of a streamed call (those nest inside it).
  double gnn_infer_ms() const;

 private:
  bool enabled_;
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, std::uint64_t> gauges_;
  std::vector<rtp::obs::HistogramSnapshot> hists_;
  std::map<std::string, std::vector<double>> span_ms_;
  double gnn_ms_ = 0.0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::uint64_t attempted = 0;
  /// Refused + errored + output-check failures among `attempted`.
  std::uint64_t failed = 0;
  /// False when an output check failed or the measurement itself is invalid.
  bool correct = true;
  /// Gated end-to-end metrics; every workload reports the same names.
  std::vector<Metric> e2e;
  /// The same measurements under the per-workload names the workload table
  /// uses (latency_p90_ms, max_rate_rps, holdout_r2, failed_frac, ...).
  std::vector<Metric> named;
  /// Per-layer values from the benchmark's own timers, by metric name; the
  /// traced-window ones are added by fold_layers().
  std::map<std::string, double> layers;
  std::vector<std::string> notes;

  void fail(const std::string& why) {
    correct = false;
    notes.push_back("CHECK FAILED: " + why);
  }
};

/// The tail quantile the workloads print (latency_p90_ms): the highest
/// percentile with ten samples beyond it in every workload's window.
inline constexpr double kTailQ = 0.90;

/// Mean over the groups (designs) of each group's q-quantile of `ms`;
/// group[i] names the group of ms[i]. A quantile of the pooled sample of
/// designs that differ 40x in cost falls between their clusters and jumps
/// with the mix; one quantile per design does not. The mean is the time of
/// one request per design, so the designs weigh by their cost. 0 for an
/// empty sample.
double per_group_mean(const std::vector<int>& group, const std::vector<double>& ms, double q);

/// VmHWM, the process's peak resident set so far, in MiB.
double peak_rss_mb();

/// Adds the e2e metrics every workload reports: the p50 latency of the
/// workload's unit operation (request, what-if, training epoch) and the work
/// it completes per second, both at the reference speed (see SpeedProbe).
/// The peak resident set of the timed phase is printed (peak_rss_mb) but not
/// gated: on serve_zipf every new batch shape grows the workspace free list,
/// so it spreads by a fifth between seeds.
void add_common_e2e(Result& result, double setup_s, double p50_ms, double work_per_s,
                    double rss_mb);

/// Runs `timed(traced)`, the timed phase plus its checks: once untraced, or
/// with --trace once untraced and once traced on the same fixture. The
/// traced result carries obs.trace_overhead, the traced phase's cost over
/// the untraced one: the latency_p50_ms ratio when `latency_cost`, else the
/// inverse work_per_s ratio.
template <class Timed>
Result measure(const Args& args, bool latency_cost, Timed&& timed) {
  Result base = timed(false);
  if (!args.trace) return base;
  Result traced = timed(true);
  const auto e2e = [](const Result& r, const char* name) {
    for (const Metric& m : r.e2e) {
      if (m.name == name) return m.value;
    }
    return 0.0;
  };
  const char* key = latency_cost ? "latency_p50_ms" : "work_per_s";
  const double ratio = e2e(traced, key) / e2e(base, key);
  traced.layers["obs.trace_overhead"] = latency_cost ? ratio : 1.0 / ratio;
  traced.attempted += base.attempted;
  traced.failed += base.failed;
  traced.correct = traced.correct && base.correct;
  traced.notes.insert(traced.notes.begin(), base.notes.begin(), base.notes.end());
  return traced;
}

/// Adds the traced-window per-layer metrics of the model, nn, part, pool
/// and layout layers to result.layers. `ops` normalizes per-op metrics;
/// `compute_span` is the span whose total is the workload's compute time.
void fold_layers(Result& result, const TracedWindow& window, double ops,
                 const char* compute_span);

Result run_serve_zipf(const Args& args);
Result run_placement_whatif(const Args& args);
Result run_train_epochs(const Args& args);

}  // namespace perfbench
