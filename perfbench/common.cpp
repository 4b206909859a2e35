#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "obs/stats.hpp"
#include "place/placer.hpp"
#include "sta/corner.hpp"

namespace perfbench {

using namespace rtp;

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

double seconds_since(Clock::time_point from) {
  return std::chrono::duration<double>(Clock::now() - from).count();
}

double quantile(std::vector<double> sample, double q) {
  if (sample.empty()) return 0.0;
  const std::size_t n = sample.size();
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(sample.begin(), sample.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   sample.end());
  return sample[rank - 1];
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + tag + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

bool same_bits(const nn::Tensor& a, const nn::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

const nl::CellLibrary& cell_library() {
  static const nl::CellLibrary library = nl::CellLibrary::standard();
  return library;
}

std::vector<gen::BenchmarkSpec> seeded_specs(std::uint64_t seed) {
  std::vector<gen::BenchmarkSpec> specs = gen::paper_benchmarks();
  for (gen::BenchmarkSpec& spec : specs) spec.seed = mix(seed, spec.seed);
  return specs;
}

void replace(flow::DesignData& data, const gen::BenchmarkSpec& spec,
             std::uint64_t placer_seed) {
  place::PlacerConfig config;
  config.utilization = spec.utilization;
  config.num_macros = spec.num_macros;
  config.seed = placer_seed;
  data.input_placement = place::Placer(config).place(data.input_netlist);
}

flow::DesignData input_design(const gen::BenchmarkSpec& spec, std::uint64_t placer_seed) {
  flow::DesignData data;
  data.name = spec.name;
  data.is_train = spec.is_train;
  data.input_netlist = gen::CircuitGenerator(cell_library()).generate(spec, kScale).netlist;
  replace(data, spec, placer_seed);
  data.endpoints = data.input_netlist.endpoints();
  data.label_arrival.assign(data.endpoints.size(), 0.0);
  data.corners = sta::registry_corners();
  return data;
}

model::ModelConfig model_config(std::uint64_t seed) {
  model::ModelConfig config = model::ModelConfig::ci();
  config.seed = mix(seed, 0x6d6f64656cULL);
  return config;
}

std::shared_ptr<const model::WeightSnapshot> untrained_snapshot(std::uint64_t seed) {
  model::FusionModel fresh(model_config(seed));
  fresh.set_label_stats(1000.0f, 300.0f);
  return model::WeightSnapshot::from_model(fresh);
}

// ---- traced window ----

void TracedWindow::start() {
  obs::set_trace_enabled(enabled_);
  if (!enabled_) return;
  obs::clear_trace();
  obs::reset_counters();
  obs::reset_histograms();
}

void TracedWindow::stop() {
  if (!enabled_) return;
  counters_ = obs::counters_snapshot(true);
  gauges_ = obs::gauges_snapshot(true);
  hists_ = obs::histograms_snapshot(true);
  // Streamed GNN calls run their partitions as nested gnn.infer spans on the
  // same thread; count those once, through the enclosing streamed span.
  std::map<int, std::vector<std::pair<std::uint64_t, std::uint64_t>>> streamed;
  const std::vector<obs::TraceEvent> events = obs::trace_events();
  for (const obs::TraceEvent& e : events) {
    span_ms_[e.name].push_back(static_cast<double>(e.end_ns - e.start_ns) / 1e6);
    if (e.name == "gnn.infer_streamed") streamed[e.tid].emplace_back(e.start_ns, e.end_ns);
  }
  gnn_ms_ = span_total_ms("gnn.infer_streamed");
  for (const obs::TraceEvent& e : events) {
    if (e.name != "gnn.infer") continue;
    bool nested = false;
    for (const auto& [s, t] : streamed[e.tid]) nested |= s <= e.start_ns && e.end_ns <= t;
    if (!nested) gnn_ms_ += static_cast<double>(e.end_ns - e.start_ns) / 1e6;
  }
}

std::uint64_t TracedWindow::counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

std::uint64_t TracedWindow::gauge(const std::string& name) const {
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? 0 : it->second;
}

double TracedWindow::hist_sum(const std::string& name) const {
  for (const obs::HistogramSnapshot& h : hists_) {
    if (h.name == name) return static_cast<double>(h.sum);
  }
  return 0.0;
}

double TracedWindow::hist_quantile(const std::string& name, double q) const {
  for (const obs::HistogramSnapshot& h : hists_) {
    if (h.name == name) return static_cast<double>(h.quantile(q));
  }
  return 0.0;
}

double TracedWindow::span_total_ms(const std::string& name) const {
  const auto it = span_ms_.find(name);
  double total = 0.0;
  if (it != span_ms_.end()) {
    for (double ms : it->second) total += ms;
  }
  return total;
}

std::size_t TracedWindow::span_count(const std::string& name) const {
  const auto it = span_ms_.find(name);
  return it == span_ms_.end() ? 0 : it->second.size();
}

double TracedWindow::span_quantile_ms(const std::string& name, double q) const {
  const auto it = span_ms_.find(name);
  return it == span_ms_.end() ? 0.0 : quantile(it->second, q);
}

double TracedWindow::gnn_infer_ms() const { return gnn_ms_; }

// ---- result assembly ----

double per_group_mean(const std::vector<int>& group, const std::vector<double>& ms, double q) {
  std::map<int, std::vector<double>> by_group;
  for (std::size_t i = 0; i < ms.size(); ++i) by_group[group[i]].push_back(ms[i]);
  if (by_group.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& [g, sample] : by_group) sum += quantile(sample, q);
  return sum / static_cast<double>(by_group.size());
}

double peak_rss_mb() { return static_cast<double>(obs::vm_hwm_bytes()) / (1024.0 * 1024.0); }

void add_common_e2e(Result& result, double setup_s, double p50_ms, double work_per_s,
                    double rss_mb) {
  result.e2e.push_back({"setup_s", setup_s, "s"});
  result.e2e.push_back({"latency_p50_ms", p50_ms, "ms"});
  result.e2e.push_back({"work_per_s", work_per_s, "1/s"});
  result.named.push_back({"setup_s", setup_s, "s"});
  result.named.push_back({"peak_rss_mb", rss_mb, "MiB"});
}

namespace {

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

void fold_layers(Result& result, const TracedWindow& w, double ops,
                 const char* compute_span) {
  std::map<std::string, double>& l = result.layers;
  const double forwards = static_cast<double>(w.counter("model.infer.designs"));
  const double gemm_ms = (w.hist_sum("nn.gemm") + w.hist_sum("nn.gemm_fused")) / 1e6;
  const double parallel = static_cast<double>(w.counter("pool.jobs_parallel"));
  const double contended = static_cast<double>(w.counter("pool.jobs_contended"));
  const auto per_op = [&](double v) { return ratio(v, ops); };

  l["model.forwards_per_request"] =
      ratio(forwards, static_cast<double>(w.counter("model.infer.requests")));
  l["model.gnn_infer_ms"] = ratio(w.gnn_infer_ms(), forwards);
  l["model.cnn_infer_ms"] =
      ratio(w.span_total_ms("cnn.infer"), static_cast<double>(w.span_count("cnn.infer")));
  l["model.predict_batch_ms"] =
      ratio(w.span_total_ms("model.predict_batch"),
            static_cast<double>(w.span_count("model.predict_batch")));
  l["part.partitions_per_forward"] =
      ratio(static_cast<double>(w.counter("part.stream.partitions")), forwards);
  l["ws.pooled_bytes_peak_mb"] =
      static_cast<double>(w.gauge("ws.pooled_bytes_peak")) / (1024.0 * 1024.0);
  l["nn.gemm_ms"] = per_op(gemm_ms);
  l["nn.gemm_share"] = ratio(gemm_ms, w.span_total_ms(compute_span));
  l["nn.fusion.fallbacks"] = per_op(static_cast<double>(w.counter("nn.fusion.fallbacks")));
  l["pool.queue_wait_us_p99"] = w.hist_quantile("pool.queue_wait", 0.99) / 1e3;
  l["pool.contended_frac"] = ratio(contended, parallel + contended);
  l["layout.maps_ms"] =
      per_op(w.span_total_ms("layout.density") + w.span_total_ms("layout.rudy"));
  const double steps = static_cast<double>(w.span_count("model.train_step"));
  l["train.step_ms_p50"] = w.span_quantile_ms("model.train_step", 0.5);
  l["train.gnn_forward_ms"] = ratio(w.span_total_ms("gnn.forward"), steps);
  l["train.gnn_backward_ms"] = ratio(w.span_total_ms("gnn.backward"), steps);
  l["train.cnn_backward_ms"] = ratio(w.span_total_ms("cnn.backward"), steps);
}

}  // namespace perfbench
