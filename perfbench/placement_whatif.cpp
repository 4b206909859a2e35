// placement_whatif: closed-loop placement what-ifs, the paper's motivating
// use. Each client loops: re-place one of the five test designs with
// place::Placer under a seed never used before, run model::prepare_design,
// submit the prepared design to a serve::PredictionService and wait. No
// design is seen twice, so batch dedup and cross-request reuse do nothing:
// placement, layout maps, features, masks and cold inference do the work.
// Each client walks the designs in seeded shuffled rounds of five, so every
// run covers them equally. Latency runs from place start to the prediction.
// A seeded sample of a fixed number of what-ifs is redone after the window —
// re-placed from its placer seed, prepared and predicted on the engine
// directly — and compared bit for bit with the served prediction.
//
// Gated, at the reference speed (see SpeedProbe): latency_p50_ms, per design
// the median what-if latency, then the mean over the designs, and
// work_per_s, what-ifs completed per second of client time.

#include <thread>

#include "common.hpp"
#include "core/rng.hpp"
#include "serve/serve.hpp"

namespace perfbench {

using namespace rtp;

namespace {

/// One client: nn::Workspace keeps one process-wide LIFO scope stack, so two
/// threads streaming partitions at once (two clients' prepare_design, or a
/// client and the serve worker) abort on its scope-order check.
constexpr int kClients = 1;
/// What-ifs redone after the window. A fixed count keeps the kept
/// predictions, and the time spent checking, independent of how many
/// what-ifs the window completed.
constexpr std::size_t kChecks = 16;
/// Host-speed probe period: about 60 samples a 25 s window, 2% of its time.
constexpr double kProbeEveryS = 0.4;

struct Sample {
  int design = 0;
  double latency_ms = 0.0;
  double place_ms = 0.0;
  double prepare_ms = 0.0;
  double queue_ms = 0.0;
  double batch_wait_ms = 0.0;
  double compute_ms = 0.0;
};

/// A served what-if kept for the output check.
struct Check {
  int design = 0;
  std::uint64_t placer_seed = 0;
  nn::Tensor served;
};

struct ClientLog {
  std::vector<Sample> samples;
  std::uint64_t refused = 0;
  std::uint64_t errored = 0;
  /// A uniform sample of kChecks served what-ifs (reservoir sampling).
  std::vector<Check> checks;
  Clock::time_point last_done{};
  /// Sampled between what-ifs on the client's thread.
  SpeedProbe probe;
};

struct Fixture {
  std::vector<gen::BenchmarkSpec> specs;  ///< the five test designs
  /// Per client, one mutable copy of every test design to re-place; the
  /// prepared designs' timing graphs point into these.
  std::vector<std::vector<flow::DesignData>> designs;
  std::shared_ptr<const model::WeightSnapshot> snapshot;
};

Fixture make_fixture(std::uint64_t seed) {
  Fixture f;
  for (const gen::BenchmarkSpec& spec : seeded_specs(seed)) {
    if (!spec.is_train) f.specs.push_back(spec);
  }
  f.snapshot = untrained_snapshot(seed);
  const model::InferenceEngine engine(f.snapshot);
  const model::ModelConfig config = model_config(seed);
  std::vector<flow::DesignData> base;
  for (const gen::BenchmarkSpec& spec : f.specs) {
    base.push_back(input_design(spec, spec.seed));
    // Warm-up: the current placement's prediction, which also fills the
    // workspace pools before timing.
    engine.predict(model::prepare_design(base.back(), config));
  }
  f.designs.assign(kClients, base);
  return f;
}

void run_client(int client, int pass, const Args& args, Fixture& f,
                serve::PredictionService& service, Clock::time_point deadline,
                ClientLog& log) {
  Rng rng(mix(args.seed, 0x77686174ULL + static_cast<std::uint64_t>(client)));
  const model::ModelConfig config = model_config(args.seed);
  const std::uint64_t seed_base = mix(args.seed, 0x706c616365ULL + pass);
  std::vector<int> order;
  std::uint64_t n = 0;
  while (Clock::now() < deadline) {
    log.probe.sample_every(kProbeEveryS);
    if (order.empty()) {
      for (int d = 0; d < static_cast<int>(f.specs.size()); ++d) order.push_back(d);
      rng.shuffle(order);
    }
    const int d = order.back();
    order.pop_back();
    // Never reused: the client index and a per-client counter name the seed.
    const std::uint64_t placer_seed =
        seed_base + (static_cast<std::uint64_t>(client) << 40) + n++;
    flow::DesignData& design = f.designs[client][d];
    // A throw must not escape the client thread: it counts as an errored
    // what-if, like a refused one.
    try {
      Sample s;
      s.design = d;
      const Clock::time_point t0 = Clock::now();
      replace(design, f.specs[d], placer_seed);
      const Clock::time_point t1 = Clock::now();
      auto prepared = std::make_shared<const model::PreparedDesign>(
          model::prepare_design(design, config));
      const Clock::time_point t2 = Clock::now();
      model::PredictRequest req;
      req.design = prepared;
      std::optional<std::future<serve::PredictResponse>> future = service.submit(req);
      if (!future.has_value()) {
        ++log.refused;
        continue;
      }
      serve::PredictResponse r = future->get();
      const Clock::time_point t3 = Clock::now();
      s.latency_ms = ms_between(t0, t3);
      s.place_ms = ms_between(t0, t1);
      s.prepare_ms = ms_between(t1, t2);
      s.queue_ms = static_cast<double>(r.queue_ns) / 1e6;
      s.batch_wait_ms = static_cast<double>(r.batch_wait_ns) / 1e6;
      s.compute_ms = static_cast<double>(r.compute_ns) / 1e6;
      log.samples.push_back(s);
      log.last_done = t3;
      const std::size_t seen = log.samples.size();
      if (log.checks.size() < kChecks) {
        log.checks.push_back({d, placer_seed, std::move(r.arrival_ps)});
      } else if (const std::size_t slot = rng.index(seen); slot < kChecks) {
        log.checks[slot] = {d, placer_seed, std::move(r.arrival_ps)};
      }
    } catch (const std::exception&) {
      ++log.errored;
    }
  }
}

}  // namespace

Result run_placement_whatif(const Args& args) {
  Fixture f;
  SpeedProbe setup_probe;
  const double setup_s = timed_setup(3, setup_probe, [&] { f = make_fixture(args.seed); });

  return measure(args, true, [&](bool traced) {
    Result result;
    serve::PredictionService service(f.snapshot);
    TracedWindow window(traced);
    window.start();
    const serve::PredictionService::Stats before = service.stats();
    std::vector<ClientLog> logs(kClients);
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(args.seconds));
    {
      std::vector<std::thread> clients;
      for (int c = 0; c < kClients; ++c) {
        clients.emplace_back(run_client, c, traced ? 1 : 0, std::cref(args), std::ref(f),
                             std::ref(service), deadline, std::ref(logs[c]));
      }
      for (std::thread& t : clients) t.join();
    }
    const serve::PredictionService::Stats after = service.stats();
    window.stop();
    service.shutdown();

    std::vector<Sample> all;
    Clock::time_point end = start;
    for (const ClientLog& log : logs) {
      all.insert(all.end(), log.samples.begin(), log.samples.end());
      result.failed += log.refused + log.errored;
      end = std::max(end, log.last_done);
    }
    result.attempted = all.size() + result.failed;
    const auto column = [&](double Sample::*field) {
      std::vector<double> v;
      for (const Sample& s : all) v.push_back(s.*field);
      return v;
    };
    const double rss_mb = peak_rss_mb();
    const std::vector<double> latency = column(&Sample::latency_ms);
    std::vector<int> designs;
    double busy_s = 0.0;
    for (const Sample& s : all) {
      designs.push_back(s.design);
      busy_s += s.latency_ms / 1e3;
    }
    double scale = 0.0;
    for (const ClientLog& log : logs) scale += log.probe.scale_since(0) / kClients;
    const double elapsed = std::chrono::duration<double>(end - start).count();
    const double rate = elapsed > 0.0 ? static_cast<double>(all.size()) / elapsed : 0.0;
    const double p50_ms = per_group_mean(designs, latency, 0.5);
    // What-ifs per second of client time: the probe's share of the window
    // is not what-if work.
    const double client_rate = busy_s > 0.0 ? kClients * static_cast<double>(all.size()) / busy_s
                                            : 0.0;
    add_common_e2e(result, setup_s, p50_ms * scale, client_rate / scale, rss_mb);

    // Output check: redo the sampled what-ifs from their placer seeds and
    // predict them directly on the engine.
    const model::InferenceEngine engine(f.snapshot);
    const model::ModelConfig config = model_config(args.seed);
    std::uint64_t checked = 0, mismatched = 0;
    for (int c = 0; c < kClients; ++c) {
      for (const Check& check : logs[c].checks) {
        ++checked;
        flow::DesignData& design = f.designs[c][check.design];
        replace(design, f.specs[check.design], check.placer_seed);
        if (!same_bits(engine.predict(model::prepare_design(design, config)), check.served)) {
          ++mismatched;
        }
      }
    }
    result.failed += mismatched;
    if (mismatched > 0) {
      result.fail(std::to_string(mismatched) + " of " + std::to_string(checked) +
                  " re-predicted what-ifs differ from the served prediction");
    }
    result.notes.push_back(std::to_string(all.size()) + " what-ifs, " +
                           std::to_string(checked) + " re-predicted");

    result.named.push_back({"raw_p50_ms", p50_ms, "ms"});
    result.named.push_back({"probe_scale", scale, "ratio"});
    result.named.push_back(
        {"latency_p90_ms", per_group_mean(designs, latency, kTailQ), "ms"});
    result.named.push_back({"whatifs_per_s", rate, "1/s"});
    result.named.push_back(
        {"failed_frac",
         result.attempted > 0 ? static_cast<double>(result.failed) / result.attempted : 0.0,
         "ratio"});

    std::map<std::string, double>& l = result.layers;
    l["place.place_ms_p50"] = quantile(column(&Sample::place_ms), 0.5);
    l["model.prepare_ms_p50"] = quantile(column(&Sample::prepare_ms), 0.5);
    l["serve.queue_ms_p50"] = quantile(column(&Sample::queue_ms), 0.5);
    l["serve.queue_ms_p99"] = quantile(column(&Sample::queue_ms), 0.99);
    l["serve.batch_wait_ms_p50"] = quantile(column(&Sample::batch_wait_ms), 0.5);
    l["serve.compute_ms_p50"] = quantile(column(&Sample::compute_ms), 0.5);
    l["serve.compute_ms_p99"] = quantile(column(&Sample::compute_ms), 0.99);
    const std::uint64_t batches = after.batches - before.batches;
    l["serve.mean_batch"] =
        batches > 0 ? static_cast<double>(after.completed - before.completed) / batches : 0.0;
    l["serve.rejected"] = static_cast<double>(after.rejected - before.rejected);
    if (window.enabled()) {
      fold_layers(result, window, static_cast<double>(all.size()), "model.predict_batch");
    }
    return result;
  });
}

}  // namespace perfbench
