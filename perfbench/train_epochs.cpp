// train_epochs: the offline side of the paper. Set-up runs the sign-off
// label flow, flow::DatasetFlow::run, over the five train designs and the
// held-out design at 1% scale under the three registry corners: route, the
// optimizer's multi-corner incremental STA and sign-off STA, the "commercial"
// side of TABLE III, with no NN code. Every flow's labels are checked: one
// per netlist endpoint and corner, each finite and positive. The timed phase
// runs model::train_model over the five train designs (three corners, so
// every endpoint is three training rows), in rounds of a fixed number of
// epochs from the same initial weights until the window closes; after each
// round the held-out design is predicted. Backward kernels,
// EndpointGNN::backward, nn::Adam and the trainer run nowhere else.
// Checks: every epoch loss is finite, and every round ends on the same
// held-out prediction bit for bit — training is deterministic at a fixed
// seed, so holdout_r2 guards against a faster trainer that stops learning.
//
// Gated, at the reference speed (see SpeedProbe): latency_p50_ms, the median
// epoch, and work_per_s, rows trained per second of epoch time; setup_s is
// the label flows. With --trace the flow, route, opt and sta layer metrics
// come from the set-up's label flows (per design flow) and the trainer's
// from the window.

#include <cmath>

#include "common.hpp"
#include "eval/metrics.hpp"
#include "model/trainer.hpp"
#include "sta/corner.hpp"

namespace perfbench {

using namespace rtp;

namespace {

constexpr int kEpochsPerRound = 20;
/// The held-out test design: 25 endpoints x 3 corners, cheap to flow.
constexpr const char* kHoldout = "arm9";
/// Host-speed probe period: about 60 samples a 25 s window, 2% of its time.
constexpr double kProbeEveryS = 0.4;

/// Timestamps the end of every epoch (train_model reports each epoch's loss
/// through its sink) and collects the losses. Between epochs it samples the
/// host-speed probe, outside the epoch times.
class EpochSink final : public obs::Sink {
 public:
  explicit EpochSink(SpeedProbe& probe) : probe_(probe), last_(Clock::now()) {}
  void on_metric(const char* name, int, double value) override {
    if (std::string(name) != "train.epoch_loss") return;
    epoch_ms.push_back(ms_between(last_, Clock::now()));
    losses.push_back(value);
    probe_.sample_every(kProbeEveryS);
    last_ = Clock::now();
  }
  std::vector<double> epoch_ms;
  std::vector<double> losses;

 private:
  SpeedProbe& probe_;
  Clock::time_point last_;
};

/// Sums the label flows' stage spans ("flow.gen", "flow.place", ...) by name.
class StageSink final : public obs::Sink {
 public:
  void on_span(const char* name, double seconds) override { seconds_[name] += seconds; }
  double seconds(const std::string& name) const {
    const auto it = seconds_.find(name);
    return it == seconds_.end() ? 0.0 : it->second;
  }

 private:
  std::map<std::string, double> seconds_;
};

bool labels_ok(const flow::DesignData& d, std::size_t corners) {
  if (d.endpoints.size() != d.input_netlist.endpoints().size() ||
      d.label_arrival.size() != d.endpoints.size() ||
      d.corner_label_arrival.size() != corners) {
    return false;
  }
  const auto positive = [](const std::vector<double>& v) {
    for (double x : v) {
      if (!std::isfinite(x) || x <= 0.0) return false;
    }
    return true;
  };
  for (const std::vector<double>& row : d.corner_label_arrival) {
    if (row.size() != d.endpoints.size() || !positive(row)) return false;
  }
  return positive(d.label_arrival);
}

struct Fixture {
  /// Flow outputs; each prepared design's timing graph points into one.
  std::vector<std::unique_ptr<flow::DesignData>> flows;
  std::vector<model::PreparedDesign> train;
  std::unique_ptr<model::PreparedDesign> holdout;
  double rows_per_epoch = 0.0;
  /// Designs whose sign-off labels failed labels_ok().
  std::vector<std::string> bad_labels;
};

Fixture make_fixture(std::uint64_t seed, StageSink* stages, SpeedProbe& probe) {
  flow::FlowConfig config;
  config.scale = kScale;
  config.corners = sta::registry_corners();
  config.seed = mix(seed, 0x666c6f77ULL);
  const flow::DatasetFlow flow(cell_library(), config);
  const model::ModelConfig mc = model_config(seed);
  Fixture f;
  for (const gen::BenchmarkSpec& spec : seeded_specs(seed)) {
    if (!spec.is_train && spec.name != kHoldout) continue;
    probe.sample();
    f.flows.push_back(std::make_unique<flow::DesignData>(flow.run(spec, stages)));
    if (!labels_ok(*f.flows.back(), config.corners.size())) f.bad_labels.push_back(spec.name);
    model::PreparedDesign pd = model::prepare_design(*f.flows.back(), mc);
    if (spec.is_train) {
      f.rows_per_epoch += static_cast<double>(pd.corner_labels.numel());
      f.train.push_back(std::move(pd));
    } else {
      f.holdout = std::make_unique<model::PreparedDesign>(std::move(pd));
    }
  }
  return f;
}

}  // namespace

Result run_train_epochs(const Args& args) {
  Fixture f;
  StageSink stages;
  TracedWindow labels(args.trace);
  labels.start();
  // One set-up, not a median of several: it is six sign-off flows. The probe
  // is also sampled between the flows.
  SpeedProbe setup_probe;
  const double setup_s =
      timed_setup(1, setup_probe, [&] { f = make_fixture(args.seed, &stages, setup_probe); });
  labels.stop();
  std::vector<model::PreparedDesign*> train_set;
  for (model::PreparedDesign& pd : f.train) train_set.push_back(&pd);
  const model::ModelConfig config = model_config(args.seed);
  const std::vector<double> targets(f.holdout->labels.data(),
                                    f.holdout->labels.data() + f.holdout->labels.numel());

  return measure(args, false, [&](bool traced) {
    Result result;
    for (const std::string& name : f.bad_labels) {
      result.fail(name + ": sign-off labels missing, non-finite or non-positive");
    }
    std::vector<double> epoch_ms;
    SpeedProbe probe;
    nn::Tensor first_prediction;
    double r2 = 0.0;
    int rounds = 0;
    TracedWindow window(traced);
    window.start();
    const Clock::time_point start = Clock::now();
    while (seconds_since(start) < args.seconds) {
      model::FusionModel model(config);
      EpochSink sink(probe);
      model::train_model(model, train_set,
                         {.epochs = kEpochsPerRound,
                          .seed = mix(args.seed, 0x747261696eULL),
                          .sink = &sink});
      epoch_ms.insert(epoch_ms.end(), sink.epoch_ms.begin(), sink.epoch_ms.end());
      result.attempted += kEpochsPerRound;
      for (double loss : sink.losses) {
        if (!std::isfinite(loss)) ++result.failed;
      }
      const nn::Tensor pred = model::InferenceEngine(model::WeightSnapshot::from_model(model))
                                  .predict(*f.holdout);
      if (rounds == 0) {
        first_prediction = pred;
        const std::vector<double> p(pred.data(), pred.data() + pred.numel());
        r2 = eval::r2_score(targets, p);
      } else if (!same_bits(pred, first_prediction)) {
        result.fail("round " + std::to_string(rounds) +
                    " held-out prediction differs from round 0 at the same seed");
      }
      ++rounds;
    }
    const double elapsed = seconds_since(start);
    window.stop();
    if (result.failed > 0) {
      result.fail(std::to_string(result.failed) + " non-finite epoch losses");
    }
    if (!std::isfinite(r2)) result.fail("held-out R2 is not finite");

    const double rss_mb = peak_rss_mb();
    const double rows_per_s =
        f.rows_per_epoch * static_cast<double>(rounds * kEpochsPerRound) / elapsed;
    // Rows per second of epoch time: model set-up and the held-out check
    // between rounds, and the probe, are not training.
    double epochs_s = 0.0;
    for (double ms : epoch_ms) epochs_s += ms / 1e3;
    const double train_rows_per_s =
        f.rows_per_epoch * static_cast<double>(epoch_ms.size()) / epochs_s;
    const double scale = probe.scale_since(0);
    const double p50_ms = quantile(epoch_ms, 0.5);
    add_common_e2e(result, setup_s, p50_ms * scale, train_rows_per_s / scale, rss_mb);
    result.named.push_back({"raw_p50_ms", p50_ms, "ms"});
    result.named.push_back({"probe_scale", scale, "ratio"});
    result.named.push_back({"latency_p90_ms", quantile(epoch_ms, kTailQ), "ms"});
    result.named.push_back({"train_rows_per_s", rows_per_s, "row/s"});
    result.named.push_back({"holdout_r2", r2, "ratio"});
    result.named.push_back(
        {"failed_frac", static_cast<double>(result.failed) / result.attempted, "ratio"});
    result.notes.push_back(std::to_string(rounds) + " rounds of " +
                           std::to_string(kEpochsPerRound) + " epochs, held out " + kHoldout);
    result.notes.push_back(std::to_string(f.flows.size()) +
                           " sign-off label flows in set-up");

    std::map<std::string, double>& l = result.layers;
    l["train.holdout_r2"] = r2;
    if (window.enabled()) {
      fold_layers(result, window, static_cast<double>(epoch_ms.size()), "model.train_step");
      const double flows = static_cast<double>(f.flows.size());
      for (const char* stage : {"gen", "place", "noopt", "opt", "route", "sta"}) {
        const std::string span = std::string("flow.") + stage;
        l[span + "_s"] = stages.seconds(span) / flows;
      }
      const auto per_flow = [&](std::uint64_t v) { return static_cast<double>(v) / flows; };
      l["route.segments"] = per_flow(labels.counter("route.segments"));
      l["opt.moves"] = per_flow(labels.counter("opt.moves_sizing") +
                                labels.counter("opt.moves_buffer") +
                                labels.counter("opt.moves_restructure"));
      l["sta.inc.updates"] = per_flow(labels.counter("sta.inc.updates"));
      l["sta.inc.full_fallbacks"] = per_flow(labels.counter("sta.inc.full_fallbacks"));
      l["sta.multicorner.updates"] = per_flow(labels.counter("sta.multicorner.updates"));
    }
    return result;
  });
}

}  // namespace perfbench
