// serve_zipf: open-loop prediction traffic into one serve::PredictionService
// (default ServeConfig) over the ten paper designs, prepared once.
//
// Popularity is zipf (s = 1) over a seeded ranking of the designs, so it does
// not track size. The ranking rotates by one place per segment of the
// schedule (a Latin square over ten segments): at any moment a few hot
// designs dominate, which is what batch dedup and a cross-request embedding
// cache exploit, while over every ten segments each design holds each rank
// once. That fixes a run's aggregate design mix — and so its cost — for every
// seed; the seed moves the ranking, which design is hot when, the arrivals
// and the request mix. Requests: 60% whole-design envelope, 30% endpoint
// subsets, 10% pinned to one corner.
//
// Phases: the nominal rate (low load, so latency is service time rather
// than queueing noise) for 85% of the window, then a fixed ladder of rates
// reaching past capacity that shares the rest and yields max_rate_rps, the
// highest rate whose p90 meets the 250 ms limit. Arrivals are Poisson,
// precomputed from the seed; latency runs from each request's scheduled
// send time, so a late generator or a stall shows in every later request. A
// rung whose generator ran late (loadgen lag p99 over kLagLimitMs) is
// invalid, never fast. Every response is compared bit for bit with a
// reference prediction made in setup by InferenceEngine::predict.
//
// Gated, at the reference speed (see SpeedProbe, which the generator samples
// between sends): latency_p50_ms, per design the median latency at the
// nominal rate, then the mean over the designs, and work_per_s,
// requests completed per second of service busy time at the nominal rate.
// peak_rss_mb, printed but not gated, is read after the nominal phase.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <thread>

#include "common.hpp"
#include "core/rng.hpp"
#include "serve/serve.hpp"

namespace perfbench {

using namespace rtp;

namespace {

/// Nominal rate: about a quarter of capacity, so nominal latency is mostly
/// service time, not queueing noise.
constexpr double kNominalRps = 12.0;
constexpr double kLadderRps[] = {36.0, 50.0, 70.0};
/// Latency limit of max_rate_rps: a few times the slowest design's whole
/// forward (~60 ms at 1% scale on one core).
constexpr double kLimitMs = 250.0;
/// A phase whose load generator ran later than this at p99 is invalid.
constexpr double kLagLimitMs = 20.0;
constexpr double kNominalShare = 0.85;
/// The generator samples the host-speed probe (a few ms) only in a wait of
/// at least kProbeGap before the next send, at most every kProbeEveryS.
constexpr auto kProbeGap = std::chrono::milliseconds(25);
constexpr double kProbeEveryS = 0.4;
constexpr int kDesigns = 10;

enum class Kind { kWhole, kSubset, kCorner };

struct Arrival {
  double t_s = 0.0;  ///< scheduled send, seconds after the phase start
  int design = 0;
  Kind kind = Kind::kWhole;
  std::int32_t corner = -1;
  std::vector<std::int32_t> endpoints;
};

struct Fixture {
  /// The designs' inputs; each prepared design's timing graph points into one.
  std::vector<std::unique_ptr<flow::DesignData>> inputs;
  std::vector<std::shared_ptr<const model::PreparedDesign>> designs;
  std::shared_ptr<const model::WeightSnapshot> snapshot;
  /// Per design: the envelope prediction and one per registry corner.
  std::vector<nn::Tensor> envelope;
  std::vector<std::vector<nn::Tensor>> per_corner;
};

Fixture make_fixture(std::uint64_t seed) {
  Fixture f;
  const model::ModelConfig config = model_config(seed);
  for (const gen::BenchmarkSpec& spec : seeded_specs(seed)) {
    f.inputs.push_back(std::make_unique<flow::DesignData>(input_design(spec, spec.seed)));
    f.designs.push_back(std::make_shared<const model::PreparedDesign>(
        model::prepare_design(*f.inputs.back(), config)));
  }
  f.snapshot = untrained_snapshot(seed);
  const model::InferenceEngine engine(f.snapshot);
  for (const auto& pd : f.designs) {
    f.envelope.push_back(engine.predict(*pd));
    std::vector<nn::Tensor> corners;
    for (std::size_t c = 0; c < pd->corners.size(); ++c) {
      model::PredictRequest req;
      req.design = pd;
      req.corner = static_cast<std::int32_t>(c);
      corners.push_back(engine.predict(req));
    }
    f.per_corner.push_back(std::move(corners));
  }
  return f;
}

/// `n` category draws by systematic sampling: each category's count is
/// within one of n * its weight share, in shuffled order. Exact mixes keep
/// a run's cost independent of the seed; only order and timing vary.
std::vector<int> stratified(const std::vector<double>& weights, int n, Rng& rng) {
  double total = 0.0;
  for (double w : weights) total += w;
  std::vector<int> out;
  const double offset = rng.uniform();
  double below = 0.0;
  std::size_t c = 0;
  for (int k = 0; k < n; ++k) {
    const double pos = (k + offset) / n * total;
    while (c + 1 < weights.size() && below + weights[c] <= pos) below += weights[c++];
    out.push_back(static_cast<int>(c));
  }
  rng.shuffle(out);
  return out;
}

/// rate * duration arrivals at uniform random times (a Poisson process
/// conditioned on its count) over `segments` equal segments; segment j ranks
/// design d at (rank[d] + j) mod kDesigns.
std::vector<Arrival> schedule(const Fixture& f, const std::vector<int>& rank, double rate,
                              double duration, int segments, Rng& rng) {
  const int n = static_cast<int>(std::lround(rate * duration));
  std::vector<Arrival> out(n);
  for (Arrival& a : out) a.t_s = rng.uniform() * duration;
  std::sort(out.begin(), out.end(),
            [](const Arrival& a, const Arrival& b) { return a.t_s < b.t_s; });
  int i = 0;
  for (int segment = 0; segment < segments; ++segment) {
    const double end = duration * (segment + 1) / segments;
    int m = 0;
    while (i + m < n && (segment + 1 == segments || out[i + m].t_s < end)) ++m;
    std::vector<double> weights(kDesigns);
    for (int d = 0; d < kDesigns; ++d) weights[d] = 1.0 / (1 + (rank[d] + segment) % kDesigns);
    for (int design : stratified(weights, m, rng)) out[i++].design = design;
  }
  const std::vector<int> kinds = stratified({0.6, 0.3, 0.1}, n, rng);
  for (int k = 0; k < n; ++k) {
    Arrival& a = out[k];
    a.kind = static_cast<Kind>(kinds[k]);
    const model::PreparedDesign& pd = *f.designs[a.design];
    const int eps = static_cast<int>(pd.endpoints.size());
    if (a.kind == Kind::kSubset) {
      std::vector<std::int32_t> all(eps);
      for (int e = 0; e < eps; ++e) all[e] = e;
      const int size = static_cast<int>(rng.range(1, std::min(16, eps)));
      for (int j = 0; j < size; ++j) {
        std::swap(all[j], all[j + static_cast<int>(rng.index(eps - j))]);
        a.endpoints.push_back(all[j]);
      }
    } else if (a.kind == Kind::kCorner) {
      a.corner = static_cast<std::int32_t>(rng.index(pd.corners.size()));
    }
  }
  return out;
}

bool response_matches(const Fixture& f, const Arrival& a, const nn::Tensor& got) {
  switch (a.kind) {
    case Kind::kWhole:
      return same_bits(got, f.envelope[a.design]);
    case Kind::kCorner:
      return same_bits(got, f.per_corner[a.design][a.corner]);
    case Kind::kSubset: {
      if (got.numel() != a.endpoints.size()) return false;
      const nn::Tensor& ref = f.envelope[a.design];
      for (std::size_t i = 0; i < a.endpoints.size(); ++i) {
        if (std::memcmp(got.data() + i, ref.data() + a.endpoints[i], sizeof(float)) != 0) {
          return false;
        }
      }
      return true;
    }
  }
  return false;
}

struct Phase {
  double rate = 0.0;
  std::uint64_t scheduled = 0;
  std::uint64_t rejected = 0;
  std::uint64_t errored = 0;
  std::uint64_t mismatched = 0;
  std::uint64_t met_limit = 0;
  std::uint64_t batches = 0;
  std::uint64_t completed = 0;
  std::int64_t backlog_mid = 0;
  std::int64_t backlog_end = 0;
  std::int64_t backlog_max = 0;
  /// From scheduled send; refused and failed requests count as +inf.
  std::vector<double> latency_ms;
  /// The design of each latency_ms entry.
  std::vector<int> design;
  std::vector<double> lag_ms;
  std::vector<double> queue_ms, batch_wait_ms, compute_ms;
  /// Service busy time: each batch's compute shared among its requests.
  double busy_s = 0.0;

  double lag_p99() const { return quantile(lag_ms, 0.99); }
  bool valid() const { return lag_p99() <= kLagLimitMs; }
  double meet_share() const {
    return scheduled > 0 ? static_cast<double>(met_limit) / static_cast<double>(scheduled)
                         : 1.0;
  }
  /// Backlog grows when in-flight requests at the end clearly exceed those
  /// at mid-phase (two full batches of slack absorb Poisson bursts).
  bool backlog_growing(int max_batch) const {
    return backlog_end > backlog_mid + 2 * max_batch;
  }
  bool passes(int max_batch) const {
    return valid() && meet_share() >= kTailQ && !backlog_growing(max_batch);
  }
};

/// Runs one phase of the schedule. A non-null `probe` is sampled by the
/// generator while it waits for the next send, when the wait is long enough.
Phase run_phase(serve::PredictionService& service, const Fixture& f,
                const std::vector<Arrival>& arrivals, double rate, double duration,
                SpeedProbe* probe) {
  Phase p;
  p.rate = rate;
  p.scheduled = arrivals.size();
  struct InFlight {
    std::future<serve::PredictResponse> future;
    const Arrival* arrival;
    double lag_ms;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<InFlight> queue;
  bool sending_done = false;
  std::atomic<std::int64_t> collected{0};

  // The collector owns every Phase field it writes until join().
  std::thread collector([&] {
    for (;;) {
      InFlight item;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return sending_done || !queue.empty(); });
        if (queue.empty()) return;
        item = std::move(queue.front());
        queue.pop_front();
      }
      try {
        const serve::PredictResponse r = item.future.get();
        const double latency = item.lag_ms + static_cast<double>(r.total_ns) / 1e6;
        const bool ok = response_matches(f, *item.arrival, r.arrival_ps);
        p.mismatched += ok ? 0 : 1;
        p.met_limit += ok && latency <= kLimitMs ? 1 : 0;
        p.latency_ms.push_back(ok ? latency : INFINITY);
        p.design.push_back(item.arrival->design);
        p.queue_ms.push_back(static_cast<double>(r.queue_ns) / 1e6);
        p.batch_wait_ms.push_back(static_cast<double>(r.batch_wait_ns) / 1e6);
        p.compute_ms.push_back(static_cast<double>(r.compute_ns) / 1e6);
        p.busy_s += static_cast<double>(r.compute_ns) / 1e9 / r.batch_size;
      } catch (const std::exception&) {
        ++p.errored;
        p.latency_ms.push_back(INFINITY);
        p.design.push_back(item.arrival->design);
      }
      collected.fetch_add(1, std::memory_order_relaxed);
    }
  });

  const serve::PredictionService::Stats before = service.stats();
  const Clock::time_point start = Clock::now();
  std::int64_t sent = 0;
  bool mid_sampled = false;
  std::vector<const Arrival*> refused;
  for (const Arrival& a : arrivals) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(a.t_s));
    if (probe != nullptr && due - Clock::now() > kProbeGap) probe->sample_every(kProbeEveryS);
    std::this_thread::sleep_until(due);
    const double lag = ms_between(due, Clock::now());
    p.lag_ms.push_back(lag);
    model::PredictRequest req;
    req.design = f.designs[a.design];
    req.corner = a.corner;
    req.endpoints = a.endpoints;
    std::optional<std::future<serve::PredictResponse>> future = service.submit(std::move(req));
    if (!future.has_value()) {
      ++p.rejected;
      refused.push_back(&a);
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      queue.push_back({std::move(*future), &a, lag});
    }
    cv.notify_one();
    ++sent;
    const std::int64_t backlog = sent - collected.load(std::memory_order_relaxed);
    p.backlog_max = std::max(p.backlog_max, backlog);
    if (!mid_sampled && a.t_s >= duration / 2) {
      p.backlog_mid = backlog;
      mid_sampled = true;
    }
  }
  p.backlog_end = sent - collected.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu);
    sending_done = true;
  }
  cv.notify_one();
  collector.join();
  const serve::PredictionService::Stats after = service.stats();
  p.batches = after.batches - before.batches;
  p.completed = after.completed - before.completed;
  for (const Arrival* a : refused) {
    p.latency_ms.push_back(INFINITY);
    p.design.push_back(a->design);
  }
  return p;
}

/// Highest rate whose tail meets the limit without a growing backlog: from
/// the highest passing point, linear in the share of requests meeting
/// kLimitMs toward the next point up. A next point that is invalid, or fails
/// only on backlog, bounds the answer at the passing rate.
double max_rate(const std::vector<Phase>& points, int max_batch, std::string* note) {
  int pass = -1;
  for (int i = 0; i < static_cast<int>(points.size()); ++i) {
    if (points[i].passes(max_batch)) pass = i;
  }
  const double lo_rate = pass >= 0 ? points[pass].rate : 0.0;
  const double lo_share = pass >= 0 ? points[pass].meet_share() : 1.0;
  if (pass + 1 == static_cast<int>(points.size())) {
    *note = "every ladder rate met the limit; max_rate_rps is capped at the top rung";
    return lo_rate;
  }
  const Phase& hi = points[pass + 1];
  const double hi_share = hi.meet_share();
  if (!hi.valid() || hi_share >= kTailQ || lo_share <= hi_share) return lo_rate;
  return lo_rate + (hi.rate - lo_rate) * (lo_share - kTailQ) / (lo_share - hi_share);
}

}  // namespace

Result run_serve_zipf(const Args& args) {
  Fixture f;
  SpeedProbe setup_probe;
  const double setup_s = timed_setup(3, setup_probe, [&] { f = make_fixture(args.seed); });

  Rng rng(mix(args.seed, 0x7a697066ULL));
  std::vector<int> rank(kDesigns);
  for (int d = 0; d < kDesigns; ++d) rank[d] = d;
  rng.shuffle(rank);
  const double nominal_s = args.seconds * kNominalShare;
  const double rung_s = args.seconds * (1.0 - kNominalShare) / std::size(kLadderRps);
  std::vector<std::pair<double, std::vector<Arrival>>> plan;
  plan.emplace_back(kNominalRps, schedule(f, rank, kNominalRps, nominal_s, 2 * kDesigns, rng));
  for (double rate : kLadderRps) {
    plan.emplace_back(rate, schedule(f, rank, rate, rung_s, kDesigns, rng));
  }

  return measure(args, true, [&](bool traced) {
    Result result;
    serve::PredictionService service(f.snapshot);
    const int max_batch = service.config().max_batch;
    TracedWindow window(traced);
    window.start();
    std::vector<Phase> phases;
    // The resident peak is read after the nominal phase: the ladder's short
    // overloaded rungs make batches of random make-up, and every new batch
    // shape grows the workspace free list by a random amount.
    double rss_mb = 0.0;
    SpeedProbe probe;
    for (const auto& [rate, arrivals] : plan) {
      const bool nominal = phases.empty();
      phases.push_back(run_phase(service, f, arrivals, rate, nominal ? nominal_s : rung_s,
                                 nominal ? &probe : nullptr));
      if (nominal) rss_mb = peak_rss_mb();
    }
    window.stop();
    service.shutdown();

    const Phase& nominal = phases.front();
    std::string cap_note;
    const double max_rps = max_rate(phases, max_batch, &cap_note);
    if (!cap_note.empty()) result.notes.push_back(cap_note);
    std::uint64_t rejected = 0, completed = 0;
    double busy_s = 0.0;
    for (const Phase& p : phases) {
      rejected += p.rejected;
      completed += p.completed;
      busy_s += p.busy_s;
    }
    // Capacity: requests completed per second the service was busy computing,
    // over every phase. The ladder's max_rate_rps answers the same question
    // under the latency limit, but its short rungs are too noisy to gate on;
    // the gated work_per_s is the nominal phase's capacity, the phase the
    // probe ran in.
    const double capacity_rps = static_cast<double>(completed) / busy_s;
    const double nominal_capacity = static_cast<double>(nominal.completed) / nominal.busy_s;
    const double scale = probe.scale_since(0);
    const double p50_ms = per_group_mean(nominal.design, nominal.latency_ms, 0.5);
    add_common_e2e(result, setup_s, p50_ms * scale, nominal_capacity / scale, rss_mb);

    result.attempted = nominal.scheduled;
    result.failed = nominal.rejected + nominal.errored + nominal.mismatched;
    for (const Phase& p : phases) {
      if (p.mismatched + p.errored > 0) {
        result.fail(std::to_string(p.mismatched + p.errored) + " responses at " +
                    std::to_string(p.rate) + " req/s differ from the reference");
      }
      char line[256];
      std::snprintf(line, sizeof(line),
                    "rate %.0f req/s: %llu samples, p90 %.1f ms, meet %.4f, lag p99 %.3f ms, "
                    "backlog mid/end %lld/%lld, %s",
                    p.rate, static_cast<unsigned long long>(p.scheduled),
                    quantile(p.latency_ms, kTailQ), p.meet_share(), p.lag_p99(),
                    static_cast<long long>(p.backlog_mid),
                    static_cast<long long>(p.backlog_end),
                    !p.valid() ? "INVALID (generator late)"
                               : p.passes(max_batch) ? "pass" : "fail");
      result.notes.push_back(line);
    }
    if (!nominal.valid()) result.fail("load generator ran late at the nominal rate");
    if (static_cast<double>(nominal.scheduled) * (1.0 - kTailQ) < 10.0) {
      result.notes.push_back("under ten nominal samples lie beyond the tail quantile");
    }

    result.named.push_back({"raw_p50_ms", p50_ms, "ms"});
    result.named.push_back({"probe_scale", scale, "ratio"});
    // The nominal phase's requests pooled, in wall time.
    result.named.push_back({"pooled_p50_ms", quantile(nominal.latency_ms, 0.5), "ms"});
    result.named.push_back({"latency_p90_ms", quantile(nominal.latency_ms, kTailQ), "ms"});
    result.named.push_back({"nominal_samples", static_cast<double>(nominal.scheduled), "count"});
    result.named.push_back({"capacity_rps", capacity_rps, "req/s"});
    result.named.push_back({"max_rate_rps", max_rps, "req/s"});
    result.named.push_back(
        {"failed_frac",
         result.attempted > 0 ? static_cast<double>(result.failed) / result.attempted : 0.0,
         "ratio"});

    std::map<std::string, double>& l = result.layers;
    l["serve.queue_ms_p50"] = quantile(nominal.queue_ms, 0.5);
    l["serve.queue_ms_p99"] = quantile(nominal.queue_ms, 0.99);
    l["serve.batch_wait_ms_p50"] = quantile(nominal.batch_wait_ms, 0.5);
    l["serve.compute_ms_p50"] = quantile(nominal.compute_ms, 0.5);
    l["serve.compute_ms_p99"] = quantile(nominal.compute_ms, 0.99);
    l["serve.mean_batch"] = nominal.batches > 0 ? static_cast<double>(nominal.completed) /
                                                      static_cast<double>(nominal.batches)
                                                : 0.0;
    l["serve.rejected"] = static_cast<double>(rejected);
    l["serve.backlog_max"] = static_cast<double>(nominal.backlog_max);
    l["serve.nominal_samples"] = static_cast<double>(nominal.scheduled);
    l["loadgen.lag_ms_p99"] = nominal.lag_p99();
    if (window.enabled()) {
      fold_layers(result, window, static_cast<double>(completed), "model.predict_batch");
    }
    return result;
  });
}

}  // namespace perfbench
