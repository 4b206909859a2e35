// rtp_perfbench: one workload of the end-to-end benchmark per invocation.
//
//   rtp_perfbench --workload <serve_zipf|placement_whatif|train_epochs>
//                 --seed N --seconds S [--trace]
//
// Prints one JSON line: the e2e metrics, the per-workload named metrics, the
// per-layer values the workload measured (the traced-window ones only with
// --trace, which also reruns the timed phase traced), the attempted/failed
// counts and whether every output check passed. run.py builds this binary,
// runs it and turns that line into the benchmark result.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "build_info.hpp"
#include "common.hpp"
#include "core/log.hpp"
#include "core/thread_pool.hpp"
#include "obs/obs.hpp"

namespace {

using perfbench::Metric;
using perfbench::Result;

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out(1, '"');
  out += rtp::obs::detail::json_escape(s);
  out += '"';
  return out;
}

std::string metric_object(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(metrics[i].name) + ": {\"value\": " +
           json_number(metrics[i].value) + ", \"unit\": " + json_string(metrics[i].unit) +
           "}";
  }
  return out + "}";
}

int usage(const char* why) {
  std::fprintf(stderr,
               "rtp_perfbench: %s\nusage: rtp_perfbench --workload NAME --seed N "
               "--seconds S [--trace]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      args.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace") {
      args.trace = true;
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (!(args.seconds > 0.0)) return usage("--seconds must be positive");
  rtp::set_log_level(rtp::LogLevel::kWarn);

  Result result;
  if (args.workload == "serve_zipf") {
    result = perfbench::run_serve_zipf(args);
  } else if (args.workload == "placement_whatif") {
    result = perfbench::run_placement_whatif(args);
  } else if (args.workload == "train_epochs") {
    result = perfbench::run_train_epochs(args);
  } else {
    return usage(("unknown workload " + args.workload).c_str());
  }

  std::string layers = "{";
  for (const auto& [name, value] : result.layers) {
    if (layers.size() > 1) layers += ", ";
    layers += json_string(name) + ": " + json_number(value);
  }
  layers += "}";
  for (const Metric& m : result.e2e) {
    if (!std::isfinite(m.value)) result.fail("non-finite e2e metric " + m.name);
  }

  std::string notes = "[";
  for (std::size_t i = 0; i < result.notes.size(); ++i) {
    notes += (i > 0 ? ", " : "") + json_string(result.notes[i]);
  }
  notes += "]";
  const char* threads_env = std::getenv("RTP_THREADS");
  std::printf(
      "{\"workload\": %s, \"seed\": %llu, \"seconds\": %s, \"trace\": %s, "
      "\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"e2e\": %s, "
      "\"named\": %s, \"layers\": %s, \"notes\": %s, \"provenance\": {\"git_sha\": %s, "
      "\"build_type\": %s, \"compiler\": %s, \"pool_threads\": %d, \"RTP_THREADS\": %s}}\n",
      json_string(args.workload).c_str(), static_cast<unsigned long long>(args.seed),
      json_number(args.seconds).c_str(), args.trace ? "true" : "false",
      result.correct ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed), metric_object(result.e2e).c_str(),
      metric_object(result.named).c_str(), layers.c_str(), notes.c_str(),
      json_string(RTP_GIT_SHA).c_str(), json_string(RTP_BUILD_TYPE).c_str(),
      json_string(__VERSION__).c_str(), rtp::core::ThreadPool::instance().num_threads(),
      json_string(threads_env != nullptr ? threads_env : "").c_str());
  std::fflush(stdout);
  return 0;
}
