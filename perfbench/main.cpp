// perfbench_serving: one run of one workload of the repository benchmark.
//
//   perfbench_serving --workload batch-large|online-small|online-mutating
//                     --seed N --seconds S --trace 0|1
//                     [--out-dir DIR] [--revision TEXT]
//                     [--tiny] [--corrupt-result]
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// is the separate traced run that reports the per-layer metrics.  The
// last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}; the full record (run
// metadata, sample counts, details) goes to <out-dir>, and a traced
// run also writes its spans there.  The exit code is non-zero when any
// operation failed or any checked result differs from the oracle.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hpp"
#include "index/backends.hpp"
#include "index/registry.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

Options parse_args(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    }
    const auto take = [&]() -> std::string {
      if (eq != std::string::npos) {
        return value;
      }
      if (i + 1 >= argc) {
        throw std::invalid_argument(arg + " needs a value");
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload_name = take();
      have_workload = true;
      if (options.workload_name == "batch-large") {
        options.workload = Workload::kBatchLarge;
      } else if (options.workload_name == "online-small") {
        options.workload = Workload::kOnlineSmall;
      } else if (options.workload_name == "online-mutating") {
        options.workload = Workload::kOnlineMutating;
      } else {
        throw std::invalid_argument("unknown workload '" + options.workload_name + "'");
      }
    } else if (arg == "--seed") {
      options.seed = std::stoull(take());
    } else if (arg == "--seconds") {
      options.seconds = std::stod(take());
      if (!(options.seconds > 0.0)) {
        throw std::invalid_argument("--seconds must be positive");
      }
    } else if (arg == "--trace") {
      options.trace = take() != "0";
    } else if (arg == "--out-dir") {
      options.out_dir = take();
    } else if (arg == "--revision") {
      options.revision = take();
    } else if (arg == "--tiny") {
      options.tiny = true;
    } else if (arg == "--corrupt-result") {
      options.corrupt = true;
    } else {
      throw std::invalid_argument("unknown argument '" + arg + "'");
    }
  }
  if (!have_workload) {
    throw std::invalid_argument("--workload is required");
  }
  return options;
}

/// Faults pages in, starts the pool and lets the host settle before
/// anything is timed: synchronous queries for at least one second (and
/// at least 4 / 200 queries).
void warm_up(const Options& options, const Inputs& inputs, Serving& serving) {
  const std::size_t queries = options.workload == Workload::kBatchLarge ? 4 : 200;
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < queries || since(start) < 1.0; ++i) {
    (void)serving.engine->query(inputs.queries[i % inputs.queries.size()], kTopK);
  }
  serving.engine->reset_latency();
}

/// Folds whatever the delta still holds, so the oracle sees a settled
/// generation as well as the swaps made under load.
void settle(Serving& serving) {
  (void)serving.compactor->compact();
}

/// Checks `observed` (plus, on online-mutating, a fresh sample of
/// settled results) against the oracle: cpu-heap over the same matrix,
/// or an exact-sort rebuild of the live rows after mutations.
std::uint64_t check_results(const Options& options, const Inputs& inputs,
                            const Serving& serving, const LogicalModel* model,
                            std::vector<Observed> observed, Report& report) {
  if (model == nullptr) {
    const auto reference = topk::index::make_index("cpu-heap", inputs.matrix);
    report.note("oracle.checked", "count", static_cast<double>(observed.size()));
    return count_mismatches(*reference, inputs.queries, std::move(observed), {},
                            options.corrupt);
  }
  for (std::uint32_t q = 0; q < 64; ++q) {
    observed.push_back({q, serving.engine->query(inputs.queries[q], kTopK).entries});
  }
  auto [live, live_ids] = model->live_matrix();
  const topk::index::ExactSortIndex reference(
      std::make_shared<const topk::sparse::Csr>(std::move(live)));
  report.note("oracle.checked", "count", static_cast<double>(observed.size()));
  return count_mismatches(reference, inputs.queries, std::move(observed), live_ids,
                          options.corrupt);
}

std::size_t completed_queries(const Options& options, const TrafficStats& stats) {
  const std::size_t per_sample =
      options.workload == Workload::kBatchLarge ? kBatchSize : 1;
  return stats.latency_ms.size() * per_sample;
}

/// How a run is cut into windows and which windows are kept.  A window
/// is kept when its CPU steal (time the hypervisor gave this guest's
/// vCPUs to other guests) is at most `steal_limit` vCPUs; at least the
/// quietest `min_kept` share of the windows is always kept.
struct WindowRule {
  double steal_limit = 0.0;
  double min_kept = 0.0;
};

/// batch-large: one window per 64-query call (about 1.5 s).
constexpr WindowRule kBatchWindows{0.1, 0.5};
/// Online workloads: 100 ms windows with no steal at all.  Every online
/// query fans out to all four vCPUs, so any stalled vCPU delays the
/// queries in flight; at 1 s windows, a host that steals a few percent
/// throughout leaves no window clean.
constexpr double kOnlineWindowSeconds = 0.1;
constexpr WindowRule kOnlineWindows{0.0, 0.25};

/// Throughput and latency percentiles over the windows of a run that
/// other guests left alone.  On a shared host that interference comes
/// in bursts; this keeps it out of the figures without selecting on the
/// figures themselves.  The percentiles pool the samples of the kept
/// windows.
struct Windowed {
  double qps = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  std::size_t windows = 0;
  std::size_t selected = 0;
};

Windowed windowed(const Options& options, const TrafficStats& stats,
                  const StealSampler& steal) {
  struct Window {
    double begin = 0.0;
    double end = 0.0;
    std::vector<double> latency_ms;
    double steal_rate = 0.0;
  };
  std::vector<Window> windows;
  double per_sample = 1.0;
  WindowRule rule = kOnlineWindows;
  if (options.workload == Workload::kBatchLarge) {
    per_sample = static_cast<double>(kBatchSize);
    rule = kBatchWindows;
    for (std::size_t i = 0; i < stats.latency_ms.size(); ++i) {
      windows.push_back({stats.done_s[i] - stats.latency_ms[i] / 1e3,
                         stats.done_s[i], {stats.latency_ms[i]}, 0.0});
    }
  } else {
    const auto count = std::max<std::size_t>(
        1, static_cast<std::size_t>(stats.elapsed_seconds / kOnlineWindowSeconds));
    const double width = stats.elapsed_seconds / static_cast<double>(count);
    for (std::size_t w = 0; w < count; ++w) {
      windows.push_back({static_cast<double>(w) * width,
                         static_cast<double>(w + 1) * width, {}, 0.0});
    }
    for (std::size_t i = 0; i < stats.latency_ms.size(); ++i) {
      const auto w = std::min(count - 1, static_cast<std::size_t>(stats.done_s[i] / width));
      windows[w].latency_ms.push_back(stats.latency_ms[i]);
    }
  }
  std::size_t quiet = 0;
  for (Window& window : windows) {
    window.steal_rate =
        steal.seconds(window.begin, window.end) / (window.end - window.begin);
    quiet += window.steal_rate <= rule.steal_limit ? 1 : 0;
  }
  std::stable_sort(windows.begin(), windows.end(), [](const Window& a, const Window& b) {
    return a.steal_rate < b.steal_rate;
  });
  Windowed result;
  result.windows = windows.size();
  result.selected = std::min(
      windows.size(),
      std::max(quiet, static_cast<std::size_t>(std::ceil(
                          rule.min_kept * static_cast<double>(windows.size())))));
  std::vector<double> pooled;
  double seconds = 0.0;
  for (std::size_t w = 0; w < result.selected; ++w) {
    const auto& latency = windows[w].latency_ms;
    pooled.insert(pooled.end(), latency.begin(), latency.end());
    seconds += windows[w].end - windows[w].begin;
  }
  result.qps = static_cast<double>(pooled.size()) * per_sample / seconds;
  result.p50_ms = percentile(pooled, 0.5);
  result.p95_ms = percentile(pooled, 0.95);
  result.p99_ms = percentile(pooled, 0.99);
  return result;
}

void note_traffic(const Options& options, const TrafficStats& stats, Report& report) {
  report.note("latency.samples", "count", static_cast<double>(stats.latency_ms.size()));
  report.note("queries.completed", "count",
              static_cast<double>(completed_queries(options, stats)));
  report.note("gen.late_ms_p99", "ms", percentile(stats.late_ms, 0.99));
  if (!stats.write_ms.empty()) {
    report.note("write_p50_ms", "ms", percentile(stats.write_ms, 0.5));
    report.note("write_p99_ms", "ms", percentile(stats.write_ms, 0.99));
    report.note("write.samples", "count", static_cast<double>(stats.write_ms.size()));
  }
}

/// Times `repeats` set-ups from scratch, each freeing the previous
/// stack first, and leaves the last one in `serving`.
void time_set_ups(const Options& options, const Inputs& inputs, int repeats,
                  Serving& serving, std::vector<double>& seconds) {
  for (int r = 0; r < repeats; ++r) {
    serving = Serving{};
    const Clock::time_point start = Clock::now();
    serving = set_up(options, inputs, nullptr);
    seconds.push_back(since(start));
  }
}

/// --trace 0: set-up repeated (median reported), half before and half
/// after the workload's traffic for --seconds with tracing off, so the
/// set-up figure samples the host at two moments of the run.
double measure_end_to_end(const Options& options, Inputs& inputs,
                          LogicalModel* model, Report& report) {
  const int repeats = options.workload == Workload::kBatchLarge ? 4 : 40;
  std::vector<double> setup_seconds;
  Serving serving;
  time_set_ups(options, inputs, repeats / 2, serving, setup_seconds);
  warm_up(options, inputs, serving);
  const double setup_rss_mb = peak_rss_mb();

  auto traffic = make_traffic(options, inputs, serving, model);
  StealSampler steal;
  const TrafficStats stats = traffic->run(options.seconds);
  steal.stop();
  if (serving.compactor) {
    settle(serving);
    report.note("persist.compactions", "count",
                static_cast<double>(serving.compactor->history().size()));
  }
  const auto engine_stats = serving.engine->stats();
  report.attempted = stats.queries + stats.writes;
  report.failed = stats.failed + engine_stats.rejections;
  report.mismatches = check_results(options, inputs, serving, model,
                                    traffic->observed(), report);

  const Windowed result = windowed(options, stats, steal);
  report.add("qps", "queries/s", result.qps);
  report.add("p50_ms", "ms", result.p50_ms);
  report.add("p95_ms", "ms", result.p95_ms);
  report.add("rss_mb", "MB", setup_rss_mb);
  report.note("p99_ms", "ms", result.p99_ms);
  report.note("run.peak_rss_mb", "MB", peak_rss_mb());
  note_traffic(options, stats, report);
  report.note("windows", "count", static_cast<double>(result.windows));
  report.note("windows.selected", "count", static_cast<double>(result.selected));
  report.note("steal_frac", "ratio",
              steal.seconds(0.0, stats.elapsed_seconds) / stats.elapsed_seconds /
                  std::thread::hardware_concurrency());
  report.note("run.qps", "queries/s",
              static_cast<double>(completed_queries(options, stats)) /
                  stats.elapsed_seconds);
  report.note("run.p50_ms", "ms", percentile(stats.latency_ms, 0.5));
  report.note("run.p99_ms", "ms", percentile(stats.latency_ms, 0.99));
  report.note("setup.repeats", "count", static_cast<double>(repeats));
  report.note("serve.peak_pending", "count", static_cast<double>(engine_stats.peak_pending));

  time_set_ups(options, inputs, repeats - repeats / 2, serving, setup_seconds);
  report.add("setup_s", "s", median(setup_seconds));
  serving = Serving{};
  inputs = Inputs{};
  return measure_read_gbps(std::thread::hardware_concurrency());
}

/// --trace 1: one set-up, the workload's traffic for half of --seconds
/// in four slices alternating the process tracer off and on, the
/// persist layer, then the layer replay for the other half.
double measure_layers(const Options& options, Inputs& inputs, LogicalModel* model,
                      Report& report, const std::filesystem::path& trace_path) {
  const double host_gbps = measure_read_gbps(std::thread::hardware_concurrency());
  double build_seconds = 0.0;
  Serving serving = set_up(options, inputs, &build_seconds);
  warm_up(options, inputs, serving);

  auto traffic = make_traffic(options, inputs, serving, model);
  auto& busy_gauge = topk::telemetry::registry().gauge("topk_pool_busy_workers");
  std::vector<double> busy;
  std::jthread sampler([&](std::stop_token stop) {
    while (!stop.stop_requested()) {
      busy.push_back(busy_gauge.value());
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  const double tasks_before = counter_value("topk_pool_tasks_total");
  TrafficStats off;
  TrafficStats on;
  const double slice = options.seconds / 2.0 / 4.0;
  for (int s = 0; s < 4; ++s) {
    const bool tracing = s % 2 == 1;
    if (tracing) {
      topk::telemetry::tracer().enable();
    } else {
      topk::telemetry::tracer().disable();
    }
    (tracing ? on : off).merge(traffic->run(slice));
  }
  topk::telemetry::tracer().disable();
  topk::telemetry::tracer().clear();
  sampler.request_stop();
  sampler.join();
  TrafficStats all = off;
  all.merge(on);
  const double tasks = counter_value("topk_pool_tasks_total") - tasks_before;
  const auto engine_stats = serving.engine->stats();
  report.attempted = all.queries + all.writes;
  report.failed = all.failed + engine_stats.rejections;

  report.add("index.build_s", "s", build_seconds);
  report.add("telemetry.trace_p50_delta_ms", "ms",
             percentile(on.latency_ms, 0.5) - percentile(off.latency_ms, 0.5));
  report.add("util.pool_tasks_per_q", "count",
             tasks / static_cast<double>(completed_queries(options, all)));
  double busy_sum = 0.0;
  for (const double b : busy) {
    busy_sum += b;
  }
  report.add("util.pool_busy_frac", "ratio",
             busy_sum / static_cast<double>(busy.size()) /
                 gauge_value("topk_pool_workers"));
  report.add("serve.service_ms_p50", "ms", engine_stats.latency.p50_ms);
  report.add("serve.peak_pending", "count", static_cast<double>(engine_stats.peak_pending));
  report.add("gen.late_ms_p99", "ms", percentile(all.late_ms, 0.99));
  note_traffic(options, all, report);

  if (serving.compactor) {
    report.add("shard.write_p50_ms", "ms", percentile(all.write_ms, 0.5));
    report.add("shard.write_p99_ms", "ms", percentile(all.write_ms, 0.99));
    settle(serving);
    report_compactions(serving.compactor->history(), report);
  } else {
    report_compactions(measure_compaction(options, inputs), report);
  }

  std::vector<Observed> observed = traffic->observed();
  replay_layers(options, inputs, serving, options.seconds / 2.0, host_gbps,
                trace_path, report, observed);
  report.add("host.read_gbps", "GB/s", host_gbps);
  report.mismatches =
      check_results(options, inputs, serving, model, std::move(observed), report);
  return host_gbps;
}

std::string number(double value) {
  if (!std::isfinite(value)) {
    throw std::runtime_error("a metric is not a finite number");
  }
  std::ostringstream out;
  out.precision(17);
  out << value;
  return out.str();
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
           number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

int run(const Options& options) {
  Report report;
  Inputs inputs = make_inputs(workload_rows(options), options.seed);
  std::optional<LogicalModel> model;
  if (options.workload == Workload::kOnlineMutating) {
    model.emplace(*inputs.matrix);
  }
  const std::string run_name =
      options.workload_name + "-seed" + std::to_string(options.seed);
  const std::string stem = run_name + (options.trace ? "-trace" : "");
  const double host_gbps =
      options.trace
          ? measure_layers(options, inputs, model ? &*model : nullptr, report,
                           options.out_dir / (run_name + ".trace.json"))
          : measure_end_to_end(options, inputs, model ? &*model : nullptr, report);
  std::filesystem::remove_all(deploy_root(options));

  report.failed += report.mismatches;
  const bool correct = report.failed == 0;
  report.note("fail_ratio", "ratio",
              static_cast<double>(report.failed) /
                  static_cast<double>(std::max<std::uint64_t>(report.attempted, 1)));
  const std::string metadata = metadata_json(options, host_gbps);
  const std::string counts = "\"correct\": " + std::string(correct ? "true" : "false") +
                             ", \"attempted\": " + std::to_string(report.attempted) +
                             ", \"failed\": " + std::to_string(report.failed);
  const std::filesystem::path record_path = options.out_dir / (stem + ".json");
  std::filesystem::create_directories(options.out_dir);
  std::ofstream record(record_path);
  record << "{\"metadata\": " << metadata << ", " << counts
         << ", \"mismatches\": " << report.mismatches
         << ", \"metrics\": " << metrics_json(report.metrics)
         << ", \"details\": " << metrics_json(report.details) << "}\n";

  std::cout << "perfbench metadata: " << metadata << "\n";
  std::cout << "perfbench record: " << record_path.string() << "\n";
  if (report.mismatches > 0) {
    std::cerr << "perfbench: " << report.mismatches
              << " result(s) differ from the oracle\n";
  }
  std::cout << "{" << counts << ", \"metrics\": " << metrics_json(report.metrics)
            << "}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return 2;
  }
}
