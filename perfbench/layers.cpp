// The traced layer replay.  Each sampled query runs through every
// layer's public entry point, innermost first, one call after another
// on the calling thread:
//
//   simd.kernel     simd::topk_spmv_exact on each shard's layout, threads=1
//   index.adapter   CpuSimdIndex::query on each shard, threads=1
//   index.flat_t1   a flat cpu-simd index over the same matrix, threads=1
//   shard.query_t1  the sealed ShardedIndex, threads=1
//   shard.query_t4  the sealed ShardedIndex, threads=4
//   shard.delta_t4  a MutableShardedIndex over that sealed base carrying
//                   the seeded overlay script, threads=4
//   shard.served_t4 the mutable index the engine serves (online-mutating)
//   serve.query     QueryEngine::query
//   serve.submit    QueryEngine::submit().get()
//
// Each query runs the calls in that order and then in reverse, so a
// core that ramps up after the previous query's wait favours no layer;
// every call is made twice and only the second is timed, so each layer
// runs with its own data in cache.  A timed call is one span (trace id
// = replayed query ordinal, logical parent in its "parent" argument) in
// a recorder the benchmark owns, so the process-wide tracer stays off.
// A layer's self time is its mean span minus the mean span of the layer
// below on the same query.
#include <algorithm>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <numeric>
#include <stdexcept>

#include "bench.hpp"
#include "index/backends.hpp"
#include "index/registry.hpp"
#include "simd/topk_simd.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace perfbench {

namespace shard = topk::shard;

namespace {

/// Replayed queries: at least kMinReplay even when one query outlasts
/// the time budget (batch-large), at most kMaxReplay.
constexpr std::size_t kMinReplay = 4;
constexpr std::size_t kMaxReplay = 512;

shard::RebuildRecipe overlay_recipe(Workload workload) {
  shard::RebuildRecipe recipe;
  recipe.shards = kShards;
  recipe.policy = shard::ShardPolicy::kNnzBalanced;
  recipe.inner_backend = "cpu-simd";
  recipe.inner_options = backend_options(workload);
  recipe.label = "sharded-cpu-simd";
  return recipe;
}

/// Span durations of one replayed query, by span name (a name recorded
/// once per shard keeps every duration).
using QuerySpans = std::map<std::string, std::vector<double>>;

double total(const QuerySpans& spans, const std::string& name) {
  const auto it = spans.find(name);
  if (it == spans.end()) {
    throw std::runtime_error("replay recorded no span '" + name + "'");
  }
  return std::accumulate(it->second.begin(), it->second.end(), 0.0);
}

/// The seeded mutations the delta overlay and the side compaction carry.
std::vector<Mutation> overlay_script(const Options& options,
                                     std::uint32_t base_rows) {
  return make_mutations(base_rows, kCompactThreshold, options.seed ^ 0x5EEDULL);
}

double mean(const std::vector<double>& values) {
  return values.empty() ? 0.0
                        : std::accumulate(values.begin(), values.end(), 0.0) /
                              static_cast<double>(values.size());
}

}  // namespace

double counter_value(const std::string& name) {
  return static_cast<double>(topk::telemetry::registry().counter(name).value());
}

double gauge_value(const std::string& name) {
  return topk::telemetry::registry().gauge(name).value();
}

void replay_layers(const Options& options, const Inputs& inputs,
                   const Serving& serving, double seconds,
                   double host_read_gbps,
                   const std::filesystem::path& trace_path, Report& report,
                   std::vector<Observed>& observed) {
  using topk::telemetry::now_seconds;
  const bool mutating = serving.mutable_index != nullptr;
  const auto base = serving.sealed();
  const auto base_matrix =
      mutating ? serving.mutable_index->base_matrix() : inputs.matrix;

  std::vector<const topk::index::CpuSimdIndex*> cells;
  std::uint64_t layout_bytes = 0;
  for (std::size_t s = 0; s < base->shard_count(); ++s) {
    const auto* cell =
        dynamic_cast<const topk::index::CpuSimdIndex*>(&base->shard(s).primary());
    if (cell == nullptr) {
      throw std::runtime_error("shard " + std::to_string(s) + " is not cpu-simd");
    }
    cells.push_back(cell);
    layout_bytes += cell->layout().extra_bytes();
  }
  const auto flat = topk::index::make_index("cpu-simd", base_matrix);

  // The delta overlay over the sealed base that serves, with the
  // seeded script applied; on workloads without writes its calls are
  // also the write-latency sample.
  shard::MutableConfig overlay_config;
  overlay_config.label = "mutable-sharded-cpu-simd";
  auto overlay = std::make_shared<shard::MutableShardedIndex>(
      base, base_matrix, overlay_recipe(options.workload), overlay_config);
  std::vector<double> write_ms;
  for (const Mutation& mutation : overlay_script(options, base->rows())) {
    const double start = now_seconds();
    apply(*overlay, mutation);
    write_ms.push_back((now_seconds() - start) * 1e3);
  }
  if (!mutating) {
    report.add("shard.write_p50_ms", "ms", percentile(write_ms, 0.5));
    report.add("shard.write_p99_ms", "ms", percentile(write_ms, 0.99));
  }

  topk::index::QueryOptions one;
  one.threads = 1;
  topk::index::QueryOptions four;
  four.threads = kWorkers;
  topk::simd::SimdQueryOptions kernel_options;
  kernel_options.threads = 1;

  // One step per layer call (see the header comment for the order).
  struct Step {
    const char* name;
    const char* category;
    const char* parent;
    int shard;  ///< -1 for whole-index calls
    std::function<void()> call;
  };
  constexpr double kTimedCalls = 2.0;  // per step and query
  // Kernel counters the adapter exports, read around engine queries.
  auto& screened_counter =
      topk::telemetry::registry().counter("topk_simd_rows_screened_total");
  auto& rescored_counter =
      topk::telemetry::registry().counter("topk_simd_rows_rescored_total");
  topk::telemetry::TraceRecorder recorder;
  recorder.enable(kMaxReplay * 64);

  std::vector<double> screened;
  std::vector<double> rescored;
  std::vector<double> kernel_rescored;
  std::vector<double> gathered;
  std::vector<double> masked;
  std::vector<double> delta_scanned;
  std::map<std::uint64_t, double> slowest_cell_s;  // by trace id
  const double replay_start = now_seconds();
  std::size_t replayed = 0;
  while (replayed < kMaxReplay &&
         (replayed < kMinReplay || now_seconds() - replay_start < seconds)) {
    const std::uint64_t trace_id = replayed + 1;
    const std::uint32_t q =
        inputs.stream[(inputs.stream.size() - 1 - replayed) % inputs.stream.size()];
    const std::vector<float>& x = inputs.queries[q];
    ++replayed;
    ++report.attempted;

    std::vector<topk::simd::SimdKernelStats> kernel_stats(cells.size());
    topk::index::QueryResult flat_result, t1, t4, with_delta, engine_result, submitted;
    double slowest_sum = 0.0;
    std::uint64_t engine_screened = 0;
    std::uint64_t engine_rescored = 0;
    std::vector<Step> steps;
    for (std::size_t s = 0; s < cells.size(); ++s) {
      steps.push_back({"simd.kernel", "simd", "index.adapter", static_cast<int>(s), [&, s] {
                         (void)topk::simd::topk_spmv_exact(cells[s]->layout(), x, kTopK,
                                                           kernel_options, &kernel_stats[s]);
                       }});
    }
    for (std::size_t s = 0; s < cells.size(); ++s) {
      steps.push_back({"index.adapter", "index", "shard.query_t1", static_cast<int>(s),
                       [&, s] { (void)cells[s]->query(x, kTopK, one); }});
    }
    steps.push_back({"index.flat_t1", "index", "shard.query_t1", -1,
                     [&] { flat_result = flat->query(x, kTopK, one); }});
    steps.push_back({"shard.query_t1", "shard", "shard.query_t4", -1,
                     [&] { t1 = base->query(x, kTopK, one); }});
    steps.push_back({"shard.query_t4", "shard", "shard.delta_t4", -1, [&] {
                       t4 = base->query(x, kTopK, four);
                       slowest_sum += topk::index::shard_stats(t4)->slowest_seconds;
                     }});
    steps.push_back({"shard.delta_t4", "shard", "serve.query", -1,
                     [&] { with_delta = overlay->query(x, kTopK, four); }});
    if (mutating) {
      steps.push_back({"shard.served_t4", "shard", "serve.query", -1,
                       [&] { (void)serving.index->query(x, kTopK, four); }});
    }
    steps.push_back({"serve.query", "serve", "serve.submit", -1, [&] {
                       const std::uint64_t screened_before = screened_counter.value();
                       const std::uint64_t rescored_before = rescored_counter.value();
                       engine_result = serving.engine->query(x, kTopK);
                       engine_screened += screened_counter.value() - screened_before;
                       engine_rescored += rescored_counter.value() - rescored_before;
                     }});
    steps.push_back({"serve.submit", "serve", "", -1, [&] {
                       submitted = serving.engine->submit(x, kTopK).get();
                     }});

    const auto run_step = [&](const Step& step) {
      step.call();
      const double start = now_seconds();
      step.call();
      topk::telemetry::TraceSpan record;
      record.name = step.name;
      record.category = step.category;
      record.trace_id = trace_id;
      record.thread_id = topk::telemetry::current_thread_ordinal();
      record.start_seconds = start;
      record.duration_seconds = now_seconds() - start;
      record.args.push_back(topk::telemetry::arg("parent", std::string(step.parent)));
      if (step.shard >= 0) {
        record.args.push_back(topk::telemetry::arg("shard", step.shard));
      }
      recorder.record(std::move(record));
    };
    try {
      for (const Step& step : steps) {
        run_step(step);
      }
      for (auto it = steps.rbegin(); it != steps.rend(); ++it) {
        run_step(*it);
      }
      // Every step ran 2 x kTimedCalls times (two passes).
      screened.push_back(static_cast<double>(engine_screened) / (2 * kTimedCalls));
      rescored.push_back(static_cast<double>(engine_rescored) / (2 * kTimedCalls));
      double rescored_rows = 0.0;
      for (const auto& stats : kernel_stats) {
        rescored_rows += static_cast<double>(stats.rows_rescored);
      }
      kernel_rescored.push_back(rescored_rows);
      slowest_cell_s[trace_id] = slowest_sum / (2 * kTimedCalls);
      gathered.push_back(
          static_cast<double>(topk::index::shard_stats(t4)->gathered_candidates));
      const auto* tier = topk::index::mutable_stats(with_delta);
      masked.push_back(static_cast<double>(tier->masked_rows));
      delta_scanned.push_back(static_cast<double>(tier->delta_scanned));
      observed.push_back({q, std::move(engine_result.entries)});
      observed.push_back({q, std::move(submitted.entries)});
      if (!mutating) {
        // The sealed tier alone is the served result only when no
        // tombstone masks it.
        observed.push_back({q, std::move(flat_result.entries)});
        observed.push_back({q, std::move(t1.entries)});
        observed.push_back({q, std::move(t4.entries)});
      }
    } catch (const std::exception& error) {
      std::cerr << "perfbench: replayed query failed: " << error.what() << "\n";
      ++report.failed;
    }
  }

  // Self times from the recorded spans, grouped by query: each layer's
  // time is the mean of its timed calls (both passes).
  std::map<std::uint64_t, QuerySpans> by_query;
  std::map<std::uint64_t, std::map<std::int64_t, double>> adapter_by_shard;
  for (const auto& record : recorder.snapshot()) {
    by_query[record.trace_id][record.name].push_back(record.duration_seconds /
                                                     kTimedCalls);
    if (record.name == "index.adapter") {
      for (const auto& a : record.args) {
        if (a.key == "shard") {
          adapter_by_shard[record.trace_id][std::stoll(a.value)] +=
              record.duration_seconds / kTimedCalls;
        }
      }
    }
  }
  std::vector<double> kernel_s, adapter_s, tax_s, scatter_s, imbalance, delta_s,
      engine_s, hop_s;
  for (const auto& [trace_id, spans] : by_query) {
    if (!slowest_cell_s.count(trace_id)) {
      continue;  // a query that failed part-way
    }
    const double kernel = total(spans, "simd.kernel");
    const double adapter = total(spans, "index.adapter");
    const double t4 = total(spans, "shard.query_t4");
    const double served = mutating ? total(spans, "shard.served_t4") : t4;
    std::vector<double> cells_s;
    for (const auto& [shard_id, seconds_in_shard] : adapter_by_shard[trace_id]) {
      cells_s.push_back(seconds_in_shard);
    }
    kernel_s.push_back(kernel);
    adapter_s.push_back(adapter - kernel);
    tax_s.push_back(total(spans, "shard.query_t1") - total(spans, "index.flat_t1"));
    scatter_s.push_back(t4 - slowest_cell_s.at(trace_id));
    imbalance.push_back(*std::max_element(cells_s.begin(), cells_s.end()) /
                        mean(cells_s));
    delta_s.push_back(total(spans, "shard.delta_t4") - t4);
    engine_s.push_back(total(spans, "serve.query") - served);
    hop_s.push_back(total(spans, "serve.submit") - total(spans, "serve.query"));
  }
  if (kernel_s.empty()) {
    throw std::runtime_error("no replayed query completed");
  }

  const double kernel_p50 = median(kernel_s);
  const double rescored_per_q = mean(rescored);
  const double row_bytes =
      static_cast<double>(base_matrix->nnz()) / base_matrix->rows() * 8.0 + 8.0;
  const double bytes_per_q =
      static_cast<double>(layout_bytes) + mean(kernel_rescored) * row_bytes;
  const double gbps = bytes_per_q / kernel_p50 / 1e9;
  report.add("simd.kernel_ms", "ms", kernel_p50 * 1e3);
  report.add("simd.rows_screened_per_q", "rows", mean(screened));
  report.add("simd.rows_rescored_per_q", "rows", rescored_per_q);
  report.add("simd.rescore_yield", "ratio", kTopK / rescored_per_q);
  report.add("simd.bytes_per_q", "bytes", bytes_per_q);
  report.add("simd.gbps", "GB/s", gbps);
  report.add("simd.roofline_frac", "ratio", gbps / host_read_gbps);
  report.add("index.adapter_us", "us", median(adapter_s) * 1e6);
  report.add("shard.tax_ms", "ms", median(tax_s) * 1e3);
  report.add("shard.scatter_ms", "ms", median(scatter_s) * 1e3);
  report.add("shard.imbalance", "ratio", median(imbalance));
  report.add("shard.gathered_per_q", "count", mean(gathered));
  report.add("shard.delta_ms", "ms", median(delta_s) * 1e3);
  report.add("shard.masked_per_q", "count", mean(masked));
  report.add("shard.delta_scanned_per_q", "count", mean(delta_scanned));
  report.add("serve.engine_us", "us", median(engine_s) * 1e6);
  report.add("serve.hop_ms", "ms", median(hop_s) * 1e3);
  report.note("replay.queries", "count", static_cast<double>(kernel_s.size()));
  report.note("replay.spans_dropped", "count", static_cast<double>(recorder.dropped()));

  std::filesystem::create_directories(trace_path.parent_path());
  std::ofstream out(trace_path);
  recorder.write_chrome_trace(out);
  if (!out) {
    throw std::runtime_error("cannot write " + trace_path.string());
  }
}

std::vector<topk::persist::CompactionReport> measure_compaction(
    const Options& options, const Inputs& inputs) {
  const topk::sparse::Csr& full = *inputs.matrix;
  auto matrix = inputs.matrix;
  if (full.rows() > kCompactionRows) {
    const std::uint64_t nnz = full.row_ptr()[kCompactionRows];
    std::vector<std::uint64_t> row_ptr(full.row_ptr().begin(),
                                       full.row_ptr().begin() + kCompactionRows + 1);
    std::vector<std::uint32_t> col_idx(full.col_idx().begin(),
                                       full.col_idx().begin() + nnz);
    std::vector<float> values(full.values().begin(), full.values().begin() + nnz);
    matrix = std::make_shared<const topk::sparse::Csr>(topk::sparse::Csr::from_parts(
        kCompactionRows, full.cols(), std::move(row_ptr), std::move(col_idx),
        std::move(values)));
  }
  auto index = std::dynamic_pointer_cast<shard::MutableShardedIndex>(
      topk::index::make_index("mutable-sharded-cpu-simd", matrix,
                              backend_options(Workload::kOnlineMutating)));
  for (const Mutation& mutation : overlay_script(options, matrix->rows())) {
    apply(*index, mutation);
  }
  topk::persist::Compactor compactor(index, deploy_root(options) / "persist");
  (void)compactor.compact();
  return compactor.history();
}

void report_compactions(
    const std::vector<topk::persist::CompactionReport>& compactions,
    Report& report) {
  if (compactions.empty()) {
    throw std::runtime_error("no compaction ran");
  }
  std::vector<double> fold, build, save, load, swap;
  for (const auto& c : compactions) {
    fold.push_back(c.fold_seconds);
    build.push_back(c.build_seconds);
    save.push_back(c.save_seconds);
    load.push_back(c.load_seconds);
    swap.push_back(c.swap_seconds);
  }
  report.add("persist.compactions", "count", static_cast<double>(compactions.size()));
  report.add("persist.fold_s", "s", median(fold));
  report.add("persist.build_s", "s", median(build));
  report.add("persist.save_s", "s", median(save));
  report.add("persist.load_s", "s", median(load));
  report.add("persist.swap_ms_max", "ms",
             *std::max_element(swap.begin(), swap.end()) * 1e3);
}

}  // namespace perfbench
