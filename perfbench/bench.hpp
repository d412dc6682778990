// Shared declarations of the repository benchmark (see README.md in
// this directory): workload constants, seeded inputs, the traffic
// generators, the traced layer replay, and the run report.
//
// The benchmark drives the library only through its public headers;
// it changes nothing under src/.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/topk_spmv.hpp"
#include "index/mutable_index.hpp"
#include "index/similarity_index.hpp"
#include "persist/compactor.hpp"
#include "serve/query_engine.hpp"
#include "shard/mutable_sharded_index.hpp"
#include "shard/sharded_index.hpp"
#include "sparse/csr.hpp"

namespace perfbench {

// ---- Workload constants (README.md "Workloads") -------------------------
inline constexpr std::uint32_t kCols = 512;
inline constexpr double kNnzPerRow = 24.0;
inline constexpr int kTopK = 50;
inline constexpr int kWorkers = 4;
inline constexpr int kShards = 4;
inline constexpr std::size_t kBatchSize = 64;
inline constexpr double kOnlineRate = 800.0;  // queries/s, Poisson
inline constexpr double kWriteRate = 200.0;   // mutations/s, even spacing
inline constexpr std::uint64_t kCompactThreshold = 1000;
inline constexpr std::size_t kQueryPool = 512;
inline constexpr double kQueryNoise = 0.1;
/// Rows of the mutable index whose compaction the traced run times on
/// workloads that serve no mutable tier (a full compaction of the
/// 4M-row base would hold ~5.6 GB at its peak).
inline constexpr std::uint32_t kCompactionRows = 40'000;

enum class Workload { kBatchLarge, kOnlineSmall, kOnlineMutating };

struct Options {
  Workload workload = Workload::kOnlineSmall;
  std::string workload_name = "online-small";
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-check scale: the same code paths over a few thousand rows.
  bool tiny = false;
  /// Self-check of the oracle: corrupt one observed result before the
  /// comparison, which must then fail.
  bool corrupt = false;
  std::filesystem::path out_dir = ".bench_build/perfbench/out";
  std::string revision = "unknown";
};

/// Base-matrix rows of a workload at the chosen scale.
[[nodiscard]] std::uint32_t workload_rows(const Options& options);

// ---- Report ---------------------------------------------------------------
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct Report {
  /// The metrics of the result object (end-to-end untraced, per-layer traced).
  std::vector<Metric> metrics;
  /// Side-record only: sample counts, fail ratio, run details.
  std::vector<Metric> details;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatches = 0;

  void add(std::string name, std::string unit, double value) {
    metrics.push_back({std::move(name), std::move(unit), value});
  }
  void note(std::string name, std::string unit, double value) {
    details.push_back({std::move(name), std::move(unit), value});
  }
};

// ---- Seeded inputs (inputs.cpp) -------------------------------------------
struct Row {
  std::vector<std::uint32_t> columns;
  std::vector<float> values;
};

struct Mutation {
  enum class Kind { kAppend, kUpsert, kDelete };
  Kind kind = Kind::kAppend;
  std::uint32_t id = 0;  ///< target id (upsert/delete) or expected append id
  Row row;               ///< append/upsert payload
};

struct Inputs {
  std::shared_ptr<const topk::sparse::Csr> matrix;
  std::vector<std::vector<float>> queries;  ///< the query pool
  std::vector<std::uint32_t> stream;        ///< pool indices in query order
};

/// Matrix and query stream for `rows` base rows from `seed`.
[[nodiscard]] Inputs make_inputs(std::uint32_t rows, std::uint64_t seed);

/// `count` mutations over a base of `base_rows` rows: 60% appends, 20%
/// upserts of a live id, 20% deletes of a live id, all drawn from
/// `seed`.  The script simulates its own live set, so every upsert and
/// delete targets an id that is live when it applies.
[[nodiscard]] std::vector<Mutation> make_mutations(std::uint32_t base_rows,
                                                   std::size_t count,
                                                   std::uint64_t seed);

/// Applies one scripted mutation.  Throws when an append lands on an
/// id other than the scripted one.
void apply(topk::index::MutableIndex& index, const Mutation& mutation);

/// Mirror of the logical matrix for the exact-sort oracle.
class LogicalModel {
 public:
  explicit LogicalModel(const topk::sparse::Csr& base);
  void apply(const Mutation& mutation);
  /// The live rows in ascending id order, and row -> global id.
  [[nodiscard]] std::pair<topk::sparse::Csr, std::vector<std::uint32_t>>
  live_matrix() const;

 private:
  std::uint32_t cols_;
  std::vector<std::optional<Row>> rows_;
};

// ---- Results check --------------------------------------------------------
/// One result the traffic kept for the oracle.
struct Observed {
  std::uint32_t query = 0;  ///< pool index
  std::vector<topk::core::TopKEntry> entries;
};

/// Counts the observed results that differ from `reference` (after
/// mapping the reference's row ids through `remap` when non-empty).
/// With `corrupt`, the first observed result is altered first.
[[nodiscard]] std::uint64_t count_mismatches(
    const topk::index::SimilarityIndex& reference,
    const std::vector<std::vector<float>>& queries,
    std::vector<Observed> observed, const std::vector<std::uint32_t>& remap,
    bool corrupt);

// ---- Serving stack and traffic (traffic.cpp) ------------------------------
struct Serving {
  std::shared_ptr<topk::index::SimilarityIndex> index;
  std::unique_ptr<topk::serve::QueryEngine> engine;
  /// online-mutating only.
  std::shared_ptr<topk::shard::MutableShardedIndex> mutable_index;
  std::unique_ptr<topk::persist::Compactor> compactor;

  /// The sealed scatter-gather tier that serves (the mutable tier's
  /// current base on online-mutating).
  [[nodiscard]] std::shared_ptr<const topk::shard::ShardedIndex> sealed() const;
};

/// Registry backend and options of a workload.
[[nodiscard]] std::string backend_name(Workload workload);
[[nodiscard]] topk::index::IndexOptions backend_options(Workload workload);

/// make_index plus engine construction.  `build_seconds` receives the
/// time inside make_index alone.
[[nodiscard]] Serving set_up(const Options& options, const Inputs& inputs,
                             double* build_seconds);

struct TrafficStats {
  std::vector<double> latency_ms;  ///< per query (per call on batch-large)
  /// Completion time of each latency sample, seconds into the run.
  std::vector<double> done_s;
  std::vector<double> write_ms;
  std::vector<double> late_ms;     ///< generator lateness
  std::uint64_t queries = 0;
  std::uint64_t writes = 0;
  std::uint64_t failed = 0;
  double elapsed_seconds = 0.0;

  void merge(const TrafficStats& other);
};

/// A workload's traffic.  run() may be called repeatedly (the traced
/// run alternates tracing modes between slices); the query stream,
/// arrival draws and mutation script continue where they stopped.
class Traffic {
 public:
  Traffic() = default;
  virtual ~Traffic() = default;
  Traffic(const Traffic&) = delete;
  Traffic& operator=(const Traffic&) = delete;
  Traffic(Traffic&&) = delete;
  Traffic& operator=(Traffic&&) = delete;
  virtual TrafficStats run(double seconds) = 0;
  /// Results kept for the oracle.
  [[nodiscard]] const std::vector<Observed>& observed() const {
    return observed_;
  }

 protected:
  std::vector<Observed> observed_;
};

[[nodiscard]] std::unique_ptr<Traffic> make_traffic(const Options& options,
                                                    const Inputs& inputs,
                                                    Serving& serving,
                                                    LogicalModel* model);

/// Deployment root for compactions, inside the output directory.
[[nodiscard]] std::filesystem::path deploy_root(const Options& options);

// ---- Traced layer replay (layers.cpp) -------------------------------------
/// Replays the workload's queries through every layer for about
/// `seconds` (call order in layers.cpp), recording one span per timed
/// call into a benchmark-owned recorder.  Appends the per-layer metrics, writes
/// the spans to `trace_path` (Chrome trace-event JSON) and keeps the
/// exact-path results for the oracle in `observed`.
void replay_layers(const Options& options, const Inputs& inputs,
                   const Serving& serving, double seconds,
                   double host_read_gbps,
                   const std::filesystem::path& trace_path, Report& report,
                   std::vector<Observed>& observed);

/// Times one compaction of a mutable-sharded-cpu-simd index over the
/// first kCompactionRows rows of the workload matrix after the seeded
/// overlay script, for workloads that serve no mutable tier.
[[nodiscard]] std::vector<topk::persist::CompactionReport> measure_compaction(
    const Options& options, const Inputs& inputs);

/// Appends the persist.* metrics of the given compactions.
void report_compactions(
    const std::vector<topk::persist::CompactionReport>& compactions,
    Report& report);

/// Current value of a registry counter or gauge family without labels.
[[nodiscard]] double counter_value(const std::string& name);
[[nodiscard]] double gauge_value(const std::string& name);

// ---- Host (host.cpp) -------------------------------------------------------
/// Median multi-threaded read bandwidth over an array of 4x the last
/// level cache, in GB/s.
[[nodiscard]] double measure_read_gbps(std::uint32_t threads);
/// Peak resident set of the process so far, in MB.
[[nodiscard]] double peak_rss_mb();
/// The VM's CPU steal (time the hypervisor gave this guest's vCPUs to
/// other guests), sampled from /proc/stat every 20 ms from construction
/// until stop().  All zero where /proc/stat has no steal column.
class StealSampler {
 public:
  StealSampler();
  StealSampler(const StealSampler&) = delete;
  StealSampler& operator=(const StealSampler&) = delete;
  StealSampler(StealSampler&&) = delete;
  StealSampler& operator=(StealSampler&&) = delete;

  void stop();
  /// Steal in CPU-seconds between `from` and `to`, in seconds since
  /// construction.  Valid after stop().
  [[nodiscard]] double seconds(double from, double to) const;

 private:
  [[nodiscard]] double cumulative(double at) const;

  std::chrono::steady_clock::time_point start_;
  std::vector<std::pair<double, double>> samples_;  ///< (seconds, steal)
  std::jthread thread_;  ///< last: it reads the members above
};

/// JSON object with the run's metadata stamp.
[[nodiscard]] std::string metadata_json(const Options& options,
                                        double host_read_gbps);

// ---- Small helpers ----------------------------------------------------------
[[nodiscard]] double median(std::vector<double> values);
[[nodiscard]] double percentile(std::vector<double> values, double q);

}  // namespace perfbench
