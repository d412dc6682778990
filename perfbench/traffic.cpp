// The serving stack of each workload and the traffic that drives it:
//
//   batch-large      one caller, closed loop of 64-query
//                    QueryEngine::query_batch calls;
//   online-small     seeded Poisson arrivals through QueryEngine::submit
//                    from one spinning thread (the calling thread) that
//                    also notes each completion, latency timed from each
//                    query's due time;
//   online-mutating  one closed-loop submit() client spinning on each
//                    future, one thread
//                    polling Compactor::maybe_compact(), and an
//                    open-loop writer (the calling thread) replaying
//                    the seeded mutation script at a fixed rate.
#include <atomic>
#include <chrono>
#include <cmath>
#include <exception>
#include <future>
#include <iostream>
#include <thread>
#include <unistd.h>

#include "bench.hpp"
#include "index/registry.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

Clock::time_point at(Clock::time_point start, double seconds) {
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(seconds));
}

/// Cycles through the seeded query stream.
class StreamCursor {
 public:
  explicit StreamCursor(const Inputs& inputs) : inputs_(inputs) {}
  std::uint32_t next() {
    const std::uint32_t q = inputs_.stream[position_ % inputs_.stream.size()];
    ++position_;
    return q;
  }

 private:
  const Inputs& inputs_;
  std::size_t position_ = 0;
};

class BatchTraffic final : public Traffic {
 public:
  BatchTraffic(const Inputs& inputs, Serving& serving)
      : inputs_(inputs), engine_(*serving.engine), cursor_(inputs) {}

  TrafficStats run(double seconds) override {
    TrafficStats stats;
    std::vector<std::vector<float>> batch(kBatchSize);
    std::vector<std::uint32_t> ids(kBatchSize);
    const Clock::time_point start = Clock::now();
    double previous_end = 0.0;
    while (since(start) < seconds) {
      for (std::size_t i = 0; i < kBatchSize; ++i) {
        ids[i] = cursor_.next();
        batch[i] = inputs_.queries[ids[i]];
      }
      const double issued = since(start);
      stats.late_ms.push_back((issued - previous_end) * 1e3);
      try {
        auto results = engine_.query_batch(batch, kTopK);
        const double done = since(start);
        stats.latency_ms.push_back((done - issued) * 1e3);
        stats.done_s.push_back(done);
        // A seeded sample of the pool (1 in 32 queries) goes to the
        // cpu-heap oracle; each check costs a full 4M-row scan.
        for (std::size_t i = 0; i < kBatchSize; ++i) {
          if (ids[i] % 32 == 0) {
            observed_.push_back({ids[i], std::move(results[i].entries)});
          }
        }
      } catch (const std::exception& error) {
        std::cerr << "perfbench: query_batch failed: " << error.what() << "\n";
        stats.failed += kBatchSize;
      }
      stats.queries += kBatchSize;
      previous_end = since(start);
    }
    stats.elapsed_seconds = since(start);
    return stats;
  }

 private:
  const Inputs& inputs_;
  topk::serve::QueryEngine& engine_;
  StreamCursor cursor_;
};

class OpenLoopTraffic final : public Traffic {
 public:
  OpenLoopTraffic(const Inputs& inputs, Serving& serving, std::uint64_t seed)
      : inputs_(inputs), engine_(*serving.engine), cursor_(inputs),
        arrivals_(seed ^ 0xA55A5AA5ULL) {}

  /// One thread submits each query at its due time and notes each
  /// completion as it happens.  It spins between events instead of
  /// sleeping, so neither the arrival times nor the completion times
  /// carry a wake-up of the load generator: the latency is the
  /// engine's alone, timed from when the query was due.
  TrafficStats run(double seconds) override {
    struct Pending {
      std::uint32_t query = 0;
      double due = 0.0;
      std::future<topk::index::QueryResult> result;
    };
    std::vector<Pending> pending;
    TrafficStats stats;
    const Clock::time_point start = Clock::now();
    double due = 0.0;
    while (due < seconds || !pending.empty()) {
      const double now = since(start);
      for (std::size_t i = 0; i < pending.size();) {
        if (pending[i].result.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          ++i;
          continue;
        }
        try {
          auto result = pending[i].result.get();
          stats.latency_ms.push_back((now - pending[i].due) * 1e3);
          stats.done_s.push_back(now);
          observed_.push_back({pending[i].query, std::move(result.entries)});
        } catch (const std::exception& error) {
          std::cerr << "perfbench: query failed: " << error.what() << "\n";
          ++stats.failed;
        }
        pending[i] = std::move(pending.back());
        pending.pop_back();
      }
      if (due >= seconds || now < due) {
        continue;
      }
      stats.late_ms.push_back((now - due) * 1e3);
      const std::uint32_t q = cursor_.next();
      ++stats.queries;
      try {
        pending.push_back({q, due, engine_.submit(inputs_.queries[q], kTopK)});
      } catch (const std::exception& error) {
        std::cerr << "perfbench: submit failed: " << error.what() << "\n";
        ++stats.failed;
      }
      due += -std::log(1.0 - arrivals_.uniform()) / kOnlineRate;
    }
    stats.elapsed_seconds = since(start);
    return stats;
  }

 private:
  const Inputs& inputs_;
  topk::serve::QueryEngine& engine_;
  StreamCursor cursor_;
  topk::util::Xoshiro256 arrivals_;
};

class MutatingTraffic final : public Traffic {
 public:
  MutatingTraffic(const Options& options, const Inputs& inputs,
                  Serving& serving, LogicalModel* model)
      : inputs_(inputs), serving_(serving), model_(model), cursor_(inputs),
        script_(make_mutations(
            inputs.matrix->rows(),
            static_cast<std::size_t>(std::ceil(options.seconds * kWriteRate)) + 64,
            options.seed)) {}

  TrafficStats run(double seconds) override {
    TrafficStats stats;
    std::vector<double> query_ms;
    std::vector<double> query_done_s;
    std::uint64_t queries = 0;
    std::uint64_t query_failures = 0;
    std::atomic<std::uint64_t> compaction_failures{0};

    const Clock::time_point start = Clock::now();
    // jthreads: stopped and joined on every path out of run().
    std::jthread client([&](std::stop_token stop) {
      while (!stop.stop_requested()) {
        const std::uint32_t q = cursor_.next();
        const double issued = since(start);
        try {
          // Spins on the future rather than blocking in get(), so the
          // latency carries no wake-up of the client thread.
          auto result = serving_.engine->submit(inputs_.queries[q], kTopK);
          while (result.wait_for(std::chrono::seconds(0)) !=
                 std::future_status::ready) {
          }
          (void)result.get();
          const double done = since(start);
          query_ms.push_back((done - issued) * 1e3);
          query_done_s.push_back(done);
        } catch (const std::exception& error) {
          std::cerr << "perfbench: query failed: " << error.what() << "\n";
          ++query_failures;
        }
        ++queries;
      }
    });
    std::jthread folder([&](std::stop_token stop) {
      while (!stop.stop_requested()) {
        try {
          (void)serving_.compactor->maybe_compact();
        } catch (const std::exception& error) {
          std::cerr << "perfbench: compaction failed: " << error.what() << "\n";
          compaction_failures.fetch_add(1, std::memory_order_relaxed);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });

    double due = 0.0;
    while (due < seconds && next_write_ < script_.size()) {
      std::this_thread::sleep_until(at(start, due));
      const double issued = since(start);
      stats.late_ms.push_back((issued - due) * 1e3);
      const Mutation& mutation = script_[next_write_++];
      try {
        apply(*serving_.mutable_index, mutation);
        stats.write_ms.push_back((since(start) - issued) * 1e3);
        model_->apply(mutation);
      } catch (const std::exception& error) {
        std::cerr << "perfbench: mutation failed: " << error.what() << "\n";
        ++stats.failed;
      }
      ++stats.writes;
      due += 1.0 / kWriteRate;
    }
    client.request_stop();
    folder.request_stop();
    client.join();
    folder.join();
    stats.elapsed_seconds = since(start);
    stats.latency_ms = std::move(query_ms);
    stats.done_s = std::move(query_done_s);
    stats.queries = queries;
    stats.failed += query_failures + compaction_failures.load();
    return stats;
  }

 private:
  const Inputs& inputs_;
  Serving& serving_;
  LogicalModel* model_;
  StreamCursor cursor_;
  std::vector<Mutation> script_;
  std::size_t next_write_ = 0;
};

}  // namespace

std::shared_ptr<const topk::shard::ShardedIndex> Serving::sealed() const {
  if (mutable_index) {
    return mutable_index->base();
  }
  auto sharded = std::dynamic_pointer_cast<const topk::shard::ShardedIndex>(index);
  if (!sharded) {
    throw std::runtime_error("served index is not a sharded index");
  }
  return sharded;
}

std::string backend_name(Workload workload) {
  return workload == Workload::kOnlineMutating ? "mutable-sharded-cpu-simd"
                                               : "sharded-cpu-simd";
}

topk::index::IndexOptions backend_options(Workload workload) {
  topk::index::IndexOptions options;
  options.shards = kShards;
  options.nnz_balanced_shards = true;
  if (workload == Workload::kOnlineMutating) {
    options.compact_threshold = kCompactThreshold;
  }
  return options;
}

std::filesystem::path deploy_root(const Options& options) {
  return options.out_dir / ("deploy-" + options.workload_name + "-" +
                            std::to_string(options.seed) + "-" +
                            std::to_string(::getpid()));
}

Serving set_up(const Options& options, const Inputs& inputs,
               double* build_seconds) {
  Serving serving;
  const Clock::time_point start = Clock::now();
  serving.index = topk::index::make_index(backend_name(options.workload),
                                          inputs.matrix,
                                          backend_options(options.workload));
  if (build_seconds != nullptr) {
    *build_seconds = since(start);
  }
  topk::serve::EngineConfig config;
  config.workers = kWorkers;
  serving.engine = std::make_unique<topk::serve::QueryEngine>(
      std::shared_ptr<const topk::index::SimilarityIndex>(serving.index), config);
  if (options.workload == Workload::kOnlineMutating) {
    serving.mutable_index =
        std::dynamic_pointer_cast<topk::shard::MutableShardedIndex>(serving.index);
    serving.compactor = std::make_unique<topk::persist::Compactor>(
        serving.mutable_index, deploy_root(options));
  }
  return serving;
}

void TrafficStats::merge(const TrafficStats& other) {
  latency_ms.insert(latency_ms.end(), other.latency_ms.begin(), other.latency_ms.end());
  for (const double done : other.done_s) {
    done_s.push_back(elapsed_seconds + done);
  }
  write_ms.insert(write_ms.end(), other.write_ms.begin(), other.write_ms.end());
  late_ms.insert(late_ms.end(), other.late_ms.begin(), other.late_ms.end());
  queries += other.queries;
  writes += other.writes;
  failed += other.failed;
  elapsed_seconds += other.elapsed_seconds;
}

std::unique_ptr<Traffic> make_traffic(const Options& options,
                                      const Inputs& inputs, Serving& serving,
                                      LogicalModel* model) {
  switch (options.workload) {
    case Workload::kBatchLarge:
      return std::make_unique<BatchTraffic>(inputs, serving);
    case Workload::kOnlineSmall:
      return std::make_unique<OpenLoopTraffic>(inputs, serving, options.seed);
    case Workload::kOnlineMutating:
      return std::make_unique<MutatingTraffic>(options, inputs, serving, model);
  }
  throw std::logic_error("unknown workload");
}

}  // namespace perfbench
