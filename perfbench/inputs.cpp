// Seeded inputs, the mutation script, the logical-matrix mirror and the
// results check.  Every input is a pure function of --seed; the library
// only ever receives the generated data.
#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "index/mutable_index.hpp"
#include "sparse/coo.hpp"
#include "sparse/generator.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kStreamLength = 8192;

/// Independent sub-seeds of one --seed (splitmix-style mixing).
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// 24 distinct sorted columns with L2-normalised values, like the
/// generated base rows.
Row random_row(topk::util::Xoshiro256& rng) {
  const auto nnz = static_cast<std::uint32_t>(kNnzPerRow);
  std::vector<std::uint32_t> pool(kCols);
  for (std::uint32_t c = 0; c < kCols; ++c) {
    pool[c] = c;
  }
  for (std::uint32_t i = 0; i < nnz; ++i) {
    std::swap(pool[i], pool[i + rng() % (kCols - i)]);
  }
  Row row;
  row.columns.assign(pool.begin(), pool.begin() + nnz);
  std::sort(row.columns.begin(), row.columns.end());
  double norm = 0.0;
  for (std::uint32_t i = 0; i < nnz; ++i) {
    const double v = rng.uniform(0.05, 1.0);
    row.values.push_back(static_cast<float>(v));
    norm += v * v;
  }
  const double scale = 1.0 / std::sqrt(norm);
  for (float& v : row.values) {
    v = static_cast<float>(v * scale);
  }
  return row;
}

}  // namespace

std::uint32_t workload_rows(const Options& options) {
  if (options.workload == Workload::kBatchLarge) {
    return options.tiny ? 20'000 : 4'000'000;
  }
  return options.tiny ? 4'000 : 40'000;
}

Inputs make_inputs(std::uint32_t rows, std::uint64_t seed) {
  topk::sparse::GeneratorConfig generator;
  generator.rows = rows;
  generator.cols = kCols;
  generator.mean_nnz_per_row = kNnzPerRow;
  generator.distribution = topk::sparse::RowDistribution::kUniform;
  generator.l2_normalize = true;
  generator.seed = sub_seed(seed, 1);
  Inputs inputs;
  inputs.matrix = std::make_shared<const topk::sparse::Csr>(
      topk::sparse::generate_matrix(generator));

  topk::util::Xoshiro256 rng(sub_seed(seed, 2));
  for (std::size_t q = 0; q < kQueryPool; ++q) {
    const auto row = static_cast<std::uint32_t>(rng() % rows);
    inputs.queries.push_back(topk::sparse::generate_query_near_row(
        *inputs.matrix, row, kQueryNoise, rng));
  }
  for (std::size_t i = 0; i < kStreamLength; ++i) {
    inputs.stream.push_back(static_cast<std::uint32_t>(rng() % kQueryPool));
  }
  return inputs;
}

std::vector<Mutation> make_mutations(std::uint32_t base_rows,
                                     std::size_t count, std::uint64_t seed) {
  topk::util::Xoshiro256 rng(sub_seed(seed, 3));
  std::vector<std::uint32_t> live(base_rows);
  for (std::uint32_t id = 0; id < base_rows; ++id) {
    live[id] = id;
  }
  std::uint32_t next_id = base_rows;
  std::vector<Mutation> script;
  script.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Mutation m;
    const std::uint64_t draw = rng() % 10;
    if (draw < 6 || live.empty()) {
      m.kind = Mutation::Kind::kAppend;
      m.id = next_id++;
      m.row = random_row(rng);
      live.push_back(m.id);
    } else {
      const std::size_t slot = rng() % live.size();
      m.id = live[slot];
      if (draw < 8) {
        m.kind = Mutation::Kind::kUpsert;
        m.row = random_row(rng);
      } else {
        m.kind = Mutation::Kind::kDelete;
        live[slot] = live.back();
        live.pop_back();
      }
    }
    script.push_back(std::move(m));
  }
  return script;
}

void apply(topk::index::MutableIndex& index, const Mutation& mutation) {
  switch (mutation.kind) {
    case Mutation::Kind::kAppend: {
      const std::uint32_t id =
          index.insert_row(mutation.row.columns, mutation.row.values);
      if (id != mutation.id) {
        throw std::runtime_error("append landed on id " + std::to_string(id) +
                                 ", script expected " +
                                 std::to_string(mutation.id));
      }
      break;
    }
    case Mutation::Kind::kUpsert:
      index.insert_row(mutation.id, mutation.row.columns, mutation.row.values);
      break;
    case Mutation::Kind::kDelete:
      if (!index.delete_row(mutation.id)) {
        throw std::runtime_error("delete of a live id " +
                                 std::to_string(mutation.id) + " missed");
      }
      break;
  }
}

LogicalModel::LogicalModel(const topk::sparse::Csr& base) : cols_(base.cols()) {
  rows_.reserve(base.rows());
  for (std::uint32_t r = 0; r < base.rows(); ++r) {
    const auto cols = base.row_cols(r);
    const auto vals = base.row_values(r);
    rows_.emplace_back(Row{{cols.begin(), cols.end()}, {vals.begin(), vals.end()}});
  }
}

void LogicalModel::apply(const Mutation& mutation) {
  switch (mutation.kind) {
    case Mutation::Kind::kAppend:
      rows_.emplace_back(mutation.row);
      break;
    case Mutation::Kind::kUpsert:
      rows_[mutation.id] = mutation.row;
      break;
    case Mutation::Kind::kDelete:
      rows_[mutation.id] = std::nullopt;
      break;
  }
}

std::pair<topk::sparse::Csr, std::vector<std::uint32_t>>
LogicalModel::live_matrix() const {
  std::vector<std::uint32_t> live_ids;
  for (std::uint32_t id = 0; id < rows_.size(); ++id) {
    if (rows_[id].has_value()) {
      live_ids.push_back(id);
    }
  }
  topk::sparse::Coo coo(static_cast<std::uint32_t>(live_ids.size()), cols_);
  for (std::uint32_t r = 0; r < live_ids.size(); ++r) {
    const Row& row = *rows_[live_ids[r]];
    for (std::size_t i = 0; i < row.columns.size(); ++i) {
      coo.push_back(r, row.columns[i], row.values[i]);
    }
  }
  return {topk::sparse::Csr::from_coo(std::move(coo)), std::move(live_ids)};
}

std::uint64_t count_mismatches(const topk::index::SimilarityIndex& reference,
                               const std::vector<std::vector<float>>& queries,
                               std::vector<Observed> observed,
                               const std::vector<std::uint32_t>& remap,
                               bool corrupt) {
  if (corrupt && !observed.empty() && !observed.front().entries.empty()) {
    observed.front().entries.front().index ^= 1U;
  }
  std::map<std::uint32_t, std::vector<topk::core::TopKEntry>> expected;
  topk::index::QueryOptions options;
  options.threads = kWorkers;
  std::uint64_t mismatches = 0;
  for (const Observed& seen : observed) {
    auto it = expected.find(seen.query);
    if (it == expected.end()) {
      auto entries = reference.query(queries.at(seen.query), kTopK, options).entries;
      if (!remap.empty()) {
        for (auto& entry : entries) {
          entry.index = remap.at(entry.index);
        }
      }
      it = expected.emplace(seen.query, std::move(entries)).first;
    }
    if (seen.entries != it->second) {
      ++mismatches;
    }
  }
  return mismatches;
}

double median(std::vector<double> values) { return percentile(std::move(values), 0.5); }

double percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    throw std::runtime_error("percentile of an empty sample");
  }
  return topk::util::quantile(values, q);
}

}  // namespace perfbench
