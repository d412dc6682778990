// Host measurements and the metadata stamp of every result.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "simd/topk_simd.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

/// Last-level cache size from sysfs; 256 MiB when unreadable.
std::size_t llc_bytes() {
  std::size_t best = 0;
  for (int i = 0; i < 8; ++i) {
    std::ifstream size_file("/sys/devices/system/cpu/cpu0/cache/index" +
                            std::to_string(i) + "/size");
    std::string text;
    if (!(size_file >> text) || text.empty()) {
      continue;
    }
    std::size_t value = std::stoull(text);
    if (text.back() == 'K') {
      value <<= 10;
    } else if (text.back() == 'M') {
      value <<= 20;
    }
    best = std::max(best, value);
  }
  return best == 0 ? (std::size_t{256} << 20) : best;
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

double measure_read_gbps(std::uint32_t threads) {
  threads = std::max<std::uint32_t>(threads, 1);
  const std::size_t words = 4 * llc_bytes() / sizeof(std::uint64_t);
  const std::unique_ptr<std::uint64_t[]> data(new std::uint64_t[words]);
  const std::size_t chunk = (words + threads - 1) / threads;
  const auto parallel = [&](const auto& body) {
    std::vector<std::jthread> team;  // joined on destruction
    for (std::uint32_t t = 0; t < threads; ++t) {
      const std::size_t begin = std::min(words, t * chunk);
      const std::size_t end = std::min(words, begin + chunk);
      team.emplace_back([&body, begin, end] { body(begin, end); });
    }
  };
  // First touch from the reading threads, so pages land where they read.
  parallel([&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      data[i] = i;
    }
  });
  std::atomic<std::uint64_t> sink{0};
  std::vector<double> rates;
  for (int pass = 0; pass < 5; ++pass) {
    const auto start = std::chrono::steady_clock::now();
    parallel([&](std::size_t begin, std::size_t end) {
      std::uint64_t a = 0, b = 0, c = 0, d = 0;
      std::size_t i = begin;
      for (; i + 4 <= end; i += 4) {
        a += data[i];
        b += data[i + 1];
        c += data[i + 2];
        d += data[i + 3];
      }
      for (; i < end; ++i) {
        a += data[i];
      }
      sink.fetch_add(a + b + c + d, std::memory_order_relaxed);
    });
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    rates.push_back(static_cast<double>(words * sizeof(std::uint64_t)) / seconds / 1e9);
  }
  if (sink.load() == 42) {  // keeps the sums observable
    rates.push_back(0.0);
  }
  return median(rates);
}

namespace {

/// Cumulative steal of all CPUs in seconds; 0 without a steal column.
double read_steal_seconds() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  std::uint64_t field = 0;
  std::uint64_t steal = 0;
  stat >> cpu;
  // user nice system idle iowait irq softirq steal
  for (int i = 0; i < 8 && stat >> field; ++i) {
    steal = field;
  }
  static const double ticks_per_second = static_cast<double>(sysconf(_SC_CLK_TCK));
  return cpu == "cpu" ? static_cast<double>(steal) / ticks_per_second : 0.0;
}

}  // namespace

StealSampler::StealSampler()
    : start_(std::chrono::steady_clock::now()),
      thread_([this](std::stop_token stop) {
        while (!stop.stop_requested()) {
          const double at = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - start_)
                                .count();
          samples_.emplace_back(at, read_steal_seconds());
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
      }) {}

void StealSampler::stop() {
  thread_.request_stop();
  if (thread_.joinable()) {
    thread_.join();
  }
}

double StealSampler::cumulative(double at) const {
  // The last sample taken at or before `at`.
  const auto it = std::upper_bound(
      samples_.begin(), samples_.end(), at,
      [](double t, const std::pair<double, double>& sample) { return t < sample.first; });
  return it == samples_.begin() ? (samples_.empty() ? 0.0 : samples_.front().second)
                                : std::prev(it)->second;
}

double StealSampler::seconds(double from, double to) const {
  return cumulative(to) - cumulative(from);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

std::string metadata_json(const Options& options, double host_read_gbps) {
  const std::string build_type = PERFBENCH_BUILD_TYPE;
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  std::ostringstream out;
  out.precision(17);
  out << "{\"workload\":" << json_string(options.workload_name)
      << ",\"seed\":" << options.seed << ",\"seconds\":" << options.seconds
      << ",\"trace\":" << (options.trace ? "true" : "false")
      << ",\"scale\":" << json_string(options.tiny ? "tiny" : "full")
      << ",\"rows\":" << workload_rows(options)
      << ",\"cpu_model\":" << json_string(cpu_model())
      << ",\"isa\":" << json_string(topk::simd::to_string(topk::simd::dispatch_level()))
      << ",\"cores\":" << std::thread::hardware_concurrency()
      << ",\"build_type\":" << json_string(build_type)
      << ",\"comparable\":" << (build_type == "Release" ? "true" : "false")
      << ",\"compiler\":" << json_string(compiler)
      << ",\"revision\":" << json_string(options.revision)
      << ",\"host.read_gbps\":" << host_read_gbps
      << ",\"llc_bytes\":" << llc_bytes()
      << ",\"computed_not_measured\":[\"simd.bytes_per_q\",\"simd.gbps\","
         "\"simd.roofline_frac\"]"
      << ",\"modelled\":[]}";
  return out.str();
}

}  // namespace perfbench
