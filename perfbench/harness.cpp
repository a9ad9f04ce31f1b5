#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "serve/feature_key.hpp"

namespace perfbench {

using qkmps::idx;
using qkmps::kernel::RealMatrix;

const std::vector<MetricDef>& metric_catalogue() {
  static const std::vector<MetricDef> defs = {
      // End to end (untraced runs).
      {"setup_s", "s", false},
      {"peak_rss_mib", "MiB", false},
      {"latency_p50_ms", "ms", false},
      {"throughput_rps", "1/s", false},
      {"ok_frac", "ratio", false},
      // Per layer (traced runs), named by src/ module.
      {"data.load_s", "s", true},
      {"circuit.two_qubit_gates", "count", true},
      {"mps.simulate_ms", "ms", true},
      {"mps.max_bond", "count", true},
      {"mps.discarded_weight", "weight", true},
      {"mps.state_kib", "KiB", true},
      {"mps.overlap_us", "us", true},
      {"mps.overlap_mflop", "MFLOP", true},
      {"linalg.svd_us", "us", true},
      {"linalg.gemm_us", "us", true},
      {"kernel.gram_s", "s", true},
      {"kernel.cross_s", "s", true},
      {"kernel.sim_cpu_s", "s", true},
      {"kernel.ip_cpu_s", "s", true},
      {"kernel.inner_products", "count", true},
      {"kernel.circuits_per_point", "ratio", true},
      {"parallel.wait_s", "s", true},
      {"parallel.efficiency", "ratio", true},
      {"svm.fit_s", "s", true},
      {"svm.iterations", "count", true},
      {"svm.support_vectors", "count", true},
      {"svm.test_auc", "ratio", true},
      {"bundle.save_s", "s", true},
      {"bundle.load_s", "s", true},
      {"bundle.mib", "MiB", true},
      {"serve.latency_p99_ms", "ms", true},
      {"serve.submit_us", "us", true},
      {"serve.admission_wait_p50_ms", "ms", true},
      {"serve.admission_wait_p99_ms", "ms", true},
      {"serve.batch_size", "requests", true},
      {"serve.memo_hit_rate", "ratio", true},
      {"serve.cache_hit_rate", "ratio", true},
      {"serve.circuits_per_request", "ratio", true},
      {"serve.scale_ms", "ms", true},
      {"serve.memo_ms", "ms", true},
      {"serve.cache_ms", "ms", true},
      {"serve.simulate_ms", "ms", true},
      {"serve.kernel_ms", "ms", true},
      {"serve.score_ms", "ms", true},
      {"bench.generator_lag_ms", "ms", true},
      {"bench.trace_overhead", "ratio", true},
      {"bench.reconciled_frac", "ratio", true},
  };
  return defs;
}

void Report::set(const std::string& name, double value) {
  const auto& defs = metric_catalogue();
  const bool known = std::any_of(defs.begin(), defs.end(), [&](const MetricDef& d) {
    return name == d.name;
  });
  if (!known) throw std::logic_error("perfbench: unknown metric " + name);
  values_[name] = value;
}

bool Report::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    ++checks_failed_;
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
  }
  return ok;
}

void Report::note(const std::string& key, const std::string& value) {
  notes_.emplace_back(key, value);
}

namespace {

/// JSON number with every digit of the double; non-finite values (an
/// infinite latency percentile) become a large finite sentinel because
/// JSON has no infinity.
std::string json_number(double v) {
  if (!std::isfinite(v)) v = 1e12;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

bool Report::print(bool trace) const {
  for (const auto& [key, value] : notes_)
    std::printf("%-28s %s\n", key.c_str(), value.c_str());
  bool complete = true;
  std::string metrics;
  for (const MetricDef& d : metric_catalogue()) {
    if (d.per_layer != trace) continue;
    double v = 0.0;  // per-layer metric the workload does not exercise
    const auto it = values_.find(d.name);
    if (it != values_.end()) {
      v = it->second;
    } else if (!trace) {
      std::fprintf(stderr, "perfbench: end-to-end metric %s not measured\n",
                   d.name);
      complete = false;
    }
    std::printf("%-28s %16.6f %s\n", d.name, v, d.unit);
    if (!metrics.empty()) metrics += ", ";
    metrics += std::string("\"") + d.name + "\": {\"value\": " + json_number(v) +
               ", \"unit\": \"" + d.unit + "\"}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct() && complete ? "true" : "false",
      static_cast<unsigned long long>(std::max<std::uint64_t>(attempted_, 1)),
      static_cast<unsigned long long>(failed_), metrics.c_str());
  std::fflush(stdout);
  return complete;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string matrix_digest(const RealMatrix& x) {
  return hex64(qkmps::serve::feature_hash(
      x.data(), static_cast<std::size_t>(x.rows() * x.cols())));
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

RealMatrix take_rows(const RealMatrix& x, const std::vector<idx>& rows) {
  RealMatrix out(static_cast<idx>(rows.size()), x.cols());
  for (std::size_t i = 0; i < rows.size(); ++i)
    std::copy(x.row(rows[i]), x.row(rows[i]) + x.cols(),
              out.row(static_cast<idx>(i)));
  return out;
}

}  // namespace perfbench
