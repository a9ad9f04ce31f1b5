#pragma once

/// Shared plumbing of the repository benchmark: command-line options, the
/// metric catalogue, the per-run report (metrics, operation counts, output
/// checks, input fingerprints) and small statistics helpers.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "kernel/kernel_matrix.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measured-phase length of the run
  bool trace = false;     ///< per-layer (traced) run instead of end-to-end
  std::string workdir;    ///< scratch directory for bundle files
};

/// One metric the benchmark reports: end-to-end metrics come from untraced
/// runs, per-layer metrics from traced ones (BENCHMARK.json mirrors this
/// table; run.py checks the two agree).
struct MetricDef {
  const char* name;
  const char* unit;
  bool per_layer;
};
const std::vector<MetricDef>& metric_catalogue();

/// Result of one run. Every operation the run attempts (a training pass, a
/// request, an output check) is counted; a failed check or a rejected,
/// shed or failed request counts as failed and marks the run incorrect.
class Report {
 public:
  /// Records a metric value; `name` must be in the catalogue.
  void set(const std::string& name, double value);

  void attempted(std::uint64_t n) { attempted_ += n; }
  void failed(std::uint64_t n) { failed_ += n; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

  /// One output check: counted as an attempted operation, and as a failed
  /// one (with a line on stderr) when `ok` is false. Returns `ok`.
  bool check(bool ok, const std::string& what);
  bool correct() const { return checks_failed_ == 0 && failed_ == 0; }

  /// Input fingerprints and run annotations, printed before the result.
  void note(const std::string& key, const std::string& value);

  /// Prints the notes, then the result line (the last line of stdout): the
  /// end-to-end metrics, or with `trace` the per-layer ones. Per-layer
  /// metrics the workload does not exercise read 0. Returns false when an
  /// end-to-end metric was never measured.
  bool print(bool trace) const;

 private:
  std::map<std::string, double> values_;
  std::vector<std::pair<std::string, std::string>> notes_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t checks_failed_ = 0;
};

double median(std::vector<double> v);
/// Peak resident set size of this process so far, MiB.
double peak_rss_mib();
/// FNV-1a over the matrix's raw double bits (serve::feature_hash).
std::string matrix_digest(const qkmps::kernel::RealMatrix& x);
std::string hex64(std::uint64_t v);
/// Bitwise equality of two doubles (distinguishes -0.0 and NaN payloads).
bool same_bits(double a, double b);
/// Rows `rows` of `x`, in order.
qkmps::kernel::RealMatrix take_rows(const qkmps::kernel::RealMatrix& x,
                                    const std::vector<qkmps::idx>& rows);

}  // namespace perfbench
