#pragma once

/// Layer probes and output checks shared by the workloads: benchmark-side
/// spans, the traced run's seeded sample of single-circuit simulations and
/// overlaps, linalg kernels timed at the sample's bond dimension, and the
/// bitwise check of kernel entries against freshly simulated states.

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"
#include "kernel/gram.hpp"
#include "util/timer.hpp"

namespace perfbench {

/// Benchmark-side spans around calls into the library. A disabled tracer
/// (untraced runs) records nothing. Single-threaded: spans nest by scope.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    int parent = -1;  ///< index of the enclosing span, -1 at the root
  };

  class Scope {
   public:
    Scope(Tracer* tracer, int index) : tracer_(tracer), index_(index) {}
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  Scope span(std::string name);
  /// Summed duration of every span called `name`.
  double total(const std::string& name) const;
  /// Writes the spans as JSON lines (name, start, end, parent) to `path`.
  void write(const std::string& path) const;

 private:
  bool enabled_;
  int open_ = -1;
  qkmps::Timer clock_;
  std::vector<Span> spans_;
};

/// Traced-run probes over a seeded sample of `x`'s rows (already scaled):
/// one-circuit simulate() and pairwise overlap_squared() timings, bond
/// dimension, discarded weight and state size, the routed circuit's
/// two-qubit gate count, the computed overlap flop count, and svd/gemm
/// timed at the 2chi x 2chi shape the sample's chi implies.
void probe_layers(const qkmps::kernel::QuantumKernelConfig& cfg,
                  const qkmps::kernel::RealMatrix& x, std::uint64_t seed,
                  Report& report);

/// Output check: the entries of `k` between `points` seeded rows of
/// `x_rows` and `points` seeded rows of `x_cols` (for a symmetric Gram, the
/// pairs among one seeded set) must equal, bitwise, overlap_squared of
/// freshly simulated states. A symmetric entry may have been evaluated in
/// either argument order, so either order's bits are accepted there.
void check_kernel_sample(const qkmps::kernel::QuantumKernelConfig& cfg,
                         const qkmps::kernel::RealMatrix& x_rows,
                         const qkmps::kernel::RealMatrix& x_cols,
                         const qkmps::kernel::RealMatrix& k, bool symmetric,
                         std::uint64_t seed, qkmps::idx points,
                         const std::string& label, Report& report);

}  // namespace perfbench
