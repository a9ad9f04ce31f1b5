#include "probes.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <utility>

#include "circuit/ansatz.hpp"
#include "circuit/routing.hpp"
#include "linalg/gemm.hpp"
#include "linalg/svd.hpp"
#include "mps/inner_product.hpp"
#include "mps/simulator.hpp"
#include "util/rng.hpp"

namespace perfbench {

using qkmps::idx;
using qkmps::Rng;
using qkmps::Timer;
using qkmps::kernel::QuantumKernelConfig;
using qkmps::kernel::RealMatrix;

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[static_cast<std::size_t>(index_)].end_s =
      tracer_->clock_.seconds();
  tracer_->open_ = tracer_->spans_[static_cast<std::size_t>(index_)].parent;
}

Tracer::Scope Tracer::span(std::string name) {
  if (!enabled_) return Scope(nullptr, -1);
  const double now = clock_.seconds();
  spans_.push_back({std::move(name), now, now, open_});
  open_ = static_cast<int>(spans_.size()) - 1;
  return Scope(this, open_);
}

double Tracer::total(const std::string& name) const {
  double sum = 0.0;
  for (const Span& s : spans_)
    if (s.name == name) sum += s.end_s - s.start_s;
  return sum;
}

void Tracer::write(const std::string& path) const {
  std::ofstream os(path);
  for (const Span& s : spans_) {
    char line[256];
    std::snprintf(line, sizeof line,
                  "{\"name\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f, "
                  "\"parent\": %d}\n",
                  s.name.c_str(), s.start_s, s.end_s, s.parent);
    os << line;
  }
}

namespace {

std::vector<double> row_vector(const RealMatrix& x, idx i) {
  return std::vector<double>(x.row(i), x.row(i) + x.cols());
}

/// Complex multiply-adds of the zipper contraction <a|b>: per site one
/// (chi_a,l x chi_b,l)(chi_b,l x 2 chi_b,r) product and one
/// (chi_a,r x 2 chi_a,l)(2 chi_a,l x chi_b,r) product (mps/inner_product.cpp).
double overlap_flops(const qkmps::mps::Mps& a, const qkmps::mps::Mps& b) {
  double cmacs = 0.0;
  for (idx i = 0; i < a.num_sites(); ++i) {
    const auto& sa = a.site(i);
    const auto& sb = b.site(i);
    cmacs += static_cast<double>(sa.left * sb.left * 2 * sb.right);
    cmacs += static_cast<double>(sa.right * 2 * sa.left * sb.right);
  }
  return 8.0 * cmacs;  // one complex multiply-add is 8 real flops
}

/// Median microseconds per call of `fn`, repeated for about `budget_s`
/// (at least `min_reps` calls).
template <typename Fn>
double median_us(Fn&& fn, double budget_s, int min_reps) {
  std::vector<double> us;
  Timer budget;
  while (static_cast<int>(us.size()) < min_reps || budget.seconds() < budget_s) {
    Timer t;
    fn();
    us.push_back(1e6 * t.seconds());
    if (us.size() >= 2000) break;
  }
  return median(us);
}

qkmps::linalg::Matrix random_matrix(idx n, Rng& rng) {
  qkmps::linalg::Matrix a(n, n);
  for (idx i = 0; i < n; ++i)
    for (idx j = 0; j < n; ++j) a(i, j) = rng.normal_cplx();
  return a;
}

}  // namespace

void probe_layers(const QuantumKernelConfig& cfg, const RealMatrix& x,
                  std::uint64_t seed, Report& report) {
  constexpr idx kSample = 8;
  Rng rng(seed ^ 0x5eedf00dULL);
  std::vector<idx> rows;
  for (idx i = 0; i < std::min(kSample, x.rows()); ++i)
    rows.push_back(static_cast<idx>(rng.uniform_int(static_cast<std::uint64_t>(x.rows()))));

  const qkmps::mps::MpsSimulator sim(cfg.sim);
  std::vector<qkmps::mps::Mps> states;
  std::vector<double> sim_ms;
  double discarded = 0.0, kib = 0.0;
  idx max_bond = 1;
  for (idx r : rows) {
    const auto circuit = qkmps::circuit::feature_map_circuit(cfg.ansatz, row_vector(x, r));
    if (states.empty())
      report.set("circuit.two_qubit_gates",
                 static_cast<double>(
                     qkmps::circuit::route_to_chain(circuit).two_qubit_gate_count()));
    Timer t;
    qkmps::mps::SimulationResult res = sim.simulate(circuit);
    sim_ms.push_back(1e3 * t.seconds());
    max_bond = std::max(max_bond, res.state.max_bond());
    discarded += res.truncation.total_discarded_weight;
    kib += static_cast<double>(res.state.memory_bytes()) / 1024.0;
    states.push_back(std::move(res.state));
  }
  const double n = static_cast<double>(states.size());
  report.set("mps.simulate_ms", median(sim_ms));
  report.set("mps.max_bond", static_cast<double>(max_bond));
  report.set("mps.discarded_weight", discarded / n);
  report.set("mps.state_kib", kib / n);

  std::vector<double> overlap_us;
  double flops = 0.0;
  int pairs = 0;
  for (std::size_t i = 0; i < states.size(); ++i)
    for (std::size_t j = i + 1; j < states.size(); ++j) {
      for (int rep = 0; rep < 3; ++rep) {
        Timer t;
        volatile double v = qkmps::mps::overlap_squared(states[i], states[j], cfg.sim.policy);
        (void)v;
        overlap_us.push_back(1e6 * t.seconds());
      }
      flops += overlap_flops(states[i], states[j]);
      ++pairs;
    }
  report.set("mps.overlap_us", median(overlap_us));
  report.set("mps.overlap_mflop", flops / std::max(pairs, 1) / 1e6);

  // A two-qubit gate's SVD acts on the (2 chi_left) x (2 chi_right) theta
  // matrix, and its contraction on operands of the same order.
  const idx dim = 2 * max_bond;
  const auto a = random_matrix(dim, rng);
  const auto b = random_matrix(dim, rng);
  report.set("linalg.svd_us", median_us([&] {
               volatile double s0 = qkmps::linalg::svd(a, cfg.sim.policy).s[0];
               (void)s0;
             }, 0.25, 5));
  report.set("linalg.gemm_us", median_us([&] {
               volatile double c0 =
                   qkmps::linalg::gemm(a, b, cfg.sim.policy)(0, 0).real();
               (void)c0;
             }, 0.25, 5));
}

void check_kernel_sample(const QuantumKernelConfig& cfg, const RealMatrix& x_rows,
                         const RealMatrix& x_cols, const RealMatrix& k,
                         bool symmetric, std::uint64_t seed, idx points,
                         const std::string& label, Report& report) {
  Rng rng(seed ^ 0xc0ffeeULL);
  auto pick = [&rng](idx n, idx count) {  // distinct seeded indices
    std::vector<idx> all(static_cast<std::size_t>(n));
    for (idx i = 0; i < n; ++i) all[static_cast<std::size_t>(i)] = i;
    for (std::size_t i = 0; i < static_cast<std::size_t>(std::min(n, count)); ++i)
      std::swap(all[i], all[i + rng.uniform_int(all.size() - i)]);
    all.resize(static_cast<std::size_t>(std::min(n, count)));
    return all;
  };
  const std::vector<idx> rows = pick(k.rows(), points);
  const std::vector<idx> cols = symmetric ? rows : pick(k.cols(), points);
  const auto row_states = qkmps::kernel::simulate_states(cfg, take_rows(x_rows, rows));
  const auto col_states =
      symmetric ? row_states : qkmps::kernel::simulate_states(cfg, take_rows(x_cols, cols));
  for (std::size_t a = 0; a < rows.size(); ++a)
    for (std::size_t b = symmetric ? a + 1 : 0; b < cols.size(); ++b) {
      const double v = k(rows[a], cols[b]);
      bool ok = same_bits(v, qkmps::mps::overlap_squared(row_states[a], col_states[b],
                                                         cfg.sim.policy));
      if (!ok && symmetric)
        ok = same_bits(v, qkmps::mps::overlap_squared(col_states[b], row_states[a],
                                                      cfg.sim.policy));
      report.check(ok, label + " entry (" + std::to_string(rows[a]) + ", " +
                           std::to_string(cols[b]) + ") matches overlap_squared");
    }
}

}  // namespace perfbench
