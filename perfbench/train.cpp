/// train-* workloads: the paper's training pipeline on one labelled draw,
/// repeated for the run's measured phase.

#include <vector>
#include <filesystem>

#include "bench_common.hpp"
#include "kernel/distributed_gram.hpp"
#include "probes.hpp"
#include "svm/metrics.hpp"
#include "svm/svm.hpp"
#include "workloads.hpp"

namespace perfbench {

using qkmps::idx;
using qkmps::Timer;
using qkmps::kernel::GramStats;
using qkmps::kernel::QuantumKernelConfig;
using qkmps::kernel::RealMatrix;

namespace {

constexpr int kRanks = 4;
constexpr int kSetupReps = 15;  // the draw takes milliseconds on train-deep
constexpr int kMinPasses = 2;  // test_auc must repeat across passes
constexpr int kMaxPasses = 12;
constexpr idx kCheckedGramPoints = 5;   // 10 Gram entries
constexpr idx kCheckedCrossPoints = 4;  // 16 cross-kernel entries

/// One pass, from scaled features in memory to held-out decision values.
struct Pass {
  double wall_s = 0.0;
  RealMatrix k, k_test;
  GramStats gram_stats, cross_stats;
  qkmps::svm::SvcModel model;
  double auc = 0.0;
};

Pass train_pass(const QuantumKernelConfig& cfg,
                const qkmps::bench::LabelledSample& data, Tracer& tracer) {
  Pass p;
  Timer wall;
  {
    auto s = tracer.span("train");
    {
      auto g = tracer.span("kernel.gram");
      p.k = qkmps::kernel::distributed_gram_matrix(
          cfg, data.x_train, kRanks,
          qkmps::kernel::DistributionStrategy::RoundRobin, &p.gram_stats);
    }
    {
      auto c = tracer.span("kernel.cross");
      p.k_test = qkmps::kernel::distributed_cross_kernel(
          cfg, data.x_test, data.x_train, kRanks, &p.cross_stats);
    }
    {
      auto f = tracer.span("svm.fit");
      p.model = qkmps::svm::train_svc(p.k, data.y_train, {});
    }
    {
      auto d = tracer.span("svm.score");
      p.auc = qkmps::svm::roc_auc(data.y_test, p.model.decision_values(p.k_test));
    }
  }
  p.wall_s = wall.seconds();
  return p;
}

void check_gram_shape(const RealMatrix& k, Report& report) {
  bool symmetric = true, unit_diagonal = true;
  for (idx i = 0; i < k.rows(); ++i) {
    unit_diagonal = unit_diagonal && k(i, i) == 1.0;
    for (idx j = i + 1; j < k.cols(); ++j)
      symmetric = symmetric && same_bits(k(i, j), k(j, i));
  }
  report.check(symmetric, "Gram matrix is symmetric");
  report.check(unit_diagonal, "Gram matrix has a unit diagonal");
}

}  // namespace

void run_train(const Options& opt, const TrainSpec& spec, Report& report) {
  QuantumKernelConfig cfg;
  cfg.ansatz = {.num_features = spec.features, .layers = spec.layers,
                .distance = spec.distance, .gamma = spec.gamma};

  // Set-up: the labelled draw and its scaling, repeated; median reported.
  std::vector<double> setup_s;
  qkmps::bench::LabelledSample data;
  for (int i = 0; i < kSetupReps; ++i) {
    Timer t;
    data = qkmps::bench::labelled_sample(spec.per_class, spec.features, opt.seed);
    setup_s.push_back(t.seconds());
  }
  report.set("setup_s", median(setup_s));
  report.set("data.load_s", median(setup_s));
  report.note("train_digest", matrix_digest(data.x_train));
  report.note("test_digest", matrix_digest(data.x_test));
  report.note("rows", std::to_string(data.x_train.rows()) + " train + " +
                          std::to_string(data.x_test.rows()) + " test");

  // Measured phase: untraced passes until the run's seconds are spent. A
  // traced run makes one untraced pass (the overhead baseline) and one
  // traced pass that the layer metrics come from.
  std::vector<Pass> passes;
  Tracer untraced(false);
  Tracer tracer(opt.trace);
  Timer phase;
  if (opt.trace) {
    passes.push_back(train_pass(cfg, data, untraced));
    passes.push_back(train_pass(cfg, data, tracer));
  } else {
    while (static_cast<int>(passes.size()) < kMinPasses ||
           (phase.seconds() < opt.seconds &&
            static_cast<int>(passes.size()) < kMaxPasses))
      passes.push_back(train_pass(cfg, data, untraced));
  }
  report.attempted(passes.size());

  std::vector<double> walls;
  for (const Pass& p : passes) walls.push_back(p.wall_s);
  const Pass& last = passes.back();
  const double train_s = median(walls);
  const double rows = static_cast<double>(data.x_train.rows() + data.x_test.rows());
  report.set("svm.test_auc", last.auc);
  report.note("test_auc", std::to_string(last.auc));
  // An operation here is one whole pass; throughput counts the data rows
  // (train + held-out) a pass carries through the pipeline per second.
  report.set("latency_p50_ms", 1e3 * train_s);
  report.set("throughput_rps", rows / train_s);
  report.note("passes", std::to_string(passes.size()));

  // Output checks.
  for (const Pass& p : passes)
    report.check(same_bits(p.auc, last.auc), "test_auc repeats exactly across passes");
  check_gram_shape(last.k, report);
  check_kernel_sample(cfg, data.x_train, data.x_train, last.k, true, opt.seed,
                      kCheckedGramPoints, "Gram", report);
  check_kernel_sample(cfg, data.x_test, data.x_train, last.k_test, false,
                      opt.seed + 1, kCheckedCrossPoints, "cross kernel", report);

  if (!opt.trace) return;
  const GramStats& g = last.gram_stats;
  const GramStats& c = last.cross_stats;
  const double gram_s = tracer.total("kernel.gram");
  const double cross_s = tracer.total("kernel.cross");
  const double sim_cpu = g.phases.total("simulation") + c.phases.total("simulation");
  const double ip_cpu = g.phases.total("inner_product") + c.phases.total("inner_product");
  report.set("kernel.gram_s", gram_s);
  report.set("kernel.cross_s", cross_s);
  report.set("kernel.sim_cpu_s", sim_cpu);
  report.set("kernel.ip_cpu_s", ip_cpu);
  report.set("kernel.inner_products", static_cast<double>(g.inner_products + c.inner_products));
  report.set("kernel.circuits_per_point",
             static_cast<double>(g.circuits_simulated + c.circuits_simulated) / rows);
  report.set("parallel.wait_s", g.phases.total("communication") +
                                    c.phases.total("communication"));
  report.set("parallel.efficiency", (sim_cpu + ip_cpu) / (kRanks * (gram_s + cross_s)));
  report.set("svm.fit_s", tracer.total("svm.fit"));
  report.set("svm.iterations", static_cast<double>(last.model.iterations));
  report.set("svm.support_vectors", static_cast<double>(last.model.support_vector_count()));
  report.set("bench.trace_overhead", last.wall_s / passes.front().wall_s);
  report.set("bench.reconciled_frac",
             (gram_s + cross_s + tracer.total("svm.fit") + tracer.total("svm.score")) /
                 last.wall_s);
  probe_layers(cfg, data.x_train, opt.seed, report);
  tracer.write((std::filesystem::path(opt.workdir) / "spans.jsonl").string());
}

}  // namespace perfbench
