/// serve-* workloads: a bundle trained on 256 points, saved, loaded and
/// served by a 2-shard ShardedEngine; an open-loop phase at a fixed rate
/// gives latency, a closed-loop phase with a fixed window gives throughput.

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <deque>
#include <filesystem>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <thread>
#include <unordered_map>

#include "data/elliptic_synthetic.hpp"
#include "data/preprocess.hpp"
#include "kernel/distributed_gram.hpp"
#include "probes.hpp"
#include "serve/feature_key.hpp"
#include "serve/model_bundle.hpp"
#include "serve/sharded_engine.hpp"
#include "serve/workload.hpp"
#include "svm/metrics.hpp"
#include "svm/svm.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using qkmps::idx;
using qkmps::Rng;
using qkmps::Timer;
using qkmps::kernel::QuantumKernelConfig;
using qkmps::kernel::RealMatrix;
using qkmps::serve::ModelBundle;
using qkmps::serve::RoutedPrediction;
using qkmps::serve::ShardedEngine;
using qkmps::serve::workload::Scenario;
using clock_type = std::chrono::steady_clock;

namespace {

constexpr idx kPerClass = 128;  // 256-point bundle
constexpr int kRanks = 4;
constexpr int kSetupReps = 3;
constexpr std::size_t kWindow = 64;  // closed-loop requests outstanding
constexpr idx kZipfUnique = 400;
constexpr double kZipfExponent = 1.1;
constexpr idx kUniqueWarm = 64;
constexpr double kOpenShare = 0.8;  // of --seconds; the closed loop gets the rest
constexpr idx kClosedCapUnique = 4000;
constexpr idx kClosedCapZipf = 20000;  // cycled: every request is a hit
constexpr int kSampled = 24;
constexpr double kInf = std::numeric_limits<double>::infinity();

QuantumKernelConfig serve_config() {
  QuantumKernelConfig cfg;
  cfg.ansatz = {.num_features = 165, .layers = 2, .distance = 1, .gamma = 0.1};
  return cfg;
}

/// Where each phase's requests sit in the stream. Both run modes build the
/// same stream (and so the same digest); an untraced run leaves `traced`
/// unused.
struct Layout {
  idx warm_begin = 0, warm_end = 0;  // serve-unique warms on stream requests
  idx open_begin = 0, open_end = 0;
  idx traced_begin = 0, traced_end = 0;
  idx closed_begin = 0, closed_end = 0;
};

Layout make_layout(const ServeSpec& spec, double seconds) {
  const idx open = static_cast<idx>(std::ceil(spec.rate_rps * kOpenShare * seconds));
  Layout l;
  l.warm_end = spec.zipf ? 0 : kUniqueWarm;
  l.open_begin = l.warm_end;
  l.open_end = l.traced_begin = l.open_begin + open;
  l.traced_end = l.closed_begin = l.traced_begin + open;
  l.closed_end = l.closed_begin + (spec.zipf ? kClosedCapZipf : kClosedCapUnique);
  return l;
}

/// Spans of RoutedPrediction::trace: the admission wait, then the engine
/// stages laid end to end.
constexpr std::array<const char*, 7> kSpans = {
    "admission_wait", "scale", "memo", "cache", "simulate", "kernel", "score"};

/// One resolved request.
struct Outcome {
  idx key = 0;              ///< unique-point index in the stream
  bool served = false;
  double lag_s = 0;         ///< how late the sender issued it (open loop)
  double latency_s = kInf;  ///< from its due time; infinite unless served
  double decision_value = 0;
  std::array<double, kSpans.size()> span_s{};  ///< filled for traced requests
};

/// Every served decision value per key: the first one seen, and how many
/// later ones carried different bits (miss, StateCache and memo paths
/// must agree).
struct Ledger {
  std::map<idx, double> first;
  std::size_t repeats = 0, mismatches = 0;

  void add(const Outcome& o) {
    if (!o.served) return;
    const auto [it, fresh] = first.emplace(o.key, o.decision_value);
    if (fresh) return;
    ++repeats;
    mismatches += same_bits(it->second, o.decision_value) ? 0 : 1;
  }
};

/// Everything one set-up pass builds.
struct Setup {
  RealMatrix heldout;      ///< raw rows never trained on
  std::vector<int> heldout_y;
  RealMatrix x_train;      ///< scaled training features
  std::vector<int> y_train;
  qkmps::data::FeatureScaler scaler;  ///< fitted on the training rows
  ModelBundle bundle;      ///< as trained, before the save/load round trip
  std::shared_ptr<const ModelBundle> loaded;
  Scenario stream;
  std::vector<int> stream_y;  ///< label of each stream unique point
  std::unique_ptr<ShardedEngine> engine;
  Ledger ledger;           ///< starts with the warm-up requests, served cold
  qkmps::kernel::GramStats gram_stats;
  qkmps::svm::SvcModel model;
  double load_s = 0, gram_s = 0, fit_s = 0, save_s = 0,
         bundle_load_s = 0, bundle_mib = 0, total_s = 0;
};

std::vector<qkmps::mps::Mps> simulate_parallel(const QuantumKernelConfig& cfg,
                                               const RealMatrix& x, int ways) {
  std::vector<std::future<std::vector<qkmps::mps::Mps>>> parts;
  for (int w = 0; w < ways; ++w) {
    std::vector<idx> rows;
    for (idx i = w; i < x.rows(); i += ways) rows.push_back(i);
    parts.push_back(std::async(std::launch::async, [&cfg, slice = take_rows(x, rows)] {
      return qkmps::kernel::simulate_states(cfg, slice);
    }));
  }
  std::vector<std::vector<qkmps::mps::Mps>> got;
  for (auto& p : parts) got.push_back(p.get());
  std::vector<qkmps::mps::Mps> states;
  for (idx i = 0; i < x.rows(); ++i)
    states.push_back(std::move(got[static_cast<std::size_t>(i % ways)]
                                  [static_cast<std::size_t>(i / ways)]));
  return states;
}

double dir_mib(const std::string& dir) {
  double bytes = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir))
    if (e.is_regular_file()) bytes += static_cast<double>(e.file_size());
  return bytes / (1024.0 * 1024.0);
}

/// Raw rows drawn from a pool that depends on the seed: 128 per class for
/// training, all remaining rows held out in seeded order.
void draw_data(std::uint64_t seed, idx heldout_needed, Setup& s) {
  qkmps::data::EllipticSyntheticParams gen;
  gen.num_features = serve_config().ansatz.num_features;
  gen.num_points = 2 * kPerClass + heldout_needed + 64;
  gen.num_points = std::max<idx>(gen.num_points, 2000);
  gen.seed = seed;
  const qkmps::data::Dataset pool = qkmps::data::generate_elliptic_synthetic(gen);
  Rng rng(seed);
  auto shuffle = [&rng](std::vector<idx>& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.uniform_int(i)]);
  };
  std::vector<idx> order(static_cast<std::size_t>(pool.size()));
  for (idx i = 0; i < pool.size(); ++i) order[static_cast<std::size_t>(i)] = i;
  shuffle(order);
  std::vector<idx> train, rest;
  idx pos = 0, neg = 0;
  for (idx i : order) {
    idx& taken = pool.y[static_cast<std::size_t>(i)] == 1 ? pos : neg;
    if (taken < kPerClass) {
      ++taken;
      train.push_back(i);
    } else {
      rest.push_back(i);
    }
  }
  shuffle(rest);  // the early rows of `order` lost their positives to training
  const qkmps::data::Dataset tr = pool.select(train);
  const qkmps::data::Dataset held = pool.select(rest);
  const auto scaler = qkmps::data::FeatureScaler::fit(tr.x);
  s.x_train = scaler.transform(tr.x);
  s.heldout = held.x;
  s.heldout_y = held.y;
  s.scaler = scaler;
  s.y_train = tr.y;
}

Scenario make_stream(const ServeSpec& spec, const Layout& l, std::uint64_t seed,
                     const Setup& s, std::vector<int>& labels) {
  const double gap_us = 1e6 / spec.rate_rps;
  if (spec.zipf) {
    qkmps::serve::workload::ScenarioConfig c;
    c.name = "serve-zipf";
    c.seed = seed;
    c.num_requests = l.closed_end;
    c.num_unique = kZipfUnique;
    c.keys = qkmps::serve::workload::KeyPattern::kZipf;
    c.zipf_exponent = kZipfExponent;
    c.mean_gap_us = gap_us;
    Scenario sc = qkmps::serve::workload::make_scenario(c, s.heldout);
    // Map each unique point back to its held-out label by its bits.
    std::unordered_map<std::uint64_t, idx> by_hash;
    for (idx i = 0; i < s.heldout.rows(); ++i)
      by_hash[qkmps::serve::feature_hash(s.heldout.row(i),
                                         static_cast<std::size_t>(s.heldout.cols()))] = i;
    for (idx u = 0; u < sc.unique_points.rows(); ++u)
      labels.push_back(s.heldout_y[static_cast<std::size_t>(by_hash.at(
          qkmps::serve::feature_hash(sc.unique_points.row(u),
                                     static_cast<std::size_t>(sc.unique_points.cols()))))]);
    return sc;
  }
  // Every request a distinct held-out point, in the pool's seeded order.
  Scenario sc;
  sc.config.name = "serve-unique";
  sc.config.seed = seed;
  sc.config.num_requests = sc.config.num_unique = l.closed_end;
  sc.config.mean_gap_us = gap_us;
  std::vector<idx> rows;
  for (idx r = 0; r < l.closed_end; ++r) {
    rows.push_back(r);
    sc.order.push_back(r);
    sc.arrival_us.push_back(static_cast<double>(r) * gap_us);
    labels.push_back(s.heldout_y[static_cast<std::size_t>(r)]);
  }
  sc.unique_points = take_rows(s.heldout, rows);
  return sc;
}

Outcome resolve(idx key, double lag_s, std::future<RoutedPrediction>& fut,
                bool spans) {
  Outcome o;
  o.key = key;
  o.lag_s = lag_s;
  try {
    const RoutedPrediction p = fut.get();
    o.served = p.status == qkmps::serve::ServeStatus::kServed;
    if (!o.served) return o;
    o.latency_s = lag_s + p.total_seconds;
    o.decision_value = p.prediction.decision_value;
    if (spans)
      for (const auto& sp : p.trace.spans)
        for (std::size_t k = 0; k < kSpans.size(); ++k)
          if (sp.name == kSpans[k]) o.span_s[k] += 1e-9 * static_cast<double>(sp.duration_ns);
  } catch (const std::exception&) {
    o.served = false;  // the batch that carried it failed
  }
  return o;
}

/// Sleeps until shortly before `due`, then spins: a sleeping thread (and
/// its idle vCPU) can wake a millisecond or more late, which would read as
/// latency on the memo-hit path; spinning all the time would take a core
/// from the engine when arrivals are sparse.
void wait_until(clock_type::time_point due) {
  std::this_thread::sleep_until(due - std::chrono::milliseconds(1));
  while (clock_type::now() < due) std::this_thread::yield();
}

/// Open loop: request r is due at the phase start plus its scheduled
/// arrival offset, whatever happened to earlier requests. Sender and
/// receiver are this one thread: futures are read after the last send.
std::vector<Outcome> open_loop(ShardedEngine& engine, const Scenario& sc,
                               idx begin, idx end, Tracer& tracer,
                               Report& report) {
  const auto n = static_cast<std::size_t>(end - begin);
  std::vector<std::future<RoutedPrediction>> futs(n);
  std::vector<double> lags(n);
  const auto t0 = clock_type::now() + std::chrono::milliseconds(2);
  for (idx r = begin; r < end; ++r) {
    const auto i = static_cast<std::size_t>(r - begin);
    std::vector<double> x = sc.request(r);
    const auto due = t0 + std::chrono::duration_cast<clock_type::duration>(
                              std::chrono::duration<double, std::micro>(
                                  sc.arrival_us[static_cast<std::size_t>(r)] -
                                  sc.arrival_us[static_cast<std::size_t>(begin)]));
    wait_until(due);
    lags[i] = std::chrono::duration<double>(clock_type::now() - due).count();
    auto span = tracer.span("serve.submit");
    futs[i] = engine.submit(std::move(x));
  }
  std::vector<Outcome> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(resolve(sc.order[static_cast<std::size_t>(begin) + i], lags[i],
                          futs[i], tracer.enabled()));
    report.failed(out.back().served ? 0 : 1);
  }
  report.attempted(n);
  return out;
}

struct ClosedLoop {
  std::size_t served = 0;
  double rps = 0;  ///< served per second, issue start to last resolution
};

/// Closed loop with kWindow requests outstanding, issuing `keys` in order
/// until `budget_s` has passed (0: no time limit, each key once). With
/// `cycle` the keys repeat until the budget is spent. Every outcome goes
/// to `ledger`.
ClosedLoop closed_loop(ShardedEngine& engine, const Scenario& sc,
                       const std::vector<idx>& keys, double budget_s, bool cycle,
                       Ledger& ledger, Report& report) {
  std::deque<std::pair<idx, std::future<RoutedPrediction>>> inflight;
  std::size_t next = 0, done = 0;
  ClosedLoop result;
  Timer t;
  for (;;) {
    while (inflight.size() < kWindow && (budget_s <= 0 || t.seconds() < budget_s)) {
      if (next == keys.size()) {
        if (!cycle || budget_s <= 0) break;
        next = 0;
      }
      const idx key = keys[next++];
      inflight.emplace_back(key, engine.submit(std::vector<double>(
                                     sc.unique_points.row(key),
                                     sc.unique_points.row(key) + sc.unique_points.cols())));
    }
    if (inflight.empty()) break;
    const Outcome o = resolve(inflight.front().first, 0, inflight.front().second, false);
    inflight.pop_front();
    ledger.add(o);
    ++done;
    result.served += o.served ? 1 : 0;
  }
  result.rps = static_cast<double>(result.served) / t.seconds();
  report.attempted(done);
  report.failed(done - result.served);
  return result;
}

std::vector<idx> stream_keys(const Scenario& sc, idx begin, idx end) {
  return std::vector<idx>(sc.order.begin() + begin, sc.order.begin() + end);
}

Setup set_up(const Options& opt, const ServeSpec& spec, const Layout& l,
             const std::string& bundle_dir, Report& report) {
  const QuantumKernelConfig cfg = serve_config();
  Setup s;
  Timer total;
  Timer t;
  draw_data(opt.seed, spec.zipf ? kZipfUnique : l.closed_end, s);
  s.load_s = t.seconds();

  t.reset();
  const auto k = qkmps::kernel::distributed_gram_matrix(
      cfg, s.x_train, kRanks, qkmps::kernel::DistributionStrategy::RoundRobin,
      &s.gram_stats);
  s.gram_s = t.seconds();
  Timer fit;
  s.model = qkmps::svm::train_svc(k, s.y_train, {});
  s.fit_s = fit.seconds();
  // distributed_gram_matrix keeps its states on the ranks, so the bundle's
  // states are simulated again.
  const auto states = simulate_parallel(cfg, s.x_train, kRanks);
  s.bundle = qkmps::serve::make_bundle(cfg, s.scaler, s.model, states);

  t.reset();
  qkmps::serve::save_bundle(s.bundle, bundle_dir);
  s.save_s = t.seconds();
  s.bundle_mib = dir_mib(bundle_dir);
  t.reset();
  s.loaded = std::make_shared<const ModelBundle>(qkmps::serve::load_bundle(bundle_dir));
  s.bundle_load_s = t.seconds();

  s.stream = make_stream(spec, l, opt.seed, s, s.stream_y);
  s.engine = std::make_unique<ShardedEngine>(s.loaded, qkmps::serve::ShardedEngineConfig{});

  // Warm-up: serve-zipf sees every unique point once, so memo and cache
  // hold the whole key set; serve-unique runs its first requests.
  std::vector<idx> warm;
  if (spec.zipf) {
    for (idx u = 0; u < s.stream.unique_points.rows(); ++u) warm.push_back(u);
  } else {
    warm = stream_keys(s.stream, l.warm_begin, l.warm_end);
  }
  closed_loop(*s.engine, s.stream, warm, 0, false, s.ledger, report);
  s.total_s = total.seconds();
  return s;
}

/// Sequential reference: scale -> simulate_states -> kernel against the
/// bundle's support vectors -> decision values.
std::vector<double> reference_values(const ModelBundle& b, const RealMatrix& raw) {
  const auto states = qkmps::kernel::simulate_states(b.config, b.scaler.transform(raw));
  return b.model.decision_values(
      qkmps::kernel::cross_from_states(states, b.sv_states, b.config.sim.policy));
}

double nearest_rank(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// Median, over consecutive windows of at least 1000 requests, of each
/// window's q-quantile: every window keeps ten samples beyond p99, and a
/// burst of load from outside the process skews one window, not the figure.
double windowed_quantile(const std::vector<double>& v, double q) {
  const std::size_t windows = std::max<std::size_t>(1, v.size() / 1000);
  std::vector<double> per_window;
  for (std::size_t w = 0; w < windows; ++w)
    per_window.push_back(nearest_rank(
        std::vector<double>(v.begin() + static_cast<std::ptrdiff_t>(w * v.size() / windows),
                            v.begin() + static_cast<std::ptrdiff_t>((w + 1) * v.size() / windows)),
        q));
  return median(per_window);
}

std::vector<double> latencies(const std::vector<Outcome>& out) {
  std::vector<double> v;
  for (const Outcome& o : out) v.push_back(o.latency_s);
  return v;
}

struct Counters {
  double requests = 0, memo_hits = 0, cache_hits = 0, circuits = 0, batches = 0,
         completed = 0;
};

Counters counters(const ShardedEngine& engine) {
  Counters c;
  for (const auto& sh : engine.stats().shards) {
    c.requests += static_cast<double>(sh.engine.requests);
    c.memo_hits += static_cast<double>(sh.engine.memo.hits);
    c.cache_hits += static_cast<double>(sh.engine.cache.hits);
    c.circuits += static_cast<double>(sh.engine.circuits_simulated);
    c.batches += static_cast<double>(sh.batches);
    c.completed += static_cast<double>(sh.completed);
  }
  return c;
}

/// Per-layer metrics of the traced open-loop phase.
void report_traced_phase(const std::vector<Outcome>& traced, const Tracer& tracer,
                         const Counters& before, const Counters& after,
                         Report& report) {
  std::vector<double> waits;
  for (const Outcome& o : traced)
    if (o.served) waits.push_back(o.span_s[0]);
  report.set("serve.admission_wait_p50_ms", 1e3 * nearest_rank(waits, 0.50));
  report.set("serve.admission_wait_p99_ms", 1e3 * nearest_rank(waits, 0.99));
  report.set("serve.submit_us",
             1e6 * tracer.total("serve.submit") / static_cast<double>(traced.size()));

  // Stage times and reconciliation over the requests around the median
  // latency (45th to 55th percentile), so they explain latency_p50_ms.
  std::vector<std::size_t> by_latency(traced.size());
  for (std::size_t i = 0; i < traced.size(); ++i) by_latency[i] = i;
  std::sort(by_latency.begin(), by_latency.end(), [&](std::size_t a, std::size_t b) {
    return traced[a].latency_s < traced[b].latency_s;
  });
  const std::size_t lo = traced.size() * 45 / 100;
  const std::size_t hi = std::max(lo + 1, traced.size() * 55 / 100);
  std::array<double, kSpans.size()> sum{};
  double latency = 0;
  for (std::size_t k = lo; k < hi; ++k) {
    const Outcome& o = traced[by_latency[k]];
    for (std::size_t j = 0; j < kSpans.size(); ++j) sum[j] += o.span_s[j];
    latency += o.latency_s;
  }
  const double band = static_cast<double>(hi - lo);
  for (std::size_t j = 1; j < kSpans.size(); ++j)
    report.set(std::string("serve.") + kSpans[j] + "_ms", 1e3 * sum[j] / band);
  report.set("bench.reconciled_frac",
             std::accumulate(sum.begin(), sum.end(), 0.0) / latency);

  const double n = after.requests - before.requests;
  report.set("serve.memo_hit_rate", (after.memo_hits - before.memo_hits) / n);
  report.set("serve.cache_hit_rate", (after.cache_hits - before.cache_hits) / n);
  report.set("serve.circuits_per_request", (after.circuits - before.circuits) / n);
}

}  // namespace

void run_serve(const Options& opt, const ServeSpec& spec, Report& report) {
  const Layout layout = make_layout(spec, opt.seconds);
  const std::string bundle_dir =
      (std::filesystem::path(opt.workdir) / "bundle").string();

  // Set-up, repeated: data, bundle train -> save -> load, engine, warm-up.
  std::vector<double> setup_s, load_s, save_s, bundle_load_s;
  Setup s;
  for (int i = 0; i < kSetupReps; ++i) {
    s = Setup{};  // the previous engine drains and stops first
    s = set_up(opt, spec, layout, bundle_dir, report);
    setup_s.push_back(s.total_s);
    load_s.push_back(s.load_s);
    save_s.push_back(s.save_s);
    bundle_load_s.push_back(s.bundle_load_s);
  }
  report.set("setup_s", median(setup_s));
  report.note("train_digest", matrix_digest(s.x_train));
  report.note("scenario_digest",
              hex64(qkmps::serve::workload::scenario_digest(s.stream)));
  report.note("requests", std::to_string(layout.open_end - layout.open_begin) +
                              " open-loop per phase at " +
                              std::to_string(static_cast<int>(spec.rate_rps)) + " req/s");

  ShardedEngine& engine = *s.engine;
  Tracer untraced(false);
  const std::vector<Outcome> open =
      open_loop(engine, s.stream, layout.open_begin, layout.open_end, untraced, report);

  std::vector<Outcome> traced;
  Tracer tracer(opt.trace);
  if (opt.trace) {
    const Counters before = counters(engine);
    traced = open_loop(engine, s.stream, layout.traced_begin, layout.traced_end,
                       tracer, report);
    report_traced_phase(traced, tracer, before, counters(engine), report);
  }

  Ledger& ledger = s.ledger;
  for (const Outcome& o : open) ledger.add(o);
  for (const Outcome& o : traced) ledger.add(o);

  const Counters closed_before = counters(engine);
  const ClosedLoop closed = closed_loop(
      engine, s.stream, stream_keys(s.stream, layout.closed_begin, layout.closed_end),
      (1.0 - kOpenShare) * opt.seconds, spec.zipf, ledger, report);
  const Counters closed_after = counters(engine);

  const std::vector<double> lat = latencies(open);
  report.set("latency_p50_ms", 1e3 * windowed_quantile(lat, 0.50));
  report.set("serve.latency_p99_ms", 1e3 * windowed_quantile(lat, 0.99));
  report.set("throughput_rps", closed.rps);
  report.note("closed_loop_served", std::to_string(closed.served));
  std::vector<double> lags;
  for (const Outcome& o : open) lags.push_back(o.lag_s);
  const double lag_p99 = nearest_rank(lags, 0.99);
  const bool behind = lag_p99 > 0.010;
  report.note("sender_lag_p99_ms", std::to_string(1e3 * lag_p99));
  report.note("sender_behind", behind ? "yes (open-loop latencies are suspect)" : "no");
  if (behind)
    std::fprintf(stderr, "perfbench: open-loop sender fell behind its schedule\n");

  // svm.test_auc: decision values of labelled held-out points as served — the
  // open-loop phase's distinct points, or every Zipf key (all served in
  // warm-up).
  std::vector<int> auc_y;
  std::vector<double> auc_f;
  if (spec.zipf) {
    for (const auto& [key, dv] : ledger.first) {
      auc_y.push_back(s.stream_y[static_cast<std::size_t>(key)]);
      auc_f.push_back(dv);
    }
  } else {
    for (const Outcome& o : open)
      if (o.served) {
        auc_y.push_back(s.stream_y[static_cast<std::size_t>(o.key)]);
        auc_f.push_back(o.decision_value);
      }
  }
  const double auc = qkmps::svm::roc_auc(auc_y, auc_f);
  report.set("svm.test_auc", auc);
  report.note("test_auc", std::to_string(auc));

  // Output checks: a seeded sample of served points against the
  // sequential pipeline (and the bundle as trained, before save/load),
  // then the same points resubmitted.
  Rng rng(opt.seed ^ 0x5e12e5ULL);
  std::vector<idx> sample;
  for (int i = 0; i < kSampled; ++i)
    sample.push_back(open[rng.uniform_int(open.size())].key);
  const RealMatrix sample_x = take_rows(s.stream.unique_points, sample);
  const std::vector<double> ref = reference_values(*s.loaded, sample_x);
  const std::vector<double> ref_trained = reference_values(s.bundle, sample_x);
  for (std::size_t i = 0; i < sample.size(); ++i) {
    report.check(same_bits(ref[i], ref_trained[i]),
                 "bundle save -> load reproduces decision value " + std::to_string(i));
    const auto it = ledger.first.find(sample[i]);
    report.check(it != ledger.first.end() && same_bits(it->second, ref[i]),
                 "served prediction matches the sequential pipeline for key " +
                     std::to_string(sample[i]));
  }
  closed_loop(engine, s.stream, sample, 0, false, ledger, report);
  report.check(ledger.mismatches == 0,
               "every repeat of a key returns identical bits (" +
                   std::to_string(ledger.repeats) + " repeats)");
  report.note("repeats_compared", std::to_string(ledger.repeats));

  if (!opt.trace) return;
  report.set("data.load_s", median(load_s));
  report.set("bundle.save_s", median(save_s));
  report.set("bundle.load_s", median(bundle_load_s));
  report.set("bundle.mib", s.bundle_mib);
  const auto& g = s.gram_stats;
  const double sim_cpu = g.phases.total("simulation");
  const double ip_cpu = g.phases.total("inner_product");
  report.set("kernel.gram_s", s.gram_s);
  report.set("kernel.sim_cpu_s", sim_cpu);
  report.set("kernel.ip_cpu_s", ip_cpu);
  report.set("kernel.inner_products", static_cast<double>(g.inner_products));
  report.set("kernel.circuits_per_point",
             static_cast<double>(g.circuits_simulated + s.x_train.rows()) /
                 static_cast<double>(s.x_train.rows()));
  report.set("parallel.wait_s", g.phases.total("communication"));
  report.set("parallel.efficiency", (sim_cpu + ip_cpu) / (kRanks * s.gram_s));
  report.set("svm.fit_s", s.fit_s);
  report.set("svm.iterations", static_cast<double>(s.model.iterations));
  report.set("svm.support_vectors", static_cast<double>(s.model.support_vector_count()));
  report.set("serve.batch_size", (closed_after.completed - closed_before.completed) /
                                     (closed_after.batches - closed_before.batches));
  std::vector<double> traced_lat = latencies(traced);
  report.set("bench.trace_overhead", nearest_rank(traced_lat, 0.5) / nearest_rank(lat, 0.5));
  report.set("bench.generator_lag_ms", 1e3 * lag_p99);
  probe_layers(s.loaded->config, s.loaded->scaler.transform(sample_x), opt.seed, report);
}

}  // namespace perfbench
