#pragma once

/// The benchmark's workloads. README.md says why each exists.

#include "harness.hpp"
#include "util/types.hpp"

namespace perfbench {

/// Paper pipeline: labelled draw -> distributed Gram (RoundRobin) ->
/// distributed cross kernel -> SVM fit -> held-out decision values.
struct TrainSpec {
  qkmps::idx features;   ///< m (qubits)
  qkmps::idx distance;   ///< d, interaction distance
  qkmps::idx layers;     ///< r
  double gamma;
  qkmps::idx per_class;  ///< balanced draw; 80/20 train/test split
};
void run_train(const Options& opt, const TrainSpec& spec, Report& report);

/// Served path: a bundle trained on 256 points behind a 2-shard
/// ShardedEngine, driven open loop at a fixed rate and then closed loop.
struct ServeSpec {
  bool zipf;        ///< Zipf over 400 points; otherwise every request distinct
  double rate_rps;  ///< open-loop arrival rate
};
void run_serve(const Options& opt, const ServeSpec& spec, Report& report);

}  // namespace perfbench
