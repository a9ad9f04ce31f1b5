/// Repository benchmark driver: runs one workload and prints its metrics.
///
///   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///             --workdir <dir>
///
/// Prints input fingerprints and a readable metric table, then as the last
/// line one JSON object {correct, attempted, failed, metrics}. Exit status
/// is 0 only when every output check passed and no operation failed.

#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "train-wide|train-deep|serve-unique|serve-zipf --seed N "
               "--seconds S --trace 0|1 --workdir DIR\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") opt.workload = value;
      else if (key == "--seed") opt.seed = std::stoull(value);
      else if (key == "--seconds") opt.seconds = std::stod(value);
      else if (key == "--trace") opt.trace = std::stoi(value) != 0;
      else if (key == "--workdir") opt.workdir = value;
      else return usage(("unknown option " + key).c_str());
    } catch (const std::exception&) {
      return usage(("bad value for " + key).c_str());
    }
  }
  if (argc % 2 == 0) return usage("options come in pairs");
  if (opt.workdir.empty()) return usage("--workdir is required");
  if (!(opt.seconds > 0)) return usage("--seconds must be positive");

  perfbench::Report report;
  try {
    std::filesystem::create_directories(opt.workdir);
    report.note("workload", opt.workload);
    report.note("seed", std::to_string(opt.seed));
    if (opt.workload == "train-wide")
      perfbench::run_train(opt, {.features = 165, .distance = 1, .layers = 2,
                                 .gamma = 0.1, .per_class = 400}, report);
    else if (opt.workload == "train-deep")
      perfbench::run_train(opt, {.features = 16, .distance = 3, .layers = 2,
                                 .gamma = 0.5, .per_class = 60}, report);
    else if (opt.workload == "serve-unique")
      perfbench::run_serve(opt, {.zipf = false, .rate_rps = 32.0}, report);
    else if (opt.workload == "serve-zipf")
      perfbench::run_serve(opt, {.zipf = true, .rate_rps = 400.0}, report);
    else
      return usage(("unknown workload " + opt.workload).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
  report.set("peak_rss_mib", perfbench::peak_rss_mib());
  report.set("ok_frac", 1.0 - static_cast<double>(report.failed()) /
                                  static_cast<double>(std::max<std::uint64_t>(report.attempted(), 1)));
  const bool complete = report.print(opt.trace);
  return complete && report.correct() ? 0 : 1;
}
