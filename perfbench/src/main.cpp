// deepcam_bench: runs one benchmark workload and prints its metrics.
//
//   deepcam_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--out-dir DIR] [--commit SHA] [--source-digest HEX]
//
// Prints one line per metric, then the result object as the last line of
// standard output. Exits 1 when an output check fails, 2 on bad arguments.
#include <cstdio>
#include <fstream>
#include <iostream>

#include "bench.hpp"
#include "common/cli.hpp"

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  std::uint64_t trace = 0;
  deepcam::cli::Flags flags(
      "deepcam_bench",
      "DeepCAM host-speed, simulated-cost and fidelity benchmark");
  flags.option("workload", &cfg.workload, "workload name")
      .option("seed", &cfg.seed, "input seed")
      .option("seconds", &cfg.seconds, "measured seconds")
      .option("trace", &trace, "0 = end-to-end metrics, 1 = per-layer")
      .option("out-dir", &cfg.out_dir, "directory for the run record")
      .option("commit", &cfg.commit, "commit id for the record")
      .option("source-digest", &cfg.source_digest,
              "source digest for the record");
  if (!flags.parse(argc, argv) || cfg.workload.empty() || trace > 1) {
    std::cerr << (flags.error().empty() ? "missing or bad argument"
                                        : flags.error())
              << "\n"
              << flags.usage();
    return 2;
  }
  cfg.trace = trace == 1;

  try {
    const perfbench::RunResult res = perfbench::run_workload(cfg);
    for (const auto* list : {&res.metrics, &res.extra})
      for (const perfbench::Metric& m : *list)
        std::printf("%-28s %16.6g %-8s layer=%s repeats=%zu spread=%.4f\n",
                    m.name.c_str(), m.value, m.unit.c_str(), m.layer.c_str(),
                    m.repeats, m.spread);
    for (const perfbench::Check& c : res.checks)
      std::printf("check %-36s %s  %s\n", c.name.c_str(),
                  c.ok ? "ok" : "FAILED", c.detail.c_str());
    if (!cfg.out_dir.empty())
      std::ofstream(perfbench::artifact_base(cfg) + ".json")
          << perfbench::record_json(cfg, res) << "\n";
    if (!res.correct()) {
      std::fprintf(stderr, "output check failed\n");
      return 1;
    }
    std::printf("%s\n", perfbench::result_line(res).c_str());
    std::fflush(stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "deepcam_bench: %s\n", e.what());
    return 1;
  }
}
