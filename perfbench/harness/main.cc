// psc_perfbench: runs one benchmark workload and prints one raw JSON
// record on stdout (samples, counts, per-layer metrics). run.py builds this
// binary, invokes it and turns the record into the benchmark's metrics.
//
//   psc_perfbench --workload serve_mix|oneshot_federation|mc_fleet
//                 --seed N --seconds S [--trace 0|1] [--pscd PATH]
//                 [--stall-ms MS --stall-at-s S] [--rung-seconds S]
//   psc_perfbench --gen --workload W --seed N   # dump generated inputs

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "inputs.h"

namespace {

bool ParseArgs(int argc, char** argv, perfbench::Options* options,
               bool* gen) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--gen") {
      *gen = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options->workload = value;
    } else if (arg == "--seed") {
      options->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options->seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      options->trace = value == "1";
    } else if (arg == "--pscd") {
      options->pscd = value;
    } else if (arg == "--stall-ms") {
      options->stall_ms = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--stall-at-s") {
      options->stall_at_s = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--rung-seconds") {
      options->rung_seconds = std::strtod(value.c_str(), nullptr);
    } else {
      return false;
    }
  }
  return !options->workload.empty() && options->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool gen = false;
  if (!ParseArgs(argc, argv, &options, &gen)) {
    std::fprintf(stderr,
                 "usage: psc_perfbench --workload W --seed N --seconds S "
                 "[--trace 0|1] [--pscd PATH] [--gen]\n");
    return 2;
  }
  if (gen) {
    std::fputs(perfbench::DumpInputs(options.workload, options.seed).c_str(),
               stdout);
    return 0;
  }
  perfbench::RunResult result;
  int rc = 2;
  if (options.workload == "serve_mix") {
    rc = perfbench::RunServeMix(options, &result);
  } else if (options.workload == "oneshot_federation") {
    rc = perfbench::RunOneshotFederation(options, &result);
  } else if (options.workload == "mc_fleet") {
    rc = perfbench::RunMcFleet(options, &result);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", options.workload.c_str());
    return 2;
  }
  const std::string env = perfbench::Json()
                              .Int("resolved_threads", static_cast<int64_t>(
                                                           perfbench::ResolvedThreads()))
                              .Bool("obs_compiled", PSC_OBS_ENABLED != 0)
                              .Finish();
  std::printf("%s\n", perfbench::Json()
                          .Raw("env", env)
                          .Raw("result", result.ToJson())
                          .Finish()
                          .c_str());
  return rc;
}
