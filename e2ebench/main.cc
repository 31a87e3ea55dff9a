// leakdet_e2e: the end-to-end benchmark program. Generates the seed's paper
// trace, runs one workload (or, with --trace 1, the per-layer ledger), and
// prints as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
//   leakdet_e2e --workload serve|train|loop --seed N --seconds S --trace 0|1
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.h"

namespace {

bool ParseArgs(int argc, char** argv, e2e::Options* options) {
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options->workload = value;
      have_workload = options->workload == "serve" ||
                      options->workload == "train" ||
                      options->workload == "loop";
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value, &end, 10);
      have_seed = *value != '\0' && *end == '\0';
    } else if (flag == "--seconds") {
      options->seconds = static_cast<int>(std::strtol(value, &end, 10));
      have_seconds = *end == '\0' && options->seconds >= 1 &&
                     options->seconds <= 600;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      options->trace = value[0] == '1';
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Options options;
  options.process_start = e2e::Clock::now();
  if (!ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: leakdet_e2e --workload serve|train|loop --seed N "
                 "--seconds S [--trace 0|1]\n");
    return 2;
  }
  try {
    const e2e::Input input = e2e::MakeInput(options.seed);
    std::printf("trace: seed=%llu packets=%zu leaking=%zu digest=%016llx\n",
                static_cast<unsigned long long>(options.seed),
                input.packets.size(), input.num_leaking,
                static_cast<unsigned long long>(input.digest));
    e2e::Result result;
    if (options.trace) {
      e2e::RunLedger(options, input, &result);
    } else if (options.workload == "serve") {
      e2e::RunServe(options, input, &result);
    } else if (options.workload == "train") {
      e2e::RunTrain(options, input, &result);
    } else {
      e2e::RunLoop(options, input, &result);
    }
    std::printf("checks: %zu run, %s\n", result.checks.count(),
                result.checks.ok() ? "all passed" : "FAILED");
    std::string metrics;
    for (const auto& [name, value] : result.metrics) {
      char buf[128];
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, "
                    "\"unit\": \"%s\"}", metrics.empty() ? "" : ", ",
                    name.c_str(), value.first, value.second.c_str());
      metrics += buf;
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                result.checks.ok() ? "true" : "false",
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed),
                metrics.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "leakdet_e2e: %s\n", e.what());
    return 1;
  }
}
