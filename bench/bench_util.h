#ifndef LEAKDET_BENCH_BENCH_UTIL_H_
#define LEAKDET_BENCH_BENCH_UTIL_H_

// Shared helpers for the table/figure reproduction binaries.
//
// Every reproduction bench accepts:
//   --scale=<f>   dataset scale (1.0 = the paper's 1,188 apps / ~108k packets)
//   --seed=<n>    generator seed
// and prints the paper's published row next to the measured row.

#include <cstdio>
#include <cstdlib>

#include "sim/trafficgen.h"
#include "util/flags.h"

namespace leakdet::bench {

struct TraceArgs {
  double scale = 1.0;
  uint64_t seed = 42;
};

inline TraceArgs ParseArgs(int argc, char** argv) {
  Flags flags(argc, argv);
  TraceArgs args;
  args.scale = flags.Double("scale", args.scale);
  args.seed = flags.Uint("seed", args.seed);
  if (flags.Bool("help")) {
    std::printf("%s\n", flags.Usage().c_str());
    std::exit(0);
  }
  flags.Finish();
  return args;
}

inline sim::Trace GenerateBenchTrace(const TraceArgs& args) {
  sim::TrafficConfig config;
  config.seed = args.seed;
  config.scale = args.scale;
  std::printf("generating trace (scale=%.3f seed=%llu)...\n", args.scale,
              static_cast<unsigned long long>(args.seed));
  sim::Trace trace = sim::GenerateTrace(config);
  std::printf("  %zu packets, %zu apps, %zu services\n\n",
              trace.packets.size(), trace.population.apps.size(),
              trace.services.size());
  return trace;
}

}  // namespace leakdet::bench

#endif  // LEAKDET_BENCH_BENCH_UTIL_H_
