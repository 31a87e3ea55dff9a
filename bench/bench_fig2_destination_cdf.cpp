// Reproduces Figure 2: cumulative frequency distribution of HTTP host
// destinations per application.

#include <cstdio>

#include "bench_util.h"
#include "eval/analysis.h"
#include "eval/table_format.h"
#include "sim/paper_tables.h"

int main(int argc, char** argv) {
  using namespace leakdet;
  bench::TraceArgs args = bench::ParseArgs(argc, argv);
  sim::Trace trace = bench::GenerateBenchTrace(args);

  eval::DestinationDistribution dist =
      eval::ComputeDestinationDistribution(trace);

  std::printf("Figure 2 — destinations per application (CDF)\n\n");
  std::printf("  dests   cumulative fraction of apps\n");
  for (int k : {1, 2, 4, 6, 8, 10, 12, 16, 20, 30, 50, 84}) {
    double frac = dist.CumulativeAt(k);
    std::printf("  %5d   %6.1f%%  |", k, frac * 100);
    int bars = static_cast<int>(frac * 50);
    for (int b = 0; b < bars; ++b) std::printf("#");
    std::printf("\n");
  }

  std::printf("\nheadline statistics (paper vs measured):\n");
  eval::TablePrinter table({"statistic", "paper", "measured"});
  table.AddRow({"apps with exactly 1 destination",
                "81 (7%)",
                std::to_string(dist.apps_with_one) + " (" +
                    eval::FormatPercent(dist.CumulativeAt(1)) + ")"});
  table.AddRow({"apps with <= 10 destinations", "74%",
                eval::FormatPercent(dist.frac_up_to_10)});
  table.AddRow({"apps with <= 16 destinations", "90%",
                eval::FormatPercent(dist.frac_up_to_16)});
  table.AddRow({"mean destinations", "7.9",
                eval::FormatDouble(dist.mean, 1)});
  table.AddRow({"max destinations (embedded browser)", "84",
                std::to_string(dist.max)});
  std::printf("%s", table.Render().c_str());
  return 0;
}
