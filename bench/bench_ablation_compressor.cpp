// Ablation: NCD compressor choice (§IV-C uses "a compressor" abstractly).
// Compares LZW, LZ77+Huffman, and the order-0 entropy estimator on
// clustering quality and end-to-end detection at fixed N.

#include <chrono>
#include <cstdio>

#include "bench_util.h"
#include "eval/experiment.h"
#include "eval/table_format.h"

int main(int argc, char** argv) {
  using namespace leakdet;
  bench::TraceArgs args = bench::ParseArgs(argc, argv);
  sim::Trace trace = bench::GenerateBenchTrace(args);

  size_t n = static_cast<size_t>(300 * args.scale + 0.5);

  std::printf("Compressor ablation at N=%zu\n", n);
  eval::TablePrinter table({"compressor", "TP", "FN", "FP", "#sigs",
                            "cluster+siggen time"});
  for (const char* name : {"lzw", "lz77h", "entropy"}) {
    core::PipelineOptions options;
    options.seed = args.seed;
    options.sample_size = n;
    options.compressor = name;
    auto start = std::chrono::steady_clock::now();
    auto points = eval::RunDetectionSweep(trace, {n}, options);
    auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - start)
                       .count();
    if (!points.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", name,
                   points.status().ToString().c_str());
      continue;
    }
    const auto& p = (*points)[0];
    table.AddRow({name, eval::FormatPercent(p.paper.tp),
                  eval::FormatPercent(p.paper.fn),
                  eval::FormatPercent(p.paper.fp),
                  std::to_string(p.num_signatures),
                  std::to_string(elapsed) + " ms"});
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf(
      "lzw is the pipeline default (fast, low header overhead on short HTTP "
      "fields); lz77h has the sharpest self-similarity signal; the entropy "
      "estimator is a cheap approximation that ignores phrase structure.\n");
  return 0;
}
