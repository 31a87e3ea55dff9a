// Reproduces Figure 4: "Detection Rate of Sensitive Information Leakage" —
// TP / FN / FP percentages as the signature-generation sample N grows from
// 100 to 500, using the paper's §V-B formulas.

#include <cstdio>

#include "bench_util.h"
#include "eval/experiment.h"
#include "eval/table_format.h"
#include "sim/paper_tables.h"

int main(int argc, char** argv) {
  using namespace leakdet;
  bench::TraceArgs args = bench::ParseArgs(argc, argv);
  sim::Trace trace = bench::GenerateBenchTrace(args);

  std::vector<size_t> sample_sizes;
  for (const auto& row : sim::kPaperFig4) {
    sample_sizes.push_back(static_cast<size_t>(row.n * args.scale + 0.5));
  }

  core::PipelineOptions options;
  options.seed = args.seed;
  auto points = eval::RunDetectionSweep(trace, sample_sizes, options);
  if (!points.ok()) {
    std::fprintf(stderr, "sweep failed: %s\n",
                 points.status().ToString().c_str());
    return 1;
  }

  std::printf("Figure 4 — detection rate vs sample size N\n");
  eval::TablePrinter table({"N", "TP paper", "TP ours", "FN paper", "FN ours",
                            "FP paper", "FP ours", "#sigs", "#clusters"});
  for (size_t i = 0; i < points->size(); ++i) {
    const auto& paper = sim::kPaperFig4[i];
    const auto& p = (*points)[i];
    table.AddRow({std::to_string(p.n),
                  eval::FormatDouble(paper.tp_pct, 1) + "%",
                  eval::FormatPercent(p.paper.tp),
                  eval::FormatDouble(paper.fn_pct, 1) + "%",
                  eval::FormatPercent(p.paper.fn),
                  eval::FormatDouble(paper.fp_pct, 1) + "%",
                  eval::FormatPercent(p.paper.fp),
                  std::to_string(p.num_signatures),
                  std::to_string(p.num_clusters)});
  }
  std::printf("%s\n", table.Render().c_str());

  std::printf("cross-check (conventional metrics):\n");
  eval::TablePrinter std_table({"N", "recall", "FPR", "precision", "F1"});
  for (const auto& p : *points) {
    std_table.AddRow({std::to_string(p.n),
                      eval::FormatPercent(p.standard.recall),
                      eval::FormatPercent(p.standard.fpr),
                      eval::FormatPercent(p.standard.precision),
                      eval::FormatPercent(p.standard.f1)});
  }
  std::printf("%s\n", std_table.Render().c_str());
  std::printf(
      "paper §V-B rows: N=100 (85%% TP, 15%% FN, 0.3%% FP), N=200 (>90%% TP, "
      "<=8%% FN, 0.9%% FP), N=500 (94%% TP, 5%% FN, 2.3%% FP); N=300/400 "
      "columns are read off the figure.\n\n");

  // Per-type coverage at the largest N: which Table III categories the
  // final signature set actually catches.
  {
    std::vector<core::HttpPacket> suspicious, normal;
    trace.SplitByTruth(&suspicious, &normal);
    core::PipelineOptions final_options = options;
    final_options.sample_size = sample_sizes.back();
    final_options.seed =
        options.seed + (sample_sizes.size() - 1) * 0x9E37u;
    auto result = core::RunPipeline(suspicious, normal, final_options);
    if (result.ok()) {
      core::Detector detector(std::move(result->signatures));
      std::printf("per-type detection at N=%zu:\n", sample_sizes.back());
      eval::TablePrinter type_table({"type", "detected", "total", "rate"});
      for (const auto& row : eval::PerTypeDetection(detector, trace)) {
        type_table.AddRow({std::string(core::SensitiveTypeName(row.type)),
                           std::to_string(row.detected),
                           std::to_string(row.total),
                           eval::FormatPercent(row.rate())});
      }
      std::printf("%s", type_table.Render().c_str());
    }
  }
  return 0;
}
