// Ablation: signature-generation knobs DESIGN.md calls out.
//   a) dendrogram cut height (per-module vs per-SDK vs merged clustering);
//   b) minimum invariant-token length (the "GET *" degeneracy guard);
//   c) normal-corpus screening on/off (the paper has no screen — this is
//      where its "verbose signatures" FP growth comes from);
//   d) host-scoped matching on/off (destination-specific signatures).

#include <cstdio>

#include "bench_util.h"
#include "eval/experiment.h"
#include "eval/table_format.h"

int main(int argc, char** argv) {
  using namespace leakdet;
  bench::TraceArgs args = bench::ParseArgs(argc, argv);
  sim::Trace trace = bench::GenerateBenchTrace(args);

  size_t n = static_cast<size_t>(300 * args.scale + 0.5);

  struct Variant {
    std::string name;
    core::PipelineOptions options;
  };
  std::vector<Variant> variants;
  {
    core::PipelineOptions base;
    base.seed = args.seed;

    for (double cut : {1.0, 1.5, 2.0, 2.5, 3.0}) {
      Variant v{"cut height " + eval::FormatDouble(cut, 1), base};
      v.options.cut_height = cut;
      variants.push_back(v);
    }
    for (size_t len : {4ul, 6ul, 10ul, 16ul}) {
      Variant v{"min token len " + std::to_string(len), base};
      v.options.siggen.min_token_len = len;
      variants.push_back(v);
    }
    {
      Variant v{"no normal-corpus screens (paper)", base};
      v.options.siggen.max_token_normal_df = 1.0;
      v.options.siggen.max_signature_normal_fp = 1.0;
      variants.push_back(v);
    }
    {
      Variant v{"host-scoped matching", base};
      v.options.siggen.scope_by_host = true;
      variants.push_back(v);
    }
  }

  std::printf("Signature-generation ablation at N=%zu\n", n);
  eval::TablePrinter table({"variant", "TP", "FN", "FP", "#sigs"});
  for (const Variant& v : variants) {
    auto points = eval::RunDetectionSweep(trace, {n}, v.options);
    if (!points.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", v.name.c_str(),
                   points.status().ToString().c_str());
      continue;
    }
    const auto& p = (*points)[0];
    table.AddRow({v.name, eval::FormatPercent(p.paper.tp),
                  eval::FormatPercent(p.paper.fn),
                  eval::FormatPercent(p.paper.fp),
                  std::to_string(p.num_signatures)});
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf(
      "Reading guide: very low cut heights fragment modules into app-level "
      "clusters (recall drops); very high cuts merge services (signatures "
      "die in screening or go generic). Short tokens and unscreened "
      "generation raise FP — §VI's degenerate-signature warning.\n");
  return 0;
}
