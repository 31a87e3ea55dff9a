// Ablation: which parts of the §IV packet distance matter?
//  - combined (paper, distance orientation)     d_dst + d_header
//  - destination-only                           d_dst
//  - content-only                               d_header
//  - literal similarity orientation             d_ip/d_port as printed
// Each variant clusters the same N-sample and is scored on the full trace.

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
    const char* name;
    core::DistanceOptions distance;
    double cut_height;
  };
  core::DistanceOptions combined;
  core::DistanceOptions dst_only;
  dst_only.use_content = false;
  core::DistanceOptions content_only;
  content_only.use_destination = false;
  core::DistanceOptions literal;
  literal.literal_similarity_orientation = true;
  // WHOIS-verified IP distance (§VI's suggestion).
  net::OrgRegistry registry = sim::BuildOrgRegistry(trace.services);
  core::DistanceOptions verified;
  verified.org_registry = &registry;
  // Cut heights chosen per variant range: each composite has a different
  // maximum (3 for the single-sided variants, 6 for combined).
  const Variant variants[] = {
      {"combined (paper)", combined, 2.0},
      {"destination-only", dst_only, 1.0},
      {"content-only", content_only, 1.0},
      {"literal ip/port orientation", literal, 2.0},
      {"combined + WHOIS-verified ip", verified, 2.0},
  };

  std::printf("Distance ablation at N=%zu\n", n);
  eval::TablePrinter table(
      {"variant", "TP (paper formula)", "FN", "FP", "#sigs", "#clusters"});
  for (const Variant& v : variants) {
    core::PipelineOptions options;
    options.seed = args.seed;
    options.sample_size = n;
    options.distance = v.distance;
    options.cut_height = v.cut_height;
    auto points = eval::RunDetectionSweep(trace, {n}, options);
    if (!points.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", v.name,
                   points.status().ToString().c_str());
      continue;
    }
    const auto& p = (*points)[0];
    table.AddRow({v.name, eval::FormatPercent(p.paper.tp),
                  eval::FormatPercent(p.paper.fn),
                  eval::FormatPercent(p.paper.fp),
                  std::to_string(p.num_signatures),
                  std::to_string(p.num_clusters)});
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf(
      "The combined distance is the paper's design point (§IV-A): the "
      "destination half keeps clusters module-specific, the content half "
      "separates leaking from non-leaking packets at the same server.\n");
  return 0;
}
