// Extension experiment: cross-device generalization. The paper's dataset
// comes from ONE instrumented handset (§V-A), so signatures may bind to
// that device's identifier values. Here we train on device A's market and
// apply the signatures to the *same market observed from device B* (same
// apps, services, templates; different IMEI/IMSI/ANDROID_ID/ICCID).
//
// Expectation: signatures whose tokens are identifier *values* stop
// matching; signatures keyed on template context (or on values shared
// across devices, like the carrier name) survive. This quantifies §III-B's
// point that UDID-based tracking is device-bound — and the limits of
// training leak detectors on a single handset.

#include <cstdio>

#include "bench_util.h"
#include "core/payload_check.h"
#include "core/pipeline.h"
#include "eval/experiment.h"
#include "eval/table_format.h"

int main(int argc, char** argv) {
  using namespace leakdet;
  bench::TraceArgs args = bench::ParseArgs(argc, argv);

  sim::TrafficConfig config_a;
  config_a.seed = args.seed;
  config_a.scale = args.scale;
  config_a.device_seed = 1001;
  sim::TrafficConfig config_b = config_a;
  config_b.device_seed = 2002;

  std::printf("generating the same market from two handsets...\n");
  sim::Trace trace_a = sim::GenerateTrace(config_a);
  sim::Trace trace_b = sim::GenerateTrace(config_b);
  std::printf("  device A imei=%s  device B imei=%s\n\n",
              trace_a.device.imei.c_str(), trace_b.device.imei.c_str());

  // Train on device A.
  std::vector<core::HttpPacket> suspicious_a, normal_a;
  trace_a.SplitByTruth(&suspicious_a, &normal_a);
  core::PipelineOptions options;
  options.seed = args.seed;
  options.sample_size = static_cast<size_t>(500 * args.scale + 0.5);
  auto result = core::RunPipeline(suspicious_a, normal_a, options);
  if (!result.ok()) {
    std::fprintf(stderr, "pipeline: %s\n", result.status().ToString().c_str());
    return 1;
  }
  core::Detector detector(std::move(result->signatures));

  eval::TablePrinter table(
      {"evaluated on", "TP (paper formula)", "FN", "FP", "detected carrier",
       "detected other"});
  const std::pair<const sim::Trace*, const char*> entries[] = {
      {&trace_a, "device A (training device)"},
      {&trace_b, "device B (unseen device)"},
  };
  for (const auto& entry : entries) {
    const sim::Trace& trace = *entry.first;
    eval::ConfusionCounts counts = eval::EvaluateDetector(
        detector, trace, options.sample_size);
    eval::DetectionRates rates = eval::ComputePaperRates(counts);
    // Which detected leaks are carrier-valued (shared across devices)?
    size_t carrier_hits = 0, other_hits = 0;
    for (const sim::LabeledPacket& lp : trace.packets) {
      if (!lp.sensitive() || !detector.IsSensitive(lp.packet)) continue;
      bool carrier = false;
      for (auto t : lp.truth) {
        if (t == core::SensitiveType::kCarrier) carrier = true;
      }
      (carrier ? carrier_hits : other_hits)++;
    }
    table.AddRow({entry.second, eval::FormatPercent(rates.tp),
                  eval::FormatPercent(rates.fn),
                  eval::FormatPercent(rates.fp),
                  std::to_string(carrier_hits), std::to_string(other_hits)});
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf(
      "Signatures trained on one handset carry its identifier values as "
      "tokens; on another handset only template-context and shared-value "
      "(carrier) signatures still fire. Production deployments must train "
      "per device or on value-free tokens — the cost of the paper's "
      "single-device methodology.\n");
  return 0;
}
