// The three workloads: serve, train and loop. Each runs its measured phase
// with tracing off, then its correctness oracles outside the timed windows.
//
// Every workload reports every end-to-end metric. A workload's measured
// phase gives the figures it exists for; the others come from the nearest
// operation the workload performs, or from small fixed probes: between the
// serve replay's rounds, after the loop's live phase (the table in
// README.md says which).
#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>

#include "bench.h"
#include "compress/compressor.h"
#include "compress/ncd.h"
#include "core/detector.h"
#include "core/distance.h"
#include "core/payload_check.h"
#include "util/rng.h"

namespace e2e {

namespace core = leakdet::core;
namespace match = leakdet::match;

namespace {

// Work per run is a fixed function of --seconds, sized so that a run on a
// 4-core x86-64 host measures for about that long: the work, not the
// clock, ends a run, so CPU time and counts compare across commits.
constexpr double kServeRoundsPerSecond = 3.2;  // trace replays (~108k each)
constexpr double kColdEpochsPerSecond = 1.0;
constexpr double kWarmEpochsPerSecond = 1.75;
constexpr double kLoopRate = 1000;  // packets/s, open loop
// Warm epochs that fill the NCD sidecar before the timed ones.
constexpr size_t kWarmupEpochs = 3;
// Fixed-size probes (outside cpu_s and peak_rss_mb) give a workload the
// training figures its phase lacks.
constexpr size_t kProbeColdEpochs = 10;
constexpr size_t kProbeWarmEpochs = 20;
// The loop's warm probe runs back to back after the live phase, so it runs
// longer to span more fast and slow stretches of a shared host (3 + 32
// epochs stay within the 40 slices the pool grows by).
constexpr size_t kLoopProbeWarmEpochs = 32;
// Per-epoch times are reported as the mean without the lowest and highest
// tenth: on a shared VM the cores can switch between a fast and a slow state
// every few seconds, which moves a median of a run's epochs between the two.
constexpr double kTrim = 0.1;
// The train workload's direct-match figures use every 8th trace packet
// per compiled epoch.
constexpr size_t kDirectStride = 8;

size_t PerSecond(double per_second, int seconds, size_t at_least) {
  return std::max(at_least, static_cast<size_t>(per_second * seconds + 0.5));
}

/// Recall and false-positive rate of `verdicts` against the labels.
void CheckDetectionQuality(const Input& input,
                           const std::vector<uint8_t>& verdicts,
                           const std::string& what, Checks* checks) {
  size_t tp = 0;
  size_t fp = 0;
  for (size_t i = 0; i < verdicts.size(); ++i) {
    if (verdicts[i] && input.leaking[i]) ++tp;
    if (verdicts[i] && !input.leaking[i]) ++fp;
  }
  const double recall =
      static_cast<double>(tp) / static_cast<double>(input.num_leaking);
  const double fpr = static_cast<double>(fp) /
                     static_cast<double>(verdicts.size() - input.num_leaking);
  char line[160];
  std::snprintf(line, sizeof(line),
                "%s: recall %.4f >= 0.90 and false-positive rate %.4f <= 0.03",
                what.c_str(), recall, fpr);
  std::printf("%s\n", line);
  checks->Expect(recall >= 0.90 && fpr <= 0.03, line);
}

/// Whether step `i` of `n` is one of `k` steps spread evenly over them.
bool Spread(size_t i, size_t n, size_t k) {
  return (i + 1) * k / n != i * k / n;
}

/// The train workload's oracles for one cold epoch, each computed apart
/// from the code that produced the epoch.
void CheckColdEpoch(const Input& input, const ColdEpoch& epoch,
                    uint64_t feed_version, bool check_matrix,
                    Checks* checks) {
  const std::string tag = "epoch " + std::to_string(feed_version) + ": ";
  // PayloadCheck::Split against the generator's labels, packet by packet.
  bool split_ok = epoch.suspicious.size() == input.num_leaking &&
                  epoch.normal.size() == input.packets.size() - input.num_leaking;
  for (size_t i = 0, s = 0, m = 0; split_ok && i < input.packets.size(); ++i) {
    const HttpPacket& got = input.leaking[i] ? epoch.suspicious[s++]
                                             : epoch.normal[m++];
    split_ok = got == input.packets[i];
  }
  checks->Expect(split_ok, tag + "PayloadCheck::Split agrees with the labels");

  const core::PipelineOptions options = PaperPipeline(feed_version, 0);
  const core::PipelineResult& result = epoch.pipeline;
  // The screening corpus, drawn again from the pipeline's documented
  // sampling stream: N suspicious indices, then the normal corpus.
  leakdet::Rng rng(leakdet::MixSeed(options.seed, feed_version));
  std::vector<size_t> sampled = rng.SampleWithoutReplacement(
      epoch.suspicious.size(),
      std::min(options.sample_size, epoch.suspicious.size()));
  std::sort(sampled.begin(), sampled.end());
  checks->Expect(sampled == result.sampled_indices,
                 tag + "sample reproduced from the sampling stream");
  std::vector<std::string> corpus;
  for (size_t idx : rng.SampleWithoutReplacement(
           epoch.normal.size(),
           std::min(options.normal_corpus_size, epoch.normal.size()))) {
    corpus.push_back(core::PacketContent(epoch.normal[idx]));
  }

  // Tokens: long enough and present in every member of their cluster; no
  // signature matches more than max_signature_normal_fp of the corpus.
  const auto& signatures = result.signatures.signatures();
  size_t emitted = 0;
  bool tokens_ok = true;
  bool screen_ok = true;
  for (const core::SiggenClusterReport& report : result.cluster_reports) {
    if (!report.emitted) continue;
    if (emitted >= signatures.size()) {
      tokens_ok = false;
      break;
    }
    const match::ConjunctionSignature& sig = signatures[emitted++];
    for (int32_t member : result.clusters[report.cluster_index]) {
      const std::string content = core::PacketContent(
          epoch.suspicious[result.sampled_indices[member]]);
      for (const std::string& token : sig.tokens) {
        tokens_ok = tokens_ok &&
                    token.size() >= options.siggen.min_token_len &&
                    content.find(token) != std::string::npos;
      }
    }
    size_t hits = 0;
    for (const std::string& doc : corpus) {
      bool all = !sig.tokens.empty();
      for (const std::string& token : sig.tokens) {
        all = all && doc.find(token) != std::string::npos;
      }
      hits += all ? 1 : 0;
    }
    screen_ok = screen_ok &&
                static_cast<double>(hits) <=
                    options.siggen.max_signature_normal_fp *
                        static_cast<double>(corpus.size());
  }
  checks->Expect(tokens_ok && emitted == signatures.size(),
                 tag + "every token is >= min_token_len and in every member "
                       "of its cluster");
  checks->Expect(screen_ok, tag + "no signature matches more than "
                                  "max_signature_normal_fp of its corpus");

  if (!check_matrix) return;
  // The sample's distance matrix: zero diagonal, entries in [0, 6], and
  // equal in both orders to the serial PacketDistance reference on a
  // spread of pairs.
  std::vector<HttpPacket> sample;
  for (size_t idx : result.sampled_indices) {
    sample.push_back(epoch.suspicious[idx]);
  }
  auto compressor = leakdet::compress::MakeCompressor(options.compressor);
  if (!compressor.ok()) {
    checks->Expect(false, tag + "compressor available");
    return;
  }
  const core::DistanceMatrix matrix = core::ComputeDistanceMatrixParallel(
      sample, compressor->get(), options.distance, 0);
  bool range_ok = true;
  for (size_t i = 0; i < sample.size(); ++i) {
    range_ok = range_ok && matrix.at(i, i) == 0;
    for (size_t j = i + 1; j < sample.size(); ++j) {
      range_ok = range_ok && matrix.at(i, j) >= 0 && matrix.at(i, j) <= 6 &&
                 matrix.at(i, j) == matrix.at(j, i);
    }
  }
  leakdet::compress::NcdCalculator ncd(compressor->get());
  const core::PacketDistance reference(&ncd, options.distance);
  bool symmetric = true;
  for (size_t k = 0; k < 200 && sample.size() > 1; ++k) {
    const size_t i = (k * 7919) % sample.size();
    const size_t j = (k * 104729 + 1) % sample.size();
    const double forward = reference.Distance(sample[i], sample[j]);
    symmetric = symmetric && forward == reference.Distance(sample[j], sample[i]) &&
                forward == matrix.at(i, j);
  }
  checks->Expect(range_ok, tag + "distance matrix has a zero diagonal and "
                                 "entries in [0, 6]");
  checks->Expect(symmetric, tag + "distance matrix is symmetric and equals "
                                  "the PacketDistance reference");
}

}  // namespace

void RunServe(const Options& options, const Input& input, Result* result) {
  Checks* checks = &result->checks;
  const core::PayloadCheck check({input.device});
  const Clock::time_point train_start = Clock::now();
  ColdEpoch epoch = TrainColdEpoch(input, check, 0, checks);
  const Clock::time_point setup_done = Clock::now();

  // The training probes run between replay rounds, spread over the whole
  // replay, so they sample the same stretch of host time as the serving
  // figures: first the untimed warm-up epochs, then cold and timed warm
  // epochs interleaved.
  const size_t shards = std::max<size_t>(1, UsableCores() - 1);
  const size_t rounds = PerSecond(kServeRoundsPerSecond, options.seconds, 2);
  const size_t mixed = kProbeColdEpochs + kProbeWarmEpochs;
  const size_t probes = kWarmupEpochs + mixed;
  std::optional<WarmTrainer> warm;
  std::vector<double> cold_ms = {epoch.total_ms()};
  size_t probe = 0;
  auto between = [&](size_t round) {
    for (; probe < probes && probe * rounds < (round + 1) * probes; ++probe) {
      if (!warm) warm.emplace(epoch.suspicious, epoch.normal, checks);
      const size_t i = probe - std::min(probe, kWarmupEpochs);
      if (probe >= kWarmupEpochs && Spread(i, mixed, kProbeColdEpochs)) {
        cold_ms.push_back(
            TrainColdEpoch(input, check, cold_ms.size(), checks).total_ms());
      } else {
        warm->Epoch(/*timed=*/probe >= kWarmupEpochs);
      }
    }
  };
  const Replay replay = ReplayClosedLoop(input, epoch.compiled, shards, rounds,
                                         train_start, checks, between);

  core::Detector detector(epoch.compiled->set());
  std::vector<uint8_t> expected(input.packets.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    expected[i] = detector.IsSensitive(input.packets[i]) ? 1 : 0;
  }
  CheckDetectionQuality(input, expected, "served epoch", checks);

  // A batch server's freshness: a from-scratch epoch, then the time from
  // the served epoch being compiled to a verdict under it on every shard.
  const double swap_in_ms =
      replay.all_shards_serving_s * 1e3 - epoch.total_ms();
  const double cold_epoch_ms = TrimmedMean(cold_ms, kTrim);

  result->attempted = replay.attempted;
  result->failed = replay.failed;
  result->Set("setup_s", Seconds(options.process_start, setup_done), "s");
  result->Set("peak_rss_mb", replay.first_round_rss_mb, "MB");
  result->Set("cpu_s", replay.cpu_s, "s");
  result->Set("serve_verdicts_per_s", Median(replay.round_rates),
              "verdicts/s");
  result->Set("verdict_latency_p50_us",
              WindowedQuantile(replay.latency_us, replay.latency_round, 0.5),
              "us");
  result->Set("freshness_ms", cold_epoch_ms + swap_in_ms, "ms");
  result->Set("train_epoch_ms", cold_epoch_ms, "ms");
  result->Set("train_warm_epoch_ms",
              TrimmedMean(warm->epochs().train_ms, kTrim), "ms");
  std::printf("serve: %zu shards, %zu rounds, %llu verdicts, %zu signatures\n",
              shards, rounds, static_cast<unsigned long long>(replay.verdicts),
              epoch.compiled->num_signatures());
}

void RunTrain(const Options& options, const Input& input, Result* result) {
  Checks* checks = &result->checks;
  const core::PayloadCheck check({input.device});
  const Clock::time_point setup_done = Clock::now();

  const size_t cold_epochs = PerSecond(kColdEpochsPerSecond, options.seconds, 2);
  const size_t warm_epochs = PerSecond(kWarmEpochsPerSecond, options.seconds, 2);
  std::vector<double> cold_ms, direct_rate, direct_p50;
  double cpu_s = 0;
  ColdEpoch last;
  auto cold_epoch = [&]() {
    const uint64_t e = cold_ms.size();
    // Free the previous epoch first: one split at a time besides the warm
    // trainer's.
    last = ColdEpoch();
    last = TrainColdEpoch(input, check, e, checks);
    cold_ms.push_back(last.total_ms());
    cpu_s += last.cpu_s;
    result->failed += last.ok ? 0 : 1;
    CheckColdEpoch(input, last, e, /*check_matrix=*/e == 0, checks);
    const MatchPass direct =
        RunMatchPass(input, *last.compiled, kDirectStride, Timing::kPerPacket);
    direct_rate.push_back(static_cast<double>(direct.verdicts.size()) /
                          direct.seconds);
    direct_p50.push_back(Quantile(direct.latency_us, 0.5));
  };

  // The first cold epoch's split feeds the warm trainer. After its warm-up
  // epochs, the other cold epochs and the timed warm epochs are
  // interleaved, so both sample the whole run.
  cold_epoch();
  const std::vector<HttpPacket> suspicious = std::move(last.suspicious);
  const std::vector<HttpPacket> normal = std::move(last.normal);
  WarmTrainer warm(suspicious, normal, checks);
  for (size_t w = 0; w < kWarmupEpochs; ++w) warm.Epoch(/*timed=*/false);
  const size_t mixed = cold_epochs - 1 + warm_epochs;
  for (size_t i = 0; i < mixed; ++i) {
    if (Spread(i, mixed, cold_epochs - 1)) {
      cold_epoch();
    } else {
      warm.Epoch(/*timed=*/true);
    }
  }
  cpu_s += warm.epochs().cpu_s;
  result->failed += warm.epochs().failed;
  result->Set("peak_rss_mb", PeakRssMb(), "MB");
  std::vector<double> fresh_ms;
  for (size_t w = 0; w < warm.epochs().train_ms.size(); ++w) {
    fresh_ms.push_back(warm.epochs().train_ms[w] +
                       warm.epochs().compile_ms[w]);
  }

  // The last compiled epoch over the whole trace: detection quality and the
  // interpreted core::Detector as oracles.
  const MatchPass full = RunMatchPass(input, *last.compiled, 1, Timing::kNone);
  CheckDetectionQuality(input, full.verdicts, "last cold epoch", checks);
  core::Detector detector(last.compiled->set());
  size_t mismatches = 0;
  for (size_t i = 0; i < input.packets.size(); ++i) {
    mismatches += full.verdicts[i] != detector.IsSensitive(input.packets[i]);
  }
  checks->Expect(mismatches == 0,
                 "compiled epoch verdicts equal core::Detector (" +
                     std::to_string(mismatches) + " differ)");

  result->attempted = cold_epochs + kWarmupEpochs + warm_epochs;
  result->Set("setup_s", Seconds(options.process_start, setup_done), "s");
  result->Set("cpu_s", cpu_s, "s");
  result->Set("train_epoch_ms", TrimmedMean(cold_ms, kTrim), "ms");
  result->Set("train_warm_epoch_ms",
              TrimmedMean(warm.epochs().train_ms, kTrim), "ms");
  result->Set("freshness_ms", TrimmedMean(fresh_ms, kTrim), "ms");
  result->Set("serve_verdicts_per_s", Median(direct_rate), "verdicts/s");
  result->Set("verdict_latency_p50_us", Median(direct_p50), "us");
  std::printf("train: %zu cold epochs, %zu warm epochs, %zu signatures\n",
              cold_epochs, warm_epochs, last.compiled->num_signatures());
}

void RunLoop(const Options& options, const Input& input, Result* result) {
  Checks* checks = &result->checks;
  const size_t packets = PerSecond(kLoopRate, options.seconds, 1000);
  const LiveLoop live = RunLiveLoop(input, packets, kLoopRate, checks);
  result->Set("peak_rss_mb", PeakRssMb(), "MB");
  checks->Expect(!live.freshness_ms.empty(), "at least one epoch served");

  std::vector<HttpPacket> suspicious;
  std::vector<HttpPacket> normal;
  core::PayloadCheck({input.device}).Split(input.packets, &suspicious, &normal);

  result->attempted = live.packets;
  result->failed = live.failed;
  result->Set("setup_s", Seconds(options.process_start, live.setup_done), "s");
  result->Set("cpu_s", live.cpu_s, "s");
  result->Set("freshness_ms", TrimmedMean(live.freshness_ms, kTrim), "ms");
  result->Set("verdict_latency_p50_us", Quantile(live.latency_us, 0.5), "us");
  result->Set("serve_verdicts_per_s", live.delivered_per_s, "verdicts/s");
  result->Set("train_epoch_ms", TrimmedMean(live.pipeline_ms, kTrim), "ms");
  result->Set("train_warm_epoch_ms",
              TrimmedMean(RunWarmEpochs(suspicious, normal, kWarmupEpochs,
                                        kLoopProbeWarmEpochs, checks)
                              .train_ms,
                          kTrim),
              "ms");
  std::printf("loop: %llu packets at %.0f/s, %zu epochs, %zu served\n",
              static_cast<unsigned long long>(live.packets), kLoopRate,
              live.epochs, live.freshness_ms.size());
}

}  // namespace e2e
