// The traced run (--trace 1): one per-layer ledger over the seed's trace,
// the same for every workload, taken apart from the untraced end-to-end
// runs. Spans are timed from this file around calls into each layer's
// public functions; layers that run only on the program's own threads
// (retrain stages, WAL appends, snapshots) are read from the stats and
// histograms the program already exports. README.md maps every figure to
// the end-to-end metric and workload it should move.
#include <algorithm>
#include <cstdio>
#include <numeric>
#include <string>

#include "bench.h"
#include "core/payload_check.h"
#include "prefilter/prefilter.h"

namespace e2e {

namespace core = leakdet::core;
namespace match = leakdet::match;
namespace prefilter = leakdet::prefilter;

namespace {

constexpr size_t kColdEpochs = 3;
constexpr size_t kPasses = 3;          // per direct-match variant
constexpr size_t kReplayRounds = 3;    // per gateway shard count
constexpr size_t kLoopPackets = 6000;  // live loop at kLoopRate
constexpr double kLoopRate = 1000;

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double Ms(uint64_t ns) { return static_cast<double>(ns) / 1e6; }

}  // namespace

void RunLedger(const Options& /*options*/, const Input& input,
               Result* result) {
  Checks* checks = &result->checks;
  const double n = static_cast<double>(input.packets.size());
  const core::PayloadCheck check({input.device});

  // Training path: split, distance, clustering, siggen, compile.
  std::vector<double> split_ns, distance_ms, hcluster_ms, siggen_ms,
      compile_ms, pairs_per_s;
  ColdEpoch epoch;
  for (size_t e = 0; e < kColdEpochs; ++e) {
    epoch = TrainColdEpoch(input, check, e, checks);
    const core::DistanceMatrixStats& stats = epoch.pipeline.distance_stats;
    split_ns.push_back(epoch.split_ms * 1e6 / n);
    distance_ms.push_back(Ms(stats.distance_build_ns));
    hcluster_ms.push_back(Ms(stats.cluster_ns));
    siggen_ms.push_back(Ms(stats.siggen_ns));
    compile_ms.push_back(epoch.compile_ms);
    pairs_per_s.push_back(static_cast<double>(stats.ncd_pairs_computed) /
                          (Ms(stats.distance_build_ns) / 1e3));
  }
  const core::DistanceMatrixStats& stats = epoch.pipeline.distance_stats;
  const match::CompiledSignatureSet& served = *epoch.compiled;
  result->Set("core.payload_check_ns", Median(split_ns), "ns");
  result->Set("core.distance_ms", Median(distance_ms), "ms");
  result->Set("core.hcluster_ms", Median(hcluster_ms), "ms");
  result->Set("core.siggen_ms", Median(siggen_ms), "ms");
  result->Set("core.signatures", static_cast<double>(served.num_signatures()),
              "count");
  result->Set("core.clusters",
              static_cast<double>(epoch.pipeline.clusters.size()), "count");
  result->Set("compress.ncd_pairs_computed",
              static_cast<double>(stats.ncd_pairs_computed), "count");
  result->Set("compress.ncd_hit_rate", stats.ncd_hit_rate(), "ratio");
  result->Set("compress.singleton_compressions",
              static_cast<double>(stats.singleton_compressions), "count");
  result->Set("compress.ncd_pairs_per_s", Median(pairs_per_s), "pairs/s");
  result->Set("match.compile_ms", Median(compile_ms), "ms");

  std::vector<std::vector<std::string>> sig_tokens;
  size_t host_scoped = 0;
  for (const match::ConjunctionSignature& sig : served.set().signatures()) {
    sig_tokens.push_back(sig.tokens);
    host_scoped += sig.host_scope.empty() ? 0 : 1;
  }
  std::printf("ledger: %zu of %zu signatures are host-scoped\n", host_scoped,
              served.num_signatures());
  std::vector<double> build_ms;
  for (size_t i = 0; i < 5; ++i) {
    const Clock::time_point t0 = Clock::now();
    const prefilter::Prefilter built = prefilter::Prefilter::Build(sig_tokens);
    build_ms.push_back(Seconds(t0, Clock::now()) * 1e3);
    checks->Expect(built.num_windows() == served.prefilter().num_windows(),
                   "prefilter rebuild matches the compiled epoch's");
  }
  result->Set("prefilter.build_ms", Median(build_ms), "ms");
  result->Set("prefilter.windows",
              static_cast<double>(served.prefilter().num_windows()), "count");

  // Match path, one thread: untraced passes give the direct baseline;
  // traced passes time each layer's call, then the prefilter scan and the
  // full DFA apart (how often the screen passes a packet on, how often a
  // passed packet then matches nothing, and what each costs).
  std::vector<double> plain_s, content_ns, domain_ns, prefiltered_ns, scan_ns,
      dfa_ns;
  MatchPass traced;
  for (size_t p = 0; p < kPasses; ++p) {
    const MatchPass plain = RunMatchPass(input, served, 1, Timing::kNone);
    traced = RunMatchPass(input, served, 1, Timing::kLayers);
    checks->Expect(plain.verdicts == traced.verdicts,
                   "traced pass verdicts agree");
    checks->Expect(traced.missed == 0, "prefilter never drops a DFA match");
    checks->Expect(traced.differs == 0,
                   "prefiltered verdicts equal the full DFA's");
    plain_s.push_back(plain.seconds);
    content_ns.push_back(traced.content_ns);
    domain_ns.push_back(traced.domain_ns);
    prefiltered_ns.push_back(traced.prefiltered_ns);
    scan_ns.push_back(traced.scan_ns);
    dfa_ns.push_back(traced.dfa_ns);
  }
  const double plain_ns = Median(plain_s) * 1e9 / n;
  const double spans_ns =
      Median(content_ns) + Median(domain_ns) + Median(prefiltered_ns);
  result->Set("core.packet_content_ns", Median(content_ns), "ns");
  result->Set("net.registrable_domain_ns", Median(domain_ns), "ns");
  result->Set("match.prefiltered_ns", Median(prefiltered_ns), "ns");
  result->Set("match.direct_verdicts_per_s", n / Median(plain_s),
              "verdicts/s");
  // How far the three spans of a packet overstate its untraced cost.
  result->Set("trace.overhead_pct", (spans_ns / plain_ns - 1) * 100, "%");
  result->Set("prefilter.scan_ns", Median(scan_ns), "ns");
  result->Set("match.dfa_ns", Median(dfa_ns), "ns");
  const double passed = static_cast<double>(traced.passed);
  result->Set("prefilter.pass_ratio", passed / n, "ratio");
  result->Set("prefilter.false_candidate_ratio",
              passed == 0 ? 0
                          : static_cast<double>(traced.false_candidates) / passed,
              "ratio");

  // Gateway: the same epoch through 1, 2 and 3 shards.
  for (size_t shards = 1; shards <= 3; ++shards) {
    const Replay replay = ReplayClosedLoop(input, epoch.compiled, shards,
                                           kReplayRounds, Clock::now(), checks);
    result->attempted += replay.attempted;
    result->failed += replay.failed;
    const std::string suffix = ".shards" + std::to_string(shards);
    const double verdicts = static_cast<double>(replay.verdicts);
    result->Set("gateway.verdicts_per_s" + suffix, verdicts / replay.wall_s,
                "verdicts/s");
    result->Set("gateway.cpu_us_per_verdict" + suffix,
                replay.cpu_s * 1e6 / verdicts, "us");
    if (shards == 3) {
      const double busiest = static_cast<double>(
          *std::max_element(replay.per_shard.begin(), replay.per_shard.end()));
      result->Set("gateway.shard_skew", busiest / (verdicts / 3), "ratio");
      result->Set("gateway.submit_ns", Mean(replay.submit_ns), "ns");
      result->Set("gateway.queue_latency_us", Median(replay.queue_us), "us");
    }
  }

  // Incremental training: one base and two warm epochs.
  {
    const WarmEpochs warm =
        RunWarmEpochs(epoch.suspicious, epoch.normal, 0, 2, checks);
    const leakdet::train::EpochStats& last = warm.last;
    const double pair_probes = static_cast<double>(
        last.tiles.cache_pair_hits + last.tiles.cache_pair_misses);
    result->Set("train.distinct", static_cast<double>(last.distinct), "count");
    result->Set("train.cache_pair_hit_rate",
                pair_probes == 0 ? 0 : last.tiles.cache_pair_hits / pair_probes,
                "ratio");
    result->Set("train.tiles_computed",
                static_cast<double>(last.tiles.tiles_computed), "count");
    result->Set("train.tiles_reused",
                static_cast<double>(last.tiles.tiles_reused), "count");
    result->Set("train.spill_bytes",
                static_cast<double>(last.tiles.spill_bytes_written), "bytes");
    result->Set("train.replayed_merges",
                static_cast<double>(last.cluster.replayed_merges), "count");
    result->Set("train.dirty_merges",
                static_cast<double>(last.cluster.dirty_merges), "count");
  }

  // The live stack: trainer and store, fed open-loop.
  const LiveLoop live = RunLiveLoop(input, kLoopPackets, kLoopRate, checks);
  result->attempted += live.packets;
  result->failed += live.failed;
  result->Set("loadgen.lateness_us", Mean(live.lateness_us), "us");
  result->Set("gateway.verdict_latency_p99_us",
              WindowedQuantile(live.latency_us, live.latency_second, 0.99),
              "us");
  result->Set("trainer.offer_ns", Mean(live.offer_ns), "ns");
  result->Set("trainer.retrain_ms", live.retrain_ms, "ms");
  result->Set("trainer.compile_ms", live.compile_ms, "ms");
  result->Set("trainer.stage_distance_ms", live.stage_distance_ms, "ms");
  result->Set("trainer.stage_cluster_ms", live.stage_cluster_ms, "ms");
  result->Set("trainer.stage_siggen_ms", live.stage_siggen_ms, "ms");
  result->Set("trainer.epochs_published", static_cast<double>(live.epochs),
              "count");
  result->Set("store.wal_append_us", live.wal_append_us, "us");
  result->Set("store.wal_bytes_per_record", live.wal_bytes_per_record,
              "bytes");
  result->Set("store.snapshot_ms", live.snapshot_ms, "ms");
  result->Set("store.snapshot_bytes", live.snapshot_bytes, "bytes");
  result->Set("store.recover_ms", live.recover_ms, "ms");
}

}  // namespace e2e
