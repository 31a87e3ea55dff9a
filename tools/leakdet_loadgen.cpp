// Serving benchmark for the concurrent detection gateway: replays a
// simulated market trace (sim::TrafficGenerator) through gateway shards at
// full speed (or a target rate), with live retraining and matcher hot-swaps
// happening mid-run, then prints the metrics snapshot.
//
// Exactness check (--verify, on by default): every verdict the gateway
// produced is compared against the single-threaded core::Detector baseline
// for the matcher epoch the packet was matched under. Per-device FIFO
// sharding makes this exact: shard k's verdict sequence corresponds 1:1 to
// the order packets were accepted into shard k.
//
// Example (the repo's standing serving benchmark):
//   leakdet_loadgen --shards=4 --repeat=10 --min-swaps=3

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/detector.h"
#include "core/payload_check.h"
#include "core/signature_server.h"
#include "gateway/gateway.h"
#include "gateway/trainer.h"
#include "obs/admin_server.h"
#include "prefilter/prefilter.h"
#include "sim/trafficgen.h"
#include "util/flags.h"

namespace {

using Clock = std::chrono::steady_clock;

/// One recorded gateway verdict: which trace packet, under which epoch.
struct Recorded {
  uint32_t trace_index;
  uint64_t feed_version;
  bool sensitive;
};

}  // namespace

int main(int argc, char** argv) {
  leakdet::Flags flags(argc, argv);
  const size_t shards = flags.Uint("shards", 4);
  const size_t queue_capacity = flags.Uint("queue-capacity", 4096);
  const size_t pop_batch = flags.Uint("pop-batch", 64);
  const std::string policy = flags.String("policy", "block");
  const double scale = flags.Double("scale", 1.0);
  const size_t repeat = flags.Uint("repeat", 10);
  const uint64_t seed = flags.Uint("seed", 42);
  const double rate = flags.Double("rate", 0);  // pkt/s, 0 = unlimited
  // Tuned to the trainer's sustainable oracle-scan intake (~15k pkt/s):
  // yields a retrain every few hundred ms of wall time, i.e. plenty of live
  // hot-swaps over a multi-second run.
  const size_t retrain_after = flags.Uint("retrain-after", 1200);
  const size_t sample_size = flags.Uint("sample-size", 60);
  const size_t normal_corpus = flags.Uint("normal-corpus", 400);
  const size_t forward_normal_every = flags.Uint("forward-normal-every", 8);
  const size_t trainer_queue = flags.Uint("trainer-queue", 8192);
  // Fail the run if fewer hot-swaps happened.
  const uint64_t min_swaps = flags.Uint("min-swaps", 0);
  const bool verify = !flags.Bool("no-verify");
  const bool with_admin = flags.Has("admin-port");  // 0 = ephemeral port
  const uint64_t admin_port = flags.Uint("admin-port", 0, 65535);
  // Warmup rounds replay the trace before the measured window opens: they
  // warm shard queues, the matcher epoch, and branch predictors, and are
  // excluded from the reported throughput (their verdicts are still
  // verified).
  const size_t warmup_repeat = flags.Uint("warmup-repeat", 1);
  // Prefilter escape hatch, forwarded to GatewayOptions::prefilter
  // (LEAKDET_PREFILTER overrides auto).
  const std::string prefilter = flags.String("prefilter", "auto");
  const bool help = flags.Bool("help", 'h');
  if (help) {
    std::printf("%s\n", flags.Usage().c_str());
    return 0;
  }
  if (policy != "block" && policy != "drop") {
    flags.Error("--policy must be block or drop");
  }
  if (shards == 0 || repeat == 0) {
    flags.Error("--shards and --repeat must be positive");
  }
  leakdet::prefilter::Mode prefilter_mode = leakdet::prefilter::Mode::kAuto;
  if (!leakdet::prefilter::ParseMode(prefilter, &prefilter_mode)) {
    flags.Error("--prefilter must be auto, off, scalar, or simd");
  }
  flags.Finish();

  std::printf("generating trace (scale=%.3g seed=%llu)...\n", scale,
              static_cast<unsigned long long>(seed));
  leakdet::sim::TrafficConfig config;
  config.seed = seed;
  config.scale = scale;
  leakdet::sim::Trace trace = leakdet::sim::GenerateTrace(config);
  size_t sensitive_truth = 0;
  for (const auto& lp : trace.packets) {
    if (lp.sensitive()) ++sensitive_truth;
  }
  std::printf("trace: %zu packets (%zu ground-truth sensitive), %zu apps\n",
              trace.packets.size(), sensitive_truth,
              trace.population.apps.size());

  leakdet::core::PayloadCheck oracle({trace.device.ToTokens()});
  leakdet::core::SignatureServer::Options server_options;
  server_options.retrain_after = retrain_after;
  server_options.pipeline.sample_size = sample_size;
  server_options.pipeline.normal_corpus_size = normal_corpus;
  server_options.pipeline.num_threads = 2;
  leakdet::core::SignatureServer server(&oracle, server_options);

  leakdet::gateway::GatewayOptions gw_options;
  gw_options.num_shards = shards;
  gw_options.queue_capacity = queue_capacity;
  gw_options.pop_batch = pop_batch;
  gw_options.overload = policy == "block"
                           ? leakdet::gateway::OverloadPolicy::kBlock
                           : leakdet::gateway::OverloadPolicy::kDropNewest;
  gw_options.prefilter = prefilter_mode;
  leakdet::gateway::DetectionGateway gateway(gw_options);

  leakdet::gateway::TrainerOptions trainer_options;
  trainer_options.queue_capacity = trainer_queue;
  trainer_options.forward_normal_every = forward_normal_every;
  leakdet::gateway::TrainerLoop trainer(&server, &gateway, trainer_options);

  // Optional admin plane over the gateway's registry (which the trainer
  // shares), so a scrape mid-run sees live shard queue depths and retrain
  // stage timings.
  leakdet::obs::AdminServerOptions admin_options;
  admin_options.registry = gateway.metrics();
  leakdet::obs::AdminServer admin(admin_options);
  admin.AddStatusSection("gateway", [&gateway] {
    return "epoch_version: " + std::to_string(gateway.current_version()) +
           "\nepoch_age_ns: " + std::to_string(gateway.epoch_age_ns()) + "\n";
  });
  if (with_admin) {
    leakdet::Status started =
        admin.Start(static_cast<uint16_t>(admin_port));
    if (!started.ok()) {
      std::fprintf(stderr, "admin server: %s\n",
                   started.ToString().c_str());
      return 2;
    }
    std::printf("admin plane at http://127.0.0.1:%u/metrics\n", admin.port());
  }

  size_t instances = trace.packets.size() * repeat;
  // Per-shard verdict sequences; each is appended only by that shard's
  // worker thread, so no locking is needed (vectors are pre-created).
  std::vector<std::vector<Recorded>> verdicts(shards);
  for (auto& v : verdicts) v.reserve(instances / shards + 64);
  // Producer-side: which trace packet the k-th accepted packet of each
  // shard was. Together with FIFO shard order this reconstructs identity.
  std::vector<std::vector<uint32_t>> accepted(shards);
  for (auto& v : accepted) v.reserve(instances / shards + 64);
  std::atomic<uint32_t> current_index{0};

  gateway.set_sink([&](const leakdet::core::HttpPacket& packet,
                       const leakdet::gateway::Verdict& verdict) {
    Recorded r;
    r.trace_index = 0;  // patched from `accepted` during verification
    r.feed_version = verdict.feed_version;
    r.sensitive = verdict.sensitive;
    verdicts[verdict.shard].push_back(r);
    trainer.Offer(packet, verdict);
  });

  if (!gateway.Start().ok() || !trainer.Start().ok()) {
    std::fprintf(stderr, "failed to start gateway/trainer\n");
    return 2;
  }

  std::printf("replaying %zu x %zu = %zu packets through %zu shards "
              "(policy=%s, rate=%s, prefilter=%s, warmup=%zu rounds)...\n",
              trace.packets.size(), repeat, instances, shards,
              policy.c_str(),
              rate > 0 ? (std::to_string(rate) + " pkt/s").c_str()
                       : "unlimited",
              leakdet::prefilter::ModeName(gateway.prefilter_mode()),
              warmup_repeat);

  size_t submitted_count = 0;
  size_t pace_base = 0;  // accepted count when the current pacing clock began
  Clock::time_point pace_start = Clock::now();
  auto submit_round = [&] {
    for (size_t i = 0; i < trace.packets.size(); ++i) {
      const leakdet::core::HttpPacket& packet = trace.packets[i].packet;
      uint64_t device_id = packet.app_id;  // per-app ordering key
      size_t shard = gateway.shard_of(device_id);
      if (gateway.Submit(device_id, packet)) {
        accepted[shard].push_back(static_cast<uint32_t>(i));
        ++submitted_count;
      }
      if (rate > 0 && (submitted_count & 1023) == 0) {
        double target_elapsed =
            static_cast<double>(submitted_count - pace_base) / rate;
        double actual =
            std::chrono::duration<double>(Clock::now() - pace_start).count();
        if (actual < target_elapsed) {
          std::this_thread::sleep_for(
              std::chrono::duration<double>(target_elapsed - actual));
        }
      }
    }
  };
  auto drain = [&] {
    // Every accepted packet has a verdict once processed catches up (kBlock
    // accepts everything; kDropNewest counts drops at submit time).
    while (gateway.processed() < submitted_count) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  };

  // Warmup rounds: replay + drain OUTSIDE the measured window, so one-time
  // costs (trace paging, shard-queue first touch, the first matcher
  // hot-swap) never inflate or deflate the reported throughput. Their
  // verdicts are still recorded and verified like any others.
  for (size_t r = 0; r < warmup_repeat; ++r) submit_round();
  drain();

  const uint64_t processed_before = gateway.processed();
  Clock::time_point run_start = Clock::now();
  pace_start = run_start;
  pace_base = submitted_count;
  for (size_t r = 0; r < repeat; ++r) submit_round();
  drain();  // measured window ends when the last verdict lands, not at Stop
  Clock::time_point run_end = Clock::now();
  gateway.Stop();
  trainer.Stop();
  admin.Stop();

  double wall = std::chrono::duration<double>(run_end - run_start).count();
  uint64_t processed = gateway.processed();
  uint64_t measured = processed - processed_before;
  double throughput = wall > 0 ? static_cast<double>(measured) / wall : 0;
  std::printf("\nrun: submitted=%llu processed=%llu dropped=%llu "
              "matched=%llu swaps=%llu\n",
              static_cast<unsigned long long>(gateway.submitted()),
              static_cast<unsigned long long>(processed),
              static_cast<unsigned long long>(gateway.dropped()),
              static_cast<unsigned long long>(gateway.matched()),
              static_cast<unsigned long long>(gateway.swaps()));
  std::printf("run: measured=%llu wall=%.2fs throughput=%.0f pkt/s "
              "(warmup excluded; feeds published=%llu, training "
              "drops=%llu)\n",
              static_cast<unsigned long long>(measured), wall, throughput,
              static_cast<unsigned long long>(trainer.feeds_published()),
              static_cast<unsigned long long>(trainer.training_drops()));
  std::printf("run: prefilter skipped=%llu candidates=%llu "
              "false_candidates=%llu\n",
              static_cast<unsigned long long>(gateway.prefilter_skipped()),
              static_cast<unsigned long long>(gateway.prefilter_candidates()),
              static_cast<unsigned long long>(
                  gateway.prefilter_false_candidates()));

  std::printf("\n-- metrics --\n%s\n", gateway.metrics()->TextDump().c_str());

  int exit_code = 0;
  if (verify) {
    // Patch identities, then check every verdict against the single-threaded
    // Detector for its epoch. One thread per shard, each with its own
    // per-version Detector cache (Detector construction rebuilds the
    // automaton, so caches are not shared across threads).
    std::printf("verifying %llu verdicts against the single-threaded "
                "Detector baseline...\n",
                static_cast<unsigned long long>(processed));
    std::atomic<uint64_t> mismatches{0};
    std::atomic<uint64_t> checked{0};
    std::vector<std::thread> checkers;
    for (size_t s = 0; s < shards; ++s) {
      checkers.emplace_back([&, s] {
        if (verdicts[s].size() != accepted[s].size()) {
          std::fprintf(stderr,
                       "shard %zu: %zu verdicts for %zu accepted packets\n", s,
                       verdicts[s].size(), accepted[s].size());
          mismatches.fetch_add(1);
          return;
        }
        std::map<uint64_t, std::unique_ptr<leakdet::core::Detector>> cache;
        // version -> per-trace-index memo (-1 unknown, else 0/1).
        std::map<uint64_t, std::vector<int8_t>> memo;
        for (size_t k = 0; k < verdicts[s].size(); ++k) {
          Recorded& r = verdicts[s][k];
          r.trace_index = accepted[s][k];
          std::vector<int8_t>& m = memo[r.feed_version];
          if (m.empty()) m.assign(trace.packets.size(), -1);
          int8_t& slot = m[r.trace_index];
          if (slot < 0) {
            auto it = cache.find(r.feed_version);
            if (it == cache.end()) {
              leakdet::match::SignatureSet set;  // version 0: empty set
              if (r.feed_version != 0) {
                auto archived = trainer.SetForVersion(r.feed_version);
                if (!archived) {
                  std::fprintf(stderr, "no archived feed for version %llu\n",
                               static_cast<unsigned long long>(
                                   r.feed_version));
                  mismatches.fetch_add(1);
                  return;
                }
                set = archived->set();
              }
              it = cache
                       .emplace(r.feed_version,
                                std::make_unique<leakdet::core::Detector>(
                                    std::move(set)))
                       .first;
            }
            slot = it->second->IsSensitive(trace.packets[r.trace_index].packet)
                       ? 1
                       : 0;
          }
          if ((slot == 1) != r.sensitive) mismatches.fetch_add(1);
          checked.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    for (std::thread& t : checkers) t.join();
    std::printf("verify: checked=%llu mismatches=%llu -> %s\n",
                static_cast<unsigned long long>(checked.load()),
                static_cast<unsigned long long>(mismatches.load()),
                mismatches.load() == 0 ? "IDENTICAL to baseline" : "FAILED");
    if (mismatches.load() != 0) exit_code = 1;
  }

  if (gateway.swaps() < min_swaps) {
    std::printf("FAILED: %llu hot-swaps < required --min-swaps=%llu\n",
                static_cast<unsigned long long>(gateway.swaps()),
                static_cast<unsigned long long>(min_swaps));
    exit_code = 1;
  }
  return exit_code;
}
