// Cluster benchmark: the two latencies a replicated gateway deployment
// cares about, written to BENCH_cluster.json.
//
// 1. Replication lag: wall time for one follower SyncWithLeader round —
//    mirror the leader's WAL suffix over the feed protocol, adopt the
//    epoch, install the snapshot — measured per epoch of fresh training.
// 2. Failover time: wall time for ClusterNode::Promote() on a caught-up
//    follower after the leader stops — snapshot restore plus WAL-suffix
//    replay through the training path, until the node is serving as leader.
//
// The transport is an in-process ScriptedListener and the disks are
// in-memory ScriptedDirs, so the numbers isolate the replication/recovery
// code from socket and filesystem noise, and every repetition does
// identical (seeded) work. Timed phases repeat --reps times; the fastest
// repetition is reported (noise is strictly additive).
//
// Usage:
//   bench_cluster [--epochs=6] [--retrain=48] [--reps=3] [--seed=4242]
//                 [--out=BENCH_cluster.json] [--selfcheck]
//
// --selfcheck asserts correctness on the benched run instead of timing:
// the follower's log must mirror the leader's exactly and the promoted
// follower's serving feed must be byte-identical to the leader's. Exits
// nonzero on violation; used by the `perf` ctest smoke run.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/node.h"
#include "core/payload_check.h"
#include "gateway/trainer.h"
#include "net/stream.h"
#include "testing/chaos_util.h"
#include "testing/packet_gen.h"
#include "testing/scripted_conn.h"
#include "testing/scripted_file.h"
#include "util/flags.h"
#include "util/rng.h"

namespace {

using namespace leakdet;

struct Args {
  size_t epochs = 6;
  size_t retrain = 48;
  size_t reps = 3;
  uint64_t seed = 4242;
  std::string out = "BENCH_cluster.json";
  bool selfcheck = false;
};

Args ParseArgs(int argc, char** argv) {
  Flags flags(argc, argv);
  Args args;
  args.epochs = flags.Uint("epochs", args.epochs);
  args.retrain = flags.Uint("retrain", args.retrain);
  args.reps = flags.Uint("reps", args.reps);
  args.seed = flags.Uint("seed", args.seed);
  args.out = flags.String("out", args.out);
  args.selfcheck = flags.Bool("selfcheck");
  if (args.epochs == 0) flags.Error("--epochs must be positive");
  if (args.reps == 0) flags.Error("--reps must be positive");
  flags.Finish();
  return args;
}

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
             std::chrono::steady_clock::now() - start)
      .count();
}

struct RepResult {
  double sync_total_ms = 0;   // all replication rounds of the rep
  double sync_worst_ms = 0;   // slowest single round
  double failover_ms = 0;
  uint64_t records = 0;       // records mirrored across the rep
  uint64_t snapshots = 0;
  bool mirror_ok = false;     // follower log == leader log after every round
  bool feed_identical = false;
  uint64_t failover_epoch = 0;
};

}  // namespace

int main(int argc, char** argv) {
  Args args = ParseArgs(argc, argv);

  // Seeded device fleet shared by every repetition.
  Rng token_rng(args.seed);
  std::vector<core::DeviceTokens> fleet(2);
  for (auto& device : fleet) {
    device.android_id = token_rng.RandomHex(16);
    device.imei = token_rng.RandomDigits(15);
  }
  core::PayloadCheck oracle(fleet);
  std::vector<std::string> tokens;
  for (const auto& device : fleet) {
    tokens.push_back(device.android_id);
    tokens.push_back(device.imei);
  }

  core::SignatureServer::Options server_options;
  server_options.retrain_after = args.retrain;
  server_options.pipeline.sample_size = 16;
  server_options.pipeline.normal_corpus_size = 64;
  server_options.pipeline.num_threads = 1;

  RepResult best;
  best.sync_total_ms = -1;
  bool all_checks_ok = true;
  for (size_t rep = 0; rep < args.reps; ++rep) {
    RepResult result;
    testing::ScriptedDir leader_dir(args.seed + rep * 2);
    testing::ScriptedDir follower_dir(args.seed + rep * 2 + 1);

    auto make_node = [&](testing::ScriptedDir* dir, const char* id)
        -> StatusOr<std::unique_ptr<cluster::ClusterNode>> {
      cluster::NodeOptions options;
      options.node_id = id;
      options.dir = dir;
      options.oracle = &oracle;
      options.server = server_options;
      options.gateway.num_shards = 1;
      options.gateway.queue_capacity = 64;
      options.train_from_gateway = false;
      return cluster::ClusterNode::Start(std::move(options));
    };

    auto leader = make_node(&leader_dir, "leader");
    auto follower = make_node(&follower_dir, "follower");
    if (!leader.ok() || !follower.ok()) {
      std::fprintf(stderr, "node start failed\n");
      return 1;
    }
    if (!(*leader)->Promote().ok()) return 1;
    auto listener = std::make_unique<testing::ScriptedListener>();
    testing::ScriptedListener* listener_ptr = listener.get();
    if (!(*leader)->ServeReplication(std::move(listener)).ok()) return 1;
    auto connect = [&]() -> StatusOr<std::unique_ptr<net::Stream>> {
      std::unique_ptr<testing::ScriptedStream> stream =
          listener_ptr->Connect();
      (void)stream->SetReadTimeout(5000);
      return StatusOr<std::unique_ptr<net::Stream>>(std::move(stream));
    };

    // The identical seeded training stream every repetition.
    Rng rng(args.seed * 1000003);
    gateway::TrainerLoop* trainer = (*leader)->trainer();
    uint64_t offered = 0;
    result.mirror_ok = true;
    for (size_t epoch = 1; epoch <= args.epochs; ++epoch) {
      for (size_t i = 0; i < args.retrain; ++i) {
        core::HttpPacket packet = testing::GeneratePacket(&rng, tokens, 1.0);
        gateway::Verdict verdict;
        verdict.sensitive = true;
        if (trainer->Offer(packet, verdict)) ++offered;
        if (i % 2 == 1) {
          core::HttpPacket normal = testing::GeneratePacket(&rng, tokens, 0.0);
          gateway::Verdict clean;
          if (trainer->Offer(normal, clean)) ++offered;
        }
      }
      if (!testing::WaitUntil([&] {
            return trainer->items_processed() >= offered &&
                   (*leader)->epoch_version() >= epoch;
          })) {
        std::fprintf(stderr, "epoch %zu never published\n", epoch);
        return 1;
      }
      if (!(*leader)->store().Sync().ok()) return 1;
      const uint64_t gap =
          (*leader)->wal_last_sequence() - (*follower)->wal_last_sequence();

      auto start = std::chrono::steady_clock::now();
      auto sync = (*follower)->SyncWithLeader(connect);
      const double round_ms = MillisSince(start);
      if (!sync.ok()) {
        std::fprintf(stderr, "sync failed: %s\n",
                     std::string(sync.status().message()).c_str());
        return 1;
      }
      result.sync_total_ms += round_ms;
      if (round_ms > result.sync_worst_ms) result.sync_worst_ms = round_ms;
      result.records += sync->records_applied;
      result.snapshots += sync->snapshot_installed ? 1 : 0;
      if (sync->records_applied != gap ||
          (*follower)->wal_last_sequence() != (*leader)->wal_last_sequence() ||
          (*follower)->epoch_version() != (*leader)->epoch_version()) {
        result.mirror_ok = false;
      }
    }

    // Failover: leader gone, follower must serve the same feed from its own
    // durable state.
    const std::string leader_feed =
        (*leader)->gateway().current_set()->set().Serialize();
    const uint64_t leader_epoch = (*leader)->epoch_version();
    (*leader)->StopServing();
    auto start = std::chrono::steady_clock::now();
    if (!(*follower)->Promote().ok()) {
      std::fprintf(stderr, "promote failed\n");
      return 1;
    }
    result.failover_ms = MillisSince(start);
    result.failover_epoch = (*follower)->epoch_version();
    auto promoted = (*follower)->gateway().current_set();
    result.feed_identical = promoted != nullptr &&
                            promoted->version() == leader_epoch &&
                            promoted->set().Serialize() == leader_feed;
    (*follower)->StopServing();

    std::printf(
        "rep %zu: sync_total=%.3fms sync_worst=%.3fms records=%llu "
        "failover=%.3fms mirror=%s feed=%s\n",
        rep + 1, result.sync_total_ms, result.sync_worst_ms,
        static_cast<unsigned long long>(result.records), result.failover_ms,
        result.mirror_ok ? "ok" : "DIVERGED",
        result.feed_identical ? "identical" : "DIVERGED");
    if (!result.mirror_ok || !result.feed_identical) all_checks_ok = false;
    if (best.sync_total_ms < 0 ||
        result.sync_total_ms + result.failover_ms <
            best.sync_total_ms + best.failover_ms) {
      best = result;
    }
  }

  if (args.selfcheck) {
    std::printf("selfcheck: %s\n", all_checks_ok ? "ok" : "FAILED");
  }

  const double rounds = static_cast<double>(args.epochs);
  const double records_per_s =
      best.sync_total_ms > 0
          ? static_cast<double>(best.records) / (best.sync_total_ms / 1000.0)
          : 0;
  std::string json = "{\n";
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "  \"epochs\": %zu,\n  \"retrain\": %zu,\n"
                "  \"records_replicated\": %llu,\n"
                "  \"snapshots_installed\": %llu,\n",
                args.epochs, args.retrain,
                static_cast<unsigned long long>(best.records),
                static_cast<unsigned long long>(best.snapshots));
  json += buf;
  std::snprintf(buf, sizeof(buf),
                "  \"replication_round_mean_ms\": %.3f,\n"
                "  \"replication_round_worst_ms\": %.3f,\n"
                "  \"replication_records_per_s\": %.0f,\n",
                best.sync_total_ms / rounds, best.sync_worst_ms,
                records_per_s);
  json += buf;
  std::snprintf(buf, sizeof(buf),
                "  \"failover_ms\": %.3f,\n  \"failover_epoch\": %llu\n",
                best.failover_ms,
                static_cast<unsigned long long>(best.failover_epoch));
  json += buf;
  json += "}\n";
  if (FILE* f = std::fopen(args.out.c_str(), "w"); f != nullptr) {
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", args.out.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", args.out.c_str());
    return 1;
  }
  return all_checks_ok ? 0 : 1;
}
