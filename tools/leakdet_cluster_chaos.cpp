// Deterministic cluster-chaos driver: runs RunClusterChaos — N gateway
// ClusterNodes behind consistent-hash routing, WAL replication over scripted
// connections, scripted per-node disks, leader kill + failover + restart and
// a partition/heal window — and differentially verifies every verdict against
// the single-node Detector oracle plus byte-identical feeds and exact packet
// conservation.
//
// Reproducibility is the point: `leakdet_cluster_chaos --seed S` is
// bit-for-bit replayable — identical verdict-stream digests and deterministic
// counters on every run. With --runs=N (default 2) the scenario executes N
// times in-process and the tool fails if any digest or counter differs.
//
// Examples:
//   leakdet_cluster_chaos --seed=7
//   leakdet_cluster_chaos --schedule=short-io --seed=7 --runs=3
//   leakdet_cluster_chaos --crash-torn-tail=0.5 --crash-bit-flip=0.25
//   leakdet_cluster_chaos --nodes=5 --epochs=8 --kill-at=4 --partition-at=6

#include <cstdint>
#include <cstdio>
#include <string>

#include "testing/cluster_chaos.h"
#include "testing/fault_script.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  leakdet::Flags flags(argc, argv);
  leakdet::testing::ClusterChaosOptions options;
  options.seed = flags.Uint("seed", 1);
  const size_t runs = flags.Uint("runs", 2);
  // "none" = faithful transport.
  const std::string schedule = flags.String("schedule", "none");
  options.nodes = flags.Uint("nodes", 3);
  options.shards = flags.Uint("shards", 2);
  options.epochs = flags.Uint("epochs", 6);
  options.packets_per_epoch = flags.Uint("packets", 96);
  options.retrain_after = flags.Uint("retrain", 24);
  options.queue_capacity = flags.Uint("queue-capacity", 256);
  options.devices = flags.Uint("devices", 64);
  // --kill-at=0 / --partition-at=0 disable that chaos event.
  options.kill_leader_at_epoch = flags.Uint("kill-at", 3);
  options.restart_killed_after = flags.Uint("restart-after", 1);
  options.partition_follower_at_epoch = flags.Uint("partition-at", 5);
  options.replog_batch_limit = flags.Uint("replog-batch", 64);
  options.store_faults.torn_tail = flags.Double("crash-torn-tail", 0.0);
  options.store_faults.bit_flip = flags.Double("crash-bit-flip", 0.0);
  const bool list_schedules = flags.Bool("list-schedules");
  const bool verbose = flags.Bool("verbose", 'v');
  if (options.seed == 0) flags.Error("--seed must be positive");
  if (runs == 0) flags.Error("--runs must be positive");
  if (options.nodes < 2) flags.Error("--nodes must be at least 2");
  if (options.epochs == 0) flags.Error("--epochs must be positive");
  flags.Finish();

  if (list_schedules) {
    for (const std::string& name :
         leakdet::testing::FaultScript::BuiltinNames()) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }

  if (schedule != "none") {
    auto script = leakdet::testing::FaultScript::Load(schedule);
    if (!script.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   std::string(script.status().message()).c_str());
      return 2;
    }
    script->set_seed(options.seed);
    options.script = *script;
  }
  if (verbose) {
    options.log = [](const std::string& message) {
      std::fprintf(stderr, "[cluster-chaos] %s\n", message.c_str());
    };
  }

  std::printf("schedule=%s seed=%llu nodes=%zu runs=%zu\n",
              schedule.c_str(),
              static_cast<unsigned long long>(options.seed), options.nodes,
              runs);

  bool all_ok = true;
  bool reproducible = true;
  leakdet::testing::ClusterChaosResult first;
  for (size_t run = 0; run < runs; ++run) {
    leakdet::testing::ClusterChaosResult result =
        leakdet::testing::RunClusterChaos(options);
    std::printf("--- run %zu ---\n%s\n", run + 1, result.Summary().c_str());
    if (!result.ok()) all_ok = false;
    if (run == 0) {
      first = result;
    } else if (result.digest != first.digest ||
               result.ingested != first.ingested ||
               result.accepted != first.accepted ||
               result.delivered != first.delivered ||
               result.verdicts_checked != first.verdicts_checked ||
               result.records_replicated != first.records_replicated ||
               result.failovers != first.failovers ||
               result.node_restarts != first.node_restarts ||
               result.partitions != first.partitions ||
               result.heals != first.heals) {
      reproducible = false;
    }
  }
  if (!reproducible) {
    std::fprintf(stderr,
                 "FAIL: runs diverged — the scenario is not deterministic\n");
    return 1;
  }
  if (!all_ok) {
    std::fprintf(stderr,
                 "FAIL: cluster invariants violated (see summaries)\n");
    return 1;
  }
  std::printf("PASS: %zu run(s), digest=%llx\n", runs,
              static_cast<unsigned long long>(first.digest));
  return 0;
}
