// Federation benchmark: the three costs a crowdsourced deployment pays,
// written to BENCH_federation.json.
//
// 1. Fleet ingest: ShardTrainer::Observe throughput over the simulated
//    fleet's arrival stream (witness bookkeeping + pool routing per packet).
// 2. Shard training: candidate signatures + witness table per shard.
// 3. Merge + publish: MergeAll over the shard exports and the K-anonymity
//    gate, the coordinator-side cost paid once per federated epoch.
//
// Usage:
//   bench_federation [--devices=24] [--shards=4] [--events=9000]
//                    [--scale=0.05] [--seed=8086] [--k=2] [--reps=5]
//                    [--out=BENCH_federation.json] [--selfcheck]
//
// Timed phases repeat --reps times and report the fastest repetition
// (noise is strictly additive; min-of-K estimates the true cost). The
// ingest/train inputs are deterministic in --seed, so every repetition
// does identical work.
//
// --selfcheck asserts the protocol laws on the benched data instead of
// timing: MergeAll must be order-invariant (reversed shard order produces a
// byte-identical serialized export) and PublishFederated must be a fixed
// point (re-gating the published set changes nothing) with no published
// token below K distinct witness devices. Exits nonzero on any violation;
// used by the `perf` ctest smoke run.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/payload_check.h"
#include "federation/merge.h"
#include "federation/shard_trainer.h"
#include "federation/witness.h"
#include "sim/fleet.h"
#include "util/flags.h"

namespace {

using namespace leakdet;

struct Args {
  size_t devices = 24;
  size_t shards = 4;
  size_t events = 9000;
  double scale = 0.05;
  uint64_t seed = 8086;
  size_t k = 2;
  size_t reps = 5;
  std::string out = "BENCH_federation.json";
  bool selfcheck = false;
};

Args ParseArgs(int argc, char** argv) {
  Flags flags(argc, argv);
  Args args;
  args.devices = flags.Uint("devices", args.devices);
  args.shards = flags.Uint("shards", args.shards);
  args.events = flags.Uint("events", args.events);
  args.scale = flags.Double("scale", args.scale);
  args.seed = flags.Uint("seed", args.seed);
  args.k = flags.Uint("k", args.k);
  args.reps = flags.Uint("reps", args.reps);
  args.out = flags.String("out", args.out);
  args.selfcheck = flags.Bool("selfcheck");
  if (args.devices == 0) flags.Error("--devices must be positive");
  if (args.shards == 0) flags.Error("--shards must be positive");
  if (args.reps == 0) flags.Error("--reps must be positive");
  if (args.selfcheck && args.events == 0) {
    flags.Error("--selfcheck needs --events above 0");
  }
  flags.Finish();
  return args;
}

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

federation::ShardTrainerOptions TrainerOptions(const Args& args) {
  federation::ShardTrainerOptions options;
  options.tenant = "bench";
  options.pipeline.num_threads = 1;
  (void)args;
  return options;
}

/// The event tape, materialized once so every repetition times identical
/// work without re-paying generation cost inside the window.
struct Tape {
  std::vector<uint64_t> keys;
  std::vector<core::HttpPacket> packets;
  std::vector<size_t> shard_of;
};

Tape MakeTape(const sim::Fleet& fleet, const Args& args) {
  Tape tape;
  tape.keys.reserve(args.events);
  tape.packets.reserve(args.events);
  tape.shard_of.reserve(args.events);
  sim::Fleet::Stream stream = fleet.NewStream(1);
  for (size_t i = 0; i < args.events; ++i) {
    sim::Fleet::Event event = stream.Next();
    tape.keys.push_back(fleet.DeviceKey(event.device_index));
    tape.packets.push_back(event.packet.packet);
    tape.shard_of.push_back(event.device_index % args.shards);
  }
  return tape;
}

}  // namespace

int main(int argc, char** argv) {
  Args args = ParseArgs(argc, argv);

  sim::FleetConfig config;
  config.seed = args.seed;
  config.num_devices = args.devices;
  config.device_skew = 0.3;
  config.market.seed = args.seed + 1;
  config.market.scale = args.scale;
  sim::Fleet fleet(config);
  std::vector<core::DeviceTokens> tokens;
  for (uint64_t index = 0; index < fleet.num_devices(); ++index) {
    tokens.push_back(fleet.DeviceAt(index).ToTokens());
  }
  core::PayloadCheck oracle(tokens);

  std::printf("fleet: %zu devices, %zu events, %zu shards (scale=%.3f)\n",
              args.devices, args.events, args.shards, args.scale);
  Tape tape = MakeTape(fleet, args);

  // Phase 1: ingest. Fresh trainers per repetition; the tape is shared.
  double ingest_ms = 0.0;
  std::vector<federation::ShardTrainer> trainers;
  for (size_t rep = 0; rep < args.reps; ++rep) {
    std::vector<federation::ShardTrainer> fresh;
    for (size_t shard = 0; shard < args.shards; ++shard) {
      fresh.emplace_back(TrainerOptions(args), &oracle);
    }
    auto start = std::chrono::steady_clock::now();
    for (size_t i = 0; i < tape.packets.size(); ++i) {
      fresh[tape.shard_of[i]].Observe(tape.keys[i], tape.packets[i]);
    }
    double ms = MillisSince(start);
    if (rep == 0 || ms < ingest_ms) ingest_ms = ms;
    trainers = std::move(fresh);
  }
  double ingest_rate = args.events / (ingest_ms / 1000.0);
  std::printf("ingest : %8.2f ms  (%.0f packets/s across %zu shards)\n",
              ingest_ms, ingest_rate, args.shards);

  // Phase 2: training (pipeline + witness scan per shard). Train() is
  // const, so repetitions are genuinely identical.
  double train_ms = 0.0;
  std::vector<federation::ShardExport> exports;
  for (size_t rep = 0; rep < args.reps; ++rep) {
    std::vector<federation::ShardExport> fresh;
    auto start = std::chrono::steady_clock::now();
    for (const federation::ShardTrainer& trainer : trainers) {
      auto shard = trainer.Train();
      if (!shard.ok()) {
        std::fprintf(stderr, "train failed: %s\n",
                     shard.status().ToString().c_str());
        return 1;
      }
      fresh.push_back(std::move(*shard));
    }
    double ms = MillisSince(start);
    if (rep == 0 || ms < train_ms) train_ms = ms;
    exports = std::move(fresh);
  }
  size_t candidates = 0;
  for (const federation::ShardExport& shard : exports) {
    candidates += shard.candidates.size();
  }
  std::printf("train  : %8.2f ms  (%zu candidates over %zu shards)\n",
              train_ms, candidates, args.shards);

  // Phase 3: merge + K-gate, the per-epoch coordinator cost.
  double merge_ms = 0.0;
  match::SignatureSet published;
  federation::ShardExport merged;
  for (size_t rep = 0; rep < args.reps; ++rep) {
    auto start = std::chrono::steady_clock::now();
    auto folded = federation::MergeAll(exports);
    if (!folded.ok()) {
      std::fprintf(stderr, "merge failed: %s\n",
                   folded.status().ToString().c_str());
      return 1;
    }
    match::SignatureSet set = federation::PublishFederated(*folded, args.k);
    double ms = MillisSince(start);
    if (rep == 0 || ms < merge_ms) merge_ms = ms;
    merged = std::move(*folded);
    published = std::move(set);
  }
  std::printf("merge  : %8.2f ms  (%zu published signatures at K=%zu)\n",
              merge_ms, published.size(), args.k);

  bool selfcheck_failed = false;
  if (args.selfcheck) {
    // Law 1: fold order must not matter, down to the serialized bytes.
    std::vector<federation::ShardExport> reversed(exports.rbegin(),
                                                  exports.rend());
    auto remerged = federation::MergeAll(reversed);
    if (!remerged.ok() || federation::SerializeShardExport(*remerged) !=
                              federation::SerializeShardExport(merged)) {
      std::fprintf(stderr, "selfcheck: merge is fold-order dependent\n");
      selfcheck_failed = true;
    }
    // Law 2: the gate is a fixed point — re-publishing the published set
    // (as a candidates-only export over the same witness) changes nothing.
    federation::ShardExport regate = merged;
    regate.candidates = published;
    match::SignatureSet again = federation::PublishFederated(regate, args.k);
    if (again.Serialize() != published.Serialize()) {
      std::fprintf(stderr, "selfcheck: K-gate is not a fixed point\n");
      selfcheck_failed = true;
    }
    // Law 3: nothing below K distinct devices survives.
    for (const auto& sig : published.signatures()) {
      for (const std::string& token : sig.tokens) {
        if (merged.witness.DistinctDevices(token) < args.k) {
          std::fprintf(stderr, "selfcheck: token below K published\n");
          selfcheck_failed = true;
        }
      }
    }
    std::printf("selfcheck: %s\n", selfcheck_failed ? "FAILED" : "ok");
  }

  std::string json = "{\n";
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "  \"devices\": %zu,\n  \"shards\": %zu,\n"
                "  \"events\": %zu,\n  \"k\": %zu,\n",
                args.devices, args.shards, args.events, args.k);
  json += buf;
  std::snprintf(buf, sizeof(buf),
                "  \"ingest_ms\": %.3f,\n  \"ingest_packets_per_s\": %.0f,\n",
                ingest_ms, ingest_rate);
  json += buf;
  std::snprintf(buf, sizeof(buf),
                "  \"train_ms\": %.3f,\n  \"candidates\": %zu,\n", train_ms,
                candidates);
  json += buf;
  std::snprintf(buf, sizeof(buf),
                "  \"merge_publish_ms\": %.3f,\n  \"published\": %zu\n",
                merge_ms, published.size());
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
  return selfcheck_failed ? 1 : 0;
}
