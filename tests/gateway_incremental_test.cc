// End-to-end wiring of the incremental, out-of-core trainer behind the
// gateway: retrains route through train::IncrementalTrainer via the
// SignatureServer training-backend hook, published feeds stay bit-identical
// to the from-scratch oracle, and the trainer.dedup_* / trainer.tile_spill_*
// metric families reflect the epochs.

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/payload_check.h"
#include "core/signature_server.h"
#include "gateway/gateway.h"
#include "gateway/trainer.h"
#include "testing/packet_gen.h"
#include "testing/scripted_file.h"
#include "train/trainer.h"
#include "util/rng.h"

namespace leakdet::gateway {
namespace {

using leakdet::testing::GeneratePacket;
using leakdet::testing::ScriptedDir;

core::SignatureServer::Options SmallServerOptions() {
  core::SignatureServer::Options options;
  options.retrain_after = 4;
  options.pipeline.sample_size = 6;
  options.pipeline.normal_corpus_size = 8;
  options.pipeline.num_threads = 1;
  return options;
}

void WaitForProcessed(const TrainerLoop& trainer, uint64_t n) {
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (trainer.items_processed() < n) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "trainer never processed " << n << " items";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(GatewayIncrementalTest, RetrainsRouteThroughIncrementalBackend) {
  Rng rng(7);
  core::DeviceTokens device;
  device.android_id = rng.RandomHex(16);
  device.imei = rng.RandomDigits(15);
  core::PayloadCheck oracle(std::vector<core::DeviceTokens>{device});
  std::vector<std::string> tokens{device.android_id, device.imei};

  ScriptedDir dir(42);
  train::IncrementalTrainerOptions train_options;
  train_options.dir = &dir;
  train_options.data_dir = "train";
  train_options.tile_rows = 2;
  train::IncrementalTrainer incremental(train_options);

  core::SignatureServer server(&oracle, SmallServerOptions());
  GatewayOptions gateway_options;
  gateway_options.num_shards = 1;
  DetectionGateway gateway(gateway_options);
  TrainerOptions trainer_options;
  trainer_options.incremental = &incremental;
  TrainerLoop trainer(&server, &gateway, trainer_options);
  ASSERT_TRUE(trainer.Start().ok());

  Verdict verdict;
  verdict.sensitive = true;
  // Three retrain batches: the second and third exercise the incremental
  // (previous-dendrogram) path end to end.
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(trainer.Offer(GeneratePacket(&rng, tokens, 1.0), verdict));
    WaitForProcessed(trainer, static_cast<uint64_t>(i) + 1);
  }
  trainer.Stop();

  EXPECT_EQ(trainer.feeds_published(), 3u);
  EXPECT_EQ(server.feed_version(), 3u);
  EXPECT_TRUE(incremental.last_epoch().incremental);

  // The published feed is bit-identical to a from-scratch retrain over the
  // same pools at the same epoch — the backend's differential contract,
  // observed through the gateway.
  core::PipelineOptions pipeline = server.options().pipeline;
  pipeline.feed_version = incremental.last_epoch().epoch;
  auto scratch = incremental.TrainPoolsFromScratch(
      server.suspicious_pool(), server.normal_pool(), pipeline);
  ASSERT_TRUE(scratch.ok()) << scratch.status().message();
  EXPECT_EQ(server.signatures().Serialize(), scratch->signatures.Serialize());

  // Epoch metrics made it onto the scrape surface.
  obs::Registry* metrics = gateway.metrics();
  EXPECT_EQ(metrics->GetCounter("trainer.retrains", {})->Value(), 3u);
  EXPECT_GE(metrics->GetCounter("trainer.dedup_ingested", {})->Value(), 12u);
  EXPECT_GT(metrics->GetGauge("trainer.dedup_distinct", {})->Value(), 0);
  EXPECT_GT(metrics->GetCounter("trainer.tile_spill_tiles_computed", {})->Value(),
            0u);
  EXPECT_GT(metrics->GetCounter("trainer.tile_spill_bytes_written", {})->Value(),
            0u);
  EXPECT_GT(metrics->GetCounter("trainer.cluster_merges_replayed", {})->Value() +
                metrics->GetCounter("trainer.cluster_merges_dirty", {})->Value(),
            0u);
}

TEST(GatewayIncrementalTest, NullBackendKeepsCorePipelinePath) {
  Rng rng(9);
  core::DeviceTokens device;
  device.android_id = rng.RandomHex(16);
  core::PayloadCheck oracle(std::vector<core::DeviceTokens>{device});
  std::vector<std::string> tokens{device.android_id};

  core::SignatureServer server(&oracle, SmallServerOptions());
  GatewayOptions gateway_options;
  gateway_options.num_shards = 1;
  DetectionGateway gateway(gateway_options);
  TrainerLoop trainer(&server, &gateway, TrainerOptions{});
  ASSERT_TRUE(trainer.Start().ok());

  Verdict verdict;
  verdict.sensitive = true;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(trainer.Offer(GeneratePacket(&rng, tokens, 1.0), verdict));
  }
  WaitForProcessed(trainer, 4);
  trainer.Stop();

  EXPECT_EQ(trainer.feeds_published(), 1u);
  // The incremental families were never registered.
  EXPECT_EQ(gateway.metrics()->GetCounter("trainer.dedup_ingested", {})->Value(),
            0u);
}

}  // namespace
}  // namespace leakdet::gateway
