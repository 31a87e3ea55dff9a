// Building blocks shared by the workloads and the traced ledger.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <thread>

#include "bench.h"
#include "core/detector.h"
#include "core/signature_server.h"
#include "gateway/gateway.h"
#include "gateway/trainer.h"
#include "net/host.h"
#include "obs/metrics.h"
#include "prefilter/prefilter.h"
#include "sim/trafficgen.h"
#include "store/file.h"
#include "store/store_manager.h"
#include "store/wal.h"

namespace e2e {

namespace core = leakdet::core;
namespace gateway = leakdet::gateway;
namespace match = leakdet::match;
namespace store = leakdet::store;
namespace train = leakdet::train;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0;
}

size_t UsableCores() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

double TrimmedMean(std::vector<double> values, double trim) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t cut = static_cast<size_t>(trim * values.size());
  double sum = 0;
  for (size_t i = cut; i < values.size() - cut; ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * cut);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(q * values.size()));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

double WindowedQuantile(const std::vector<double>& values,
                        const std::vector<uint32_t>& window, double q) {
  std::map<uint32_t, std::vector<double>> windows;
  for (size_t i = 0; i < values.size(); ++i) {
    windows[window[i]].push_back(values[i]);
  }
  std::vector<double> per_window;
  for (const auto& [id, samples] : windows) {
    per_window.push_back(Quantile(samples, q));
  }
  return Median(per_window);
}

namespace {

void Fnv(uint64_t* h, const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    *h = (*h ^ bytes[i]) * 1099511628211ull;
  }
}

void FnvString(uint64_t* h, const std::string& s) {
  uint64_t size = s.size();
  Fnv(h, &size, sizeof(size));
  Fnv(h, s.data(), s.size());
}

}  // namespace

Input MakeInput(uint64_t seed) {
  // The calibrated market (the sim's seed 42: 1,188 apps, 107,859 packets,
  // 22,985 leaking) seen from a handset drawn from `seed`: every leaking
  // packet carries that handset's identifiers, while the traffic's shape,
  // and so the work per run, stays the paper's.
  leakdet::sim::TrafficConfig config;
  config.seed = 42;
  config.device_seed = seed + 1;  // 0 would mean "derive from config.seed"
  config.scale = 1.0;
  leakdet::sim::Trace trace = leakdet::sim::GenerateTrace(config);
  Input input;
  input.device = trace.device.ToTokens();
  input.packets.reserve(trace.packets.size());
  input.leaking.reserve(trace.packets.size());
  uint64_t h = 14695981039346656037ull;
  for (leakdet::sim::LabeledPacket& lp : trace.packets) {
    input.leaking.push_back(lp.sensitive() ? 1 : 0);
    input.num_leaking += lp.sensitive() ? 1 : 0;
    const HttpPacket& p = lp.packet;
    uint32_t ip = p.destination.ip.value();
    Fnv(&h, &p.app_id, sizeof(p.app_id));
    Fnv(&h, &ip, sizeof(ip));
    Fnv(&h, &p.destination.port, sizeof(p.destination.port));
    FnvString(&h, p.destination.host);
    FnvString(&h, p.request_line);
    FnvString(&h, p.cookie);
    FnvString(&h, p.body);
    input.packets.push_back(std::move(lp.packet));
  }
  input.digest = h;
  return input;
}

void Checks::Expect(bool ok, const std::string& what) {
  ++count_;
  if (!ok) {
    ++failures_;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
}

ScratchDir::ScratchDir(const std::string& name) {
  path_ = ".bench_run/" + name + "-" + std::to_string(getpid());
  std::filesystem::remove_all(path_);
  std::filesystem::create_directories(path_);
}

ScratchDir::~ScratchDir() {
  std::error_code ignored;
  std::filesystem::remove_all(path_, ignored);
  std::filesystem::remove(".bench_run", ignored);  // only if now empty
}

core::PipelineOptions PaperPipeline(uint64_t feed_version,
                                    unsigned num_threads) {
  core::PipelineOptions options;
  options.sample_size = 500;
  options.feed_version = feed_version;
  options.num_threads = num_threads;
  return options;
}

ColdEpoch TrainColdEpoch(const Input& input, const core::PayloadCheck& check,
                         uint64_t feed_version, Checks* checks) {
  ColdEpoch epoch;
  const double cpu0 = CpuSeconds();
  const Clock::time_point t0 = Clock::now();
  check.Split(input.packets, &epoch.suspicious, &epoch.normal);
  const Clock::time_point t1 = Clock::now();
  auto trained = core::RunPipeline(epoch.suspicious, epoch.normal,
                                   PaperPipeline(feed_version, 0));
  const Clock::time_point t2 = Clock::now();
  if (trained.ok()) epoch.pipeline = std::move(*trained);
  epoch.compiled = std::make_shared<const match::CompiledSignatureSet>(
      epoch.pipeline.signatures, feed_version + 1);
  const Clock::time_point t3 = Clock::now();
  epoch.cpu_s = CpuSeconds() - cpu0;
  epoch.split_ms = Seconds(t0, t1) * 1e3;
  epoch.pipeline_ms = Seconds(t1, t2) * 1e3;
  epoch.compile_ms = Seconds(t2, t3) * 1e3;
  epoch.ok = trained.ok() && !epoch.pipeline.signatures.empty();
  checks->Expect(trained.ok(), "RunPipeline succeeds: " +
                                   trained.status().ToString());
  checks->Expect(!epoch.pipeline.signatures.empty(),
                 "RunPipeline yields signatures");
  return epoch;
}

WarmTrainer::WarmTrainer(const std::vector<HttpPacket>& suspicious,
                         const std::vector<HttpPacket>& normal,
                         Checks* checks)
    : suspicious_(suspicious),
      normal_(normal),
      checks_(checks),
      dir_("warm"),
      base_(suspicious.size() / 2),
      slice_(std::max<size_t>(1, suspicious.size() / 80)) {
  train::IncrementalTrainerOptions options;
  options.data_dir = dir_.path();
  options.append_only_pool = true;
  trainer_ = std::make_unique<train::IncrementalTrainer>(options);
  pool_.assign(suspicious.begin(),
               suspicious.begin() + static_cast<long>(base_));
  auto first = trainer_->TrainPools(pool_, normal_, PaperPipeline(0, 0));
  checks_->Expect(first.ok(), "base incremental epoch succeeds");
}

void WarmTrainer::Epoch(bool timed) {
  const size_t w = ++epoch_;
  const size_t end = std::min(suspicious_.size(), base_ + w * slice_);
  pool_.insert(pool_.end(),
               suspicious_.begin() + static_cast<long>(pool_.size()),
               suspicious_.begin() + static_cast<long>(end));
  const core::PipelineOptions pipeline = PaperPipeline(w, 0);
  const double cpu0 = CpuSeconds();
  const Clock::time_point t0 = Clock::now();
  auto result = trainer_->TrainPools(pool_, normal_, pipeline);
  const Clock::time_point t1 = Clock::now();
  match::CompiledSignatureSet compiled(
      result.ok() ? result->signatures : match::SignatureSet(), w + 1);
  const Clock::time_point t2 = Clock::now();
  if (timed) {
    warm_.cpu_s += CpuSeconds() - cpu0;
    warm_.train_ms.push_back(Seconds(t0, t1) * 1e3);
    warm_.compile_ms.push_back(Seconds(t1, t2) * 1e3);
  }
  warm_.last = trainer_->last_epoch();
  const bool incremental = result.ok() && trainer_->last_epoch().incremental;
  checks_->Expect(incremental,
                  "warm epoch " + std::to_string(w) + " runs incrementally");
  // The differential oracle, outside the timed window.
  auto scratch = trainer_->TrainPoolsFromScratch(pool_, normal_, pipeline);
  const bool identical =
      result.ok() && scratch.ok() &&
      result->signatures.Serialize() == scratch->signatures.Serialize() &&
      result->clusters == scratch->clusters &&
      result->sampled_indices == scratch->sampled_indices;
  checks_->Expect(identical, "warm epoch " + std::to_string(w) +
                                 " is bit-identical to TrainPoolsFromScratch");
  warm_.failed += incremental && identical ? 0 : 1;
}

WarmEpochs RunWarmEpochs(const std::vector<HttpPacket>& suspicious,
                         const std::vector<HttpPacket>& normal, size_t warmup,
                         size_t epochs, Checks* checks) {
  WarmTrainer trainer(suspicious, normal, checks);
  for (size_t w = 0; w < warmup + epochs; ++w) trainer.Epoch(w >= warmup);
  return trainer.epochs();
}

Replay ReplayClosedLoop(
    const Input& input,
    const std::shared_ptr<const match::CompiledSignatureSet>& epoch,
    size_t shards, size_t rounds, Clock::time_point serve_from,
    Checks* checks, const std::function<void(size_t)>& between) {
  // One packet in kSample gets timestamps on both sides of the gateway.
  constexpr uint64_t kSample = 64;
  const size_t n = input.packets.size();
  gateway::GatewayOptions options;
  options.num_shards = shards;
  gateway::DetectionGateway gw(options);

  // Per-device FIFO: shard s sees its share of the trace in trace order,
  // so its k-th verdict is for packet order[s][k % order[s].size()].
  std::vector<uint32_t> shard_of(n);
  std::vector<std::vector<uint32_t>> order(shards);
  for (size_t i = 0; i < n; ++i) {
    shard_of[i] = static_cast<uint32_t>(gw.shard_of(input.packets[i].app_id));
    order[shard_of[i]].push_back(static_cast<uint32_t>(i));
  }
  struct alignas(64) ShardLog {
    uint64_t seen = 0;
    uint64_t sensitive = 0;
    Clock::time_point first;
    std::vector<uint8_t> verdict;
    std::vector<Clock::time_point> sink_at;  // sampled
    std::vector<Clock::time_point> call_at;  // sampled, producer side
    std::vector<Clock::time_point> return_at;
  };
  std::vector<ShardLog> logs(shards);
  for (size_t s = 0; s < shards; ++s) {
    const size_t total = order[s].size() * rounds;
    logs[s].verdict.resize(total);
    logs[s].sink_at.resize(total / kSample + 1);
    logs[s].call_at.resize(total / kSample + 1);
    logs[s].return_at.resize(total / kSample + 1);
  }
  const uint64_t version = epoch->version();
  gw.set_sink([&logs, version](const HttpPacket&, const gateway::Verdict& v) {
    ShardLog& log = logs[v.shard];
    const uint64_t k = log.seen++;
    if (k >= log.verdict.size()) return;  // more verdicts than packets
    if (k == 0) log.first = Clock::now();
    if (k % kSample == 0) log.sink_at[k / kSample] = Clock::now();
    // Bit 0: sensitive; bit 1: matched under another epoch.
    log.verdict[k] = static_cast<uint8_t>((v.sensitive ? 1 : 0) |
                                          (v.feed_version != version ? 2 : 0));
    log.sensitive += v.sensitive ? 1 : 0;
  });
  checks->Expect(gw.Publish(epoch), "gateway accepts the served epoch");
  checks->Expect(gw.Start().ok(), "gateway starts");

  Replay replay;
  std::vector<uint64_t> submitted(shards, 0);
  const uint64_t total = static_cast<uint64_t>(n) * rounds;
  for (size_t r = 0; r < rounds; ++r) {
    const double cpu0 = CpuSeconds();
    const Clock::time_point t0 = Clock::now();
    for (size_t i = 0; i < n; ++i) {
      const uint32_t s = shard_of[i];
      const uint64_t k = submitted[s]++;
      if (k % kSample == 0) {
        logs[s].call_at[k / kSample] = Clock::now();
        gw.Submit(input.packets[i].app_id, input.packets[i]);
        logs[s].return_at[k / kSample] = Clock::now();
      } else {
        gw.Submit(input.packets[i].app_id, input.packets[i]);
      }
    }
    while (gw.processed() < static_cast<uint64_t>(n) * (r + 1)) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    const Clock::time_point t1 = Clock::now();
    replay.cpu_s += CpuSeconds() - cpu0;
    replay.wall_s += Seconds(t0, t1);
    replay.round_rates.push_back(static_cast<double>(n) / Seconds(t0, t1));
    if (r == 0) replay.first_round_rss_mb = PeakRssMb();
    if (between) between(r);
  }
  gw.Stop();

  // Oracle: the interpreted SignatureSet::Match path, one verdict per
  // distinct packet, compared with every verdict the gateway produced.
  core::Detector detector(epoch->set());
  std::vector<uint8_t> expected(n);
  for (size_t i = 0; i < n; ++i) {
    expected[i] = detector.IsSensitive(input.packets[i]) ? 1 : 0;
  }
  uint64_t mismatches = 0;
  uint64_t wrong_version = 0;
  for (size_t s = 0; s < shards; ++s) {
    const ShardLog& log = logs[s];
    replay.verdicts += log.seen;
    replay.sensitive += log.sensitive;
    replay.per_shard.push_back(log.seen);
    const uint64_t logged = std::min<uint64_t>(log.seen, log.verdict.size());
    for (uint64_t k = 0; k < logged; ++k) {
      const uint8_t got = log.verdict[k];
      const bool wrong = (got & 1) != expected[order[s][k % order[s].size()]];
      mismatches += wrong ? 1 : 0;
      wrong_version += got >> 1;
      replay.failed += wrong || (got & 2) ? 1 : 0;
    }
    for (uint64_t j = 0; j * kSample < logged; ++j) {
      replay.latency_us.push_back(Seconds(log.call_at[j], log.sink_at[j]) *
                                  1e6);
      replay.latency_round.push_back(
          static_cast<uint32_t>(j * kSample / order[s].size()));
      replay.queue_us.push_back(Seconds(log.return_at[j], log.sink_at[j]) *
                                1e6);
      replay.submit_ns.push_back(Seconds(log.call_at[j], log.return_at[j]) *
                                 1e9);
    }
    replay.all_shards_serving_s =
        std::max(replay.all_shards_serving_s, Seconds(serve_from, log.first));
  }
  replay.attempted = total;
  replay.failed += total - std::min(total, replay.verdicts);
  checks->Expect(mismatches == 0,
                 "every gateway verdict equals core::Detector (" +
                     std::to_string(mismatches) + " differ)");
  checks->Expect(wrong_version == 0,
                 "every verdict is under the served epoch");
  checks->Expect(replay.verdicts == total && gw.processed() == total,
                 "one verdict per submitted packet");
  checks->Expect(replay.verdicts == gw.processed() &&
                     replay.sensitive == gw.matched(),
                 "sink counts equal gateway processed()/matched()");
  return replay;
}

MatchPass RunMatchPass(const Input& input,
                       const match::CompiledSignatureSet& set, size_t stride,
                       Timing timing) {
  namespace prefilter = leakdet::prefilter;
  const prefilter::Mode mode = prefilter::Resolve(prefilter::Mode::kAuto);
  match::MatchScratch scratch;
  prefilter::ScanScratch scan;
  MatchPass pass;
  Clock::duration content{}, domain{}, prefiltered{}, scanning{}, dfa{};
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < input.packets.size(); i += stride) {
    const HttpPacket& packet = input.packets[i];
    const Clock::time_point t0 =
        timing == Timing::kNone ? Clock::time_point{} : Clock::now();
    const std::string c = core::PacketContent(packet);
    const Clock::time_point t1 =
        timing == Timing::kLayers ? Clock::now() : Clock::time_point{};
    const std::string d = leakdet::net::RegistrableDomain(
        packet.destination.host);
    const Clock::time_point t2 =
        timing == Timing::kLayers ? Clock::now() : Clock::time_point{};
    const bool hit = set.MatchIntoPrefiltered(c, d, &scratch, mode) > 0;
    pass.verdicts.push_back(hit ? 1 : 0);
    if (timing == Timing::kPerPacket) {
      pass.latency_us.push_back(Seconds(t0, Clock::now()) * 1e6);
    } else if (timing == Timing::kLayers) {
      const Clock::time_point t3 = Clock::now();
      const bool candidate = set.prefilter().Scan(c, &scan, mode);
      const Clock::time_point t4 = Clock::now();
      const bool dfa_hit = set.MatchInto(c, d, &scratch) > 0;
      const Clock::time_point t5 = Clock::now();
      content += t1 - t0;
      domain += t2 - t1;
      prefiltered += t3 - t2;
      scanning += t4 - t3;
      dfa += t5 - t4;
      pass.passed += candidate ? 1 : 0;
      pass.false_candidates += candidate && !dfa_hit ? 1 : 0;
      pass.missed += !candidate && dfa_hit ? 1 : 0;
      pass.differs += hit != dfa_hit ? 1 : 0;
    }
  }
  pass.seconds = Seconds(start, Clock::now());
  const double n = static_cast<double>(pass.verdicts.size());
  auto per_packet_ns = [n](Clock::duration total) {
    return std::chrono::duration<double, std::nano>(total).count() / n;
  };
  pass.content_ns = per_packet_ns(content);
  pass.domain_ns = per_packet_ns(domain);
  pass.prefiltered_ns = per_packet_ns(prefiltered);
  pass.scan_ns = per_packet_ns(scanning);
  pass.dfa_ns = per_packet_ns(dfa);
  return pass;
}

LiveLoop RunLiveLoop(const Input& input, size_t packets, double rate,
                     Checks* checks) {
  constexpr size_t kShards = 2;
  constexpr size_t kRetrainAfter = 200;
  ScratchDir dir("loop");
  leakdet::obs::Registry registry;
  const core::PayloadCheck oracle({input.device});
  core::SignatureServer::Options server_options;
  server_options.retrain_after = kRetrainAfter;
  // The producer, the gateway shards and the distance workers fill the
  // cores; the trainer thread waits on its workers.
  const size_t cores = UsableCores();
  server_options.pipeline = PaperPipeline(
      0, static_cast<unsigned>(cores > kShards + 1 ? cores - kShards - 1 : 1));
  core::SignatureServer server(&oracle, server_options);
  store::StoreOptions store_options;
  store_options.registry = &registry;
  auto opened =
      store::StoreManager::Open(store::Dir::Real(), dir.path(), store_options);
  checks->Expect(opened.ok(), "store opens");
  if (!opened.ok()) return {};
  std::unique_ptr<store::StoreManager> wal = std::move(*opened);
  checks->Expect(wal->Recover(&server).ok(), "empty store recovers");

  gateway::GatewayOptions gw_options;
  gw_options.num_shards = kShards;
  gw_options.registry = &registry;
  gateway::DetectionGateway gw(gw_options);
  gateway::TrainerOptions trainer_options;
  trainer_options.store = wal.get();
  gateway::TrainerLoop trainer(&server, &gw, trainer_options);
  LiveLoop live;
  // The trainer's own retrain path, timed around the call into core; the
  // vector is touched only by the training thread until trainer.Stop().
  server.SetTrainingBackend([&live](const std::vector<HttpPacket>& suspicious,
                                    const std::vector<HttpPacket>& normal,
                                    const core::PipelineOptions& pipeline) {
    const Clock::time_point t0 = Clock::now();
    auto trained = core::RunPipeline(suspicious, normal, pipeline);
    live.pipeline_ms.push_back(Seconds(t0, Clock::now()) * 1e3);
    return trained;
  });

  live.setup_done = Clock::now();
  live.packets = packets;
  const size_t n = input.packets.size();
  struct Offered {
    Clock::time_point at;
    uint64_t sequence;  // global packet index
    uint32_t trace_index;
    bool admitted;
  };
  struct alignas(64) ShardLog {
    uint64_t seen = 0;
    std::vector<uint64_t> sequence;  // producer side: global index of k-th
    std::vector<Clock::time_point> sink_at;
    std::vector<uint64_t> version;
    std::vector<uint8_t> sensitive;
  };
  std::vector<ShardLog> logs(kShards);
  for (ShardLog& log : logs) {
    log.sequence.resize(packets);
    log.sink_at.resize(packets);
    log.version.resize(packets);
    log.sensitive.resize(packets);
  }
  std::mutex offer_mu;
  std::vector<Offered> offers;
  offers.reserve(packets);
  live.offer_ns.reserve(packets);
  gw.set_sink([&](const HttpPacket& packet, const gateway::Verdict& v) {
    ShardLog& log = logs[v.shard];
    const uint64_t k = log.seen++;
    log.sink_at[k] = Clock::now();
    log.version[k] = v.feed_version;
    log.sensitive[k] = v.sensitive ? 1 : 0;
    const uint64_t sequence = log.sequence[k];
    const auto index = static_cast<uint32_t>(sequence % n);
    // Serialized so that the log order is the mailbox order.
    std::lock_guard<std::mutex> lock(offer_mu);
    const Clock::time_point at = Clock::now();
    const bool admitted = trainer.Offer(packet, v);
    live.offer_ns.push_back(Seconds(at, Clock::now()) * 1e9);
    offers.push_back({at, sequence, index, admitted});
  });
  checks->Expect(gw.Start().ok() && trainer.Start().ok(),
                 "gateway and trainer start");

  std::vector<uint64_t> per_shard(kShards, 0);
  const double cpu0 = CpuSeconds();
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(1);
  auto due = [&](uint64_t i) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(static_cast<double>(i) /
                                                  rate));
  };
  live.lateness_us.reserve(packets);
  for (uint64_t i = 0; i < packets; ++i) {
    const Clock::time_point when = due(i);
    std::this_thread::sleep_until(when);
    live.lateness_us.push_back(Seconds(when, Clock::now()) * 1e6);
    const HttpPacket& packet = input.packets[i % n];
    const size_t s = gw.shard_of(packet.app_id);
    logs[s].sequence[per_shard[s]++] = i;
    gw.Submit(packet.app_id, packet);
  }
  while (gw.processed() < packets) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  gw.Stop();
  trainer.Stop();
  live.cpu_s = CpuSeconds() - cpu0;
  checks->Expect(wal->Sync().ok(), "WAL syncs at shutdown");

  // Accounting: submitted, processed and sink-seen agree; nothing was shed.
  uint64_t seen = 0;
  Clock::time_point last = t0;
  for (const ShardLog& log : logs) {
    seen += log.seen;
    for (uint64_t k = 0; k < log.seen; ++k) last = std::max(last, log.sink_at[k]);
  }
  checks->Expect(gw.submitted() == packets && gw.processed() == packets &&
                     seen == packets,
                 "submitted == processed == sink-seen");
  checks->Expect(gw.dropped() == 0 && trainer.training_drops() == 0,
                 "no packet shed (" + std::to_string(trainer.training_drops()) +
                     " trainer drops)");
  live.delivered_per_s = static_cast<double>(packets) / Seconds(t0, last);

  // Per packet, bit 0: its offer was admitted (the trainer forwards every
  // clean packet, so one not admitted was shed); bit 1: its verdict is right.
  std::vector<uint8_t> done(packets, 0);
  uint64_t admitted = 0;
  for (const Offered& o : offers) {
    admitted += o.admitted ? 1 : 0;
    if (o.admitted && o.sequence < packets) done[o.sequence] |= 1;
  }
  checks->Expect(wal->last_sequence() == admitted,
                 "WAL last sequence equals admitted offers (" +
                     std::to_string(wal->last_sequence()) + " vs " +
                     std::to_string(admitted) + ")");

  // Freshness: epoch v is triggered by the (v * retrain_after)-th leaking
  // packet the mailbox admitted, and is served once every shard has
  // produced a verdict under a version >= v.
  live.epochs = trainer.feeds_published();
  std::vector<Clock::time_point> trigger;
  uint64_t leaks = 0;
  for (const Offered& o : offers) {
    if (o.admitted && input.leaking[o.trace_index] &&
        ++leaks % kRetrainAfter == 0) {
      trigger.push_back(o.at);
    }
  }
  checks->Expect(live.epochs == trigger.size(),
                 "one epoch per " + std::to_string(kRetrainAfter) +
                     " admitted leaks (" + std::to_string(live.epochs) +
                     " epochs, " + std::to_string(trigger.size()) +
                     " triggers)");
  for (size_t v = 1; v <= trigger.size(); ++v) {
    Clock::time_point served = trigger[v - 1];
    bool everywhere = true;
    for (const ShardLog& log : logs) {
      uint64_t k = 0;
      while (k < log.seen && log.version[k] < v) ++k;
      if (k == log.seen) {
        everywhere = false;
        break;
      }
      served = std::max(served, log.sink_at[k]);
    }
    if (everywhere) {
      live.freshness_ms.push_back(Seconds(trigger[v - 1], served) * 1e3);
    }
  }

  // Every verdict against core::Detector on the archived epoch it was
  // matched under; latency from each packet's due time.
  std::map<uint64_t, std::unique_ptr<core::Detector>> detectors;
  std::map<uint64_t, std::vector<int8_t>> memo;
  uint64_t mismatches = 0;
  live.latency_us.reserve(packets);
  for (const ShardLog& log : logs) {
    for (uint64_t k = 0; k < log.seen; ++k) {
      const uint64_t v = log.version[k];
      const size_t index = log.sequence[k] % n;
      live.latency_us.push_back(Seconds(due(log.sequence[k]), log.sink_at[k]) *
                                1e6);
      live.latency_second.push_back(
          static_cast<uint32_t>(static_cast<double>(log.sequence[k]) / rate));
      auto& expected = memo[v];
      if (expected.empty()) expected.assign(n, -1);
      if (expected[index] < 0) {
        auto& detector = detectors[v];
        if (detector == nullptr) {
          auto archived = trainer.SetForVersion(v);
          checks->Expect(v == 0 || archived != nullptr,
                         "epoch " + std::to_string(v) + " is archived");
          detector = std::make_unique<core::Detector>(
              archived ? archived->set() : match::SignatureSet());
        }
        expected[index] = detector->IsSensitive(input.packets[index]) ? 1 : 0;
      }
      if (expected[index] != log.sensitive[k]) {
        ++mismatches;
      } else if (log.sequence[k] < packets) {
        done[log.sequence[k]] |= 2;
      }
    }
  }
  live.failed = static_cast<uint64_t>(
      std::count_if(done.begin(), done.end(), [](uint8_t d) { return d != 3; }));
  checks->Expect(mismatches == 0,
                 "every live verdict equals core::Detector on its epoch (" +
                     std::to_string(mismatches) + " differ)");

  auto mean_ms = [&registry](const char* name) {
    return registry.GetHistogram(name)->Take().Mean() / 1e6;
  };
  live.retrain_ms = mean_ms("trainer.retrain_ns");
  live.compile_ms = mean_ms("trainer.compile_ns");
  live.stage_distance_ms = mean_ms("trainer.stage_distance_ns");
  live.stage_cluster_ms = mean_ms("trainer.stage_cluster_ns");
  live.stage_siggen_ms = mean_ms("trainer.stage_siggen_ns");
  live.wal_append_us = mean_ms("store.wal_append_ns") * 1e3;
  live.snapshot_ms = mean_ms("store.snapshot_write_ns");
  size_t framed = 0;
  size_t framed_records = 0;
  for (size_t i = 0; i < offers.size() && framed_records < 2000; ++i) {
    store::FeedRecord record;
    record.sequence = i + 1;
    record.packet = input.packets[offers[i].trace_index];
    framed += store::FrameRecord(record).size();
    ++framed_records;
  }
  live.wal_bytes_per_record =
      framed_records == 0 ? 0 : static_cast<double>(framed) / framed_records;
  size_t snapshots = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir.path())) {
    if (entry.path().extension() == ".snap") {
      live.snapshot_bytes += static_cast<double>(entry.file_size());
      ++snapshots;
    }
  }
  if (snapshots > 0) live.snapshot_bytes /= static_cast<double>(snapshots);

  // Recovery oracle: a fresh server recovered from the data dir serves the
  // live feed version and the same serialized feed, byte for byte.
  const uint64_t live_version = server.feed_version();
  const std::string live_feed = server.Feed();
  wal.reset();
  core::SignatureServer recovered(&oracle, server_options);
  const Clock::time_point r0 = Clock::now();
  auto reopened =
      store::StoreManager::Open(store::Dir::Real(), dir.path(), store_options);
  const bool recovered_ok =
      reopened.ok() && (*reopened)->Recover(&recovered).ok();
  live.recover_ms = Seconds(r0, Clock::now()) * 1e3;
  checks->Expect(recovered_ok && recovered.feed_version() == live_version &&
                     recovered.Feed() == live_feed,
                 "recovery reproduces the live feed version " +
                     std::to_string(live_version) + " byte for byte");
  return live;
}

}  // namespace e2e
