// Shared pieces of the end-to-end benchmark: the seed's paper trace, the
// result record every workload fills, timing helpers, and the building
// blocks (cold epoch, warm epochs, closed-loop replay, live loop) that the
// workloads and the traced ledger compose.
#ifndef LEAKDET_E2EBENCH_BENCH_H_
#define LEAKDET_E2EBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/packet.h"
#include "core/payload_check.h"
#include "core/pipeline.h"
#include "match/compiled_set.h"
#include "train/trainer.h"

namespace e2e {

using leakdet::core::HttpPacket;
using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point from, Clock::time_point to);
/// User + system CPU seconds of this process so far (every thread).
double CpuSeconds();
/// VmHWM of this process, in MB.
double PeakRssMb();
/// Hardware threads this process may run on.
size_t UsableCores();
double Median(std::vector<double> values);
/// The mean of `values` without the lowest and highest `trim` share of
/// them: smoother than the median when the host alternates between a fast
/// and a slow state, yet not set by one stalled sample.
double TrimmedMean(std::vector<double> values, double trim);
/// Nearest-rank quantile, q in [0, 1].
double Quantile(std::vector<double> values, double q);
/// The median over windows of each window's q-quantile, where `window[i]`
/// names the window of `values[i]`: a figure that one host stall does not
/// set for the whole run.
double WindowedQuantile(const std::vector<double>& values,
                        const std::vector<uint32_t>& window, double q);

/// The seed's calibrated `sim` trace at paper scale. The program under test
/// only ever sees `packets`; the labels and device identity stay with the
/// benchmark's oracles.
struct Input {
  std::vector<HttpPacket> packets;
  std::vector<uint8_t> leaking;  ///< ground truth, one per packet
  leakdet::core::DeviceTokens device;
  size_t num_leaking = 0;
  uint64_t digest = 0;  ///< FNV-1a over every packet field
};
Input MakeInput(uint64_t seed);

/// Correctness accounting: every check that fails is printed to stderr and
/// makes the run's `correct` false.
class Checks {
 public:
  void Expect(bool ok, const std::string& what);
  bool ok() const { return failures_ == 0; }
  size_t count() const { return count_; }

 private:
  size_t count_ = 0;
  size_t failures_ = 0;
};

struct Result {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Checks checks;
  std::map<std::string, std::pair<double, std::string>> metrics;
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
};

struct Options {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  Clock::time_point process_start;
};

/// A directory under .bench_run/ in the working directory, removed on
/// destruction.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// The paper's N=500 pipeline configuration for one epoch (`num_threads`
/// 0 = every core, as a batch job runs it).
leakdet::core::PipelineOptions PaperPipeline(uint64_t feed_version,
                                             unsigned num_threads);

/// One from-scratch epoch: raw trace -> PayloadCheck::Split ->
/// core::RunPipeline -> match::CompiledSignatureSet.
struct ColdEpoch {
  std::vector<HttpPacket> suspicious;
  std::vector<HttpPacket> normal;
  leakdet::core::PipelineResult pipeline;
  std::shared_ptr<const leakdet::match::CompiledSignatureSet> compiled;
  double split_ms = 0;
  double pipeline_ms = 0;
  double compile_ms = 0;
  double cpu_s = 0;
  /// RunPipeline succeeded and yielded signatures.
  bool ok = false;
  double total_ms() const { return split_ms + pipeline_ms + compile_ms; }
};
ColdEpoch TrainColdEpoch(const Input& input,
                         const leakdet::core::PayloadCheck& check,
                         uint64_t feed_version, Checks* checks);

/// Incremental epochs of train::IncrementalTrainer over an append-only pool
/// with its data dir on local disk, one at a time, so that a workload can
/// spread them over its run. The constructor runs the base epoch over the
/// first half of `suspicious`; each Epoch() appends the next 1/80 of it and
/// runs one warm epoch, timed or not (the first epochs fill the NCD sidecar,
/// with several times the pair compressions of a steady-state epoch, and
/// are run untimed). Every warm epoch is compared with TrainPoolsFromScratch
/// outside its timed window. `suspicious` and `normal` must outlive it.
struct WarmEpochs {
  std::vector<double> train_ms;    ///< TrainPools per timed warm epoch
  std::vector<double> compile_ms;  ///< compiling its signatures
  double cpu_s = 0;                ///< CPU over the timed windows
  /// Warm epochs, untimed ones included, that returned an error, did not
  /// run incrementally or differ from TrainPoolsFromScratch.
  size_t failed = 0;
  leakdet::train::EpochStats last;
};
class WarmTrainer {
 public:
  WarmTrainer(const std::vector<HttpPacket>& suspicious,
              const std::vector<HttpPacket>& normal, Checks* checks);
  void Epoch(bool timed);
  const WarmEpochs& epochs() const { return warm_; }

 private:
  const std::vector<HttpPacket>& suspicious_;
  const std::vector<HttpPacket>& normal_;
  Checks* checks_;
  ScratchDir dir_;
  std::unique_ptr<leakdet::train::IncrementalTrainer> trainer_;
  std::vector<HttpPacket> pool_;
  size_t base_ = 0;
  size_t slice_ = 0;
  size_t epoch_ = 0;
  WarmEpochs warm_;
};
/// `warmup` untimed, then `epochs` timed warm epochs, back to back.
WarmEpochs RunWarmEpochs(const std::vector<HttpPacket>& suspicious,
                         const std::vector<HttpPacket>& normal, size_t warmup,
                         size_t epochs, Checks* checks);

/// Closed-loop replay of the whole trace `rounds` times from one producer
/// thread through a gateway of `shards` shards serving `epoch`. Each round
/// is timed from its first Submit until its last verdict is in; then, with
/// the gateway idle and outside the timed windows, `between(round)` runs
/// when given.
struct Replay {
  uint64_t attempted = 0;  ///< packets submitted
  /// Submitted packets whose verdict is missing, differs from
  /// core::Detector or is under another epoch.
  uint64_t failed = 0;
  uint64_t verdicts = 0;
  uint64_t sensitive = 0;
  std::vector<double> round_rates;   ///< verdicts/s of each round
  double first_round_rss_mb = 0;     ///< VmHWM once the first round is in
  std::vector<double> latency_us;    ///< sampled Submit call -> sink
  std::vector<uint32_t> latency_round;  ///< replay round of each sample
  std::vector<double> queue_us;      ///< sampled Submit return -> sink
  std::vector<double> submit_ns;     ///< sampled Submit call durations
  std::vector<uint64_t> per_shard;   ///< verdicts per shard
  double wall_s = 0;  ///< over the rounds
  double cpu_s = 0;   ///< over the rounds
  /// Seconds from `serve_from` (an argument) to the first verdict on every
  /// shard.
  double all_shards_serving_s = 0;
};
Replay ReplayClosedLoop(
    const Input& input,
    const std::shared_ptr<const leakdet::match::CompiledSignatureSet>& epoch,
    size_t shards, size_t rounds, Clock::time_point serve_from,
    Checks* checks, const std::function<void(size_t)>& between = {});

/// The live stack (gateway, TrainerLoop, SignatureServer, StoreManager) fed
/// `packets` trace packets open-loop at `rate` packets/s from empty state.
struct LiveLoop {
  uint64_t packets = 0;
  /// Packets whose verdict is missing or differs from core::Detector on its
  /// epoch, or whose training offer the trainer shed.
  uint64_t failed = 0;
  size_t epochs = 0;
  std::vector<double> freshness_ms;  ///< per epoch served on every shard
  std::vector<double> latency_us;    ///< due time -> verdict, per packet
  std::vector<uint32_t> latency_second;  ///< second of each packet's due time
  std::vector<double> lateness_us;   ///< due time -> Submit call, per packet
  std::vector<double> offer_ns;      ///< TrainerLoop::Offer call durations
  double delivered_per_s = 0;
  double cpu_s = 0;
  std::vector<double> pipeline_ms;  ///< RunPipeline per retrain
  double retrain_ms = 0;  ///< mean trainer.retrain_ns (includes compile)
  double compile_ms = 0;
  double stage_distance_ms = 0;
  double stage_cluster_ms = 0;
  double stage_siggen_ms = 0;
  double wal_append_us = 0;
  double wal_bytes_per_record = 0;
  double snapshot_ms = 0;
  double snapshot_bytes = 0;
  double recover_ms = 0;
  /// When the store was open and recovered and the stack built.
  Clock::time_point setup_done;
};
LiveLoop RunLiveLoop(const Input& input, size_t packets, double rate,
                     Checks* checks);

/// Single-thread content -> domain -> prefiltered match over every
/// `stride`-th trace packet: the detector a device would run. kPerPacket
/// times each packet; kLayers times each call apart and, after them, the
/// prefilter scan and the full DFA on their own.
enum class Timing { kNone, kPerPacket, kLayers };
struct MatchPass {
  double seconds = 0;              ///< the whole pass
  std::vector<uint8_t> verdicts;   ///< one per visited packet
  std::vector<double> latency_us;  ///< kPerPacket: one per visited packet
  // kLayers: mean ns per visited packet of each call.
  double content_ns = 0;
  double domain_ns = 0;
  double prefiltered_ns = 0;
  double scan_ns = 0;
  double dfa_ns = 0;
  uint64_t passed = 0;            ///< kLayers: packets the scan passed on
  uint64_t false_candidates = 0;  ///< ... of which the DFA matched none
  uint64_t missed = 0;  ///< kLayers: DFA matches the scan screened out
  uint64_t differs = 0;  ///< kLayers: prefiltered verdict != DFA verdict
};
MatchPass RunMatchPass(const Input& input,
                       const leakdet::match::CompiledSignatureSet& set,
                       size_t stride, Timing timing);

/// The workloads (workloads.cc) and the traced per-layer ledger (ledger.cc).
void RunServe(const Options& options, const Input& input, Result* result);
void RunTrain(const Options& options, const Input& input, Result* result);
void RunLoop(const Options& options, const Input& input, Result* result);
void RunLedger(const Options& options, const Input& input, Result* result);

}  // namespace e2e

#endif  // LEAKDET_E2EBENCH_BENCH_H_
