// Match hot-path benchmark: the rare-token prefilter against the dense-DFA
// oracle, written to BENCH_match.json.
//
// Three measurements, all on the same seeded synthetic ad traffic (mostly
// clean packets, one in --leak-every carrying every token of some
// signature):
//
// 1. Prefilter scan cost: ns/packet for Prefilter::Scan alone, per kernel
//    (scalar, SSE2, AVX2 — whichever the CPU can run), plus the skip rate
//    the screen achieves on this workload.
// 2. Match path: ns/packet for the plain DFA (MatchInto) vs the prefiltered
//    path (MatchIntoPrefiltered) per kernel; "match_speedup_<mode>" is the
//    ratio, the single-node throughput multiplier the prefilter buys.
// 3. Gateway: end-to-end packets/s through a one-shard DetectionGateway with
//    single-packet drains (pop_batch=1) vs batched drains (pop_batch=64),
//    prefilter on; and batched with the prefilter forced off — the batching
//    and screening contributions separately.
//
// Timed phases repeat --reps times; the fastest repetition is reported
// (noise is strictly additive).
//
// Usage:
//   bench_match [--packets=20000] [--num-sigs=64] [--tokens-per-sig=4]
//               [--leak-every=32] [--pad=160] [--reps=3] [--seed=7]
//               [--out=BENCH_match.json] [--selfcheck]
//
// --selfcheck asserts correctness on the benched workload instead of
// timing: MatchIntoPrefiltered must return bit-identical hits to MatchInto
// for every packet in every available kernel mode, and the gateway runs
// (batched, unbatched, prefilter off) must produce identical verdict
// streams. Exits nonzero on violation; used by the `perf` ctest smoke run.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/packet.h"
#include "gateway/gateway.h"
#include "match/compiled_set.h"
#include "match/signature.h"
#include "prefilter/prefilter.h"
#include "util/flags.h"
#include "util/rng.h"

namespace {

using namespace leakdet;
using match::CompiledSignatureSet;
using match::ConjunctionSignature;
using match::MatchScratch;
using match::SignatureSet;

struct Args {
  size_t packets = 20000;
  size_t num_sigs = 64;
  size_t tokens_per_sig = 4;
  size_t leak_every = 32;
  size_t pad = 160;
  size_t reps = 3;
  uint64_t seed = 7;
  std::string out = "BENCH_match.json";
  bool selfcheck = false;
};

Args ParseArgs(int argc, char** argv) {
  Flags flags(argc, argv);
  Args args;
  args.packets = flags.Uint("packets", args.packets);
  args.num_sigs = flags.Uint("num-sigs", args.num_sigs);
  args.tokens_per_sig = flags.Uint("tokens-per-sig", args.tokens_per_sig);
  args.leak_every = flags.Uint("leak-every", args.leak_every);
  args.pad = flags.Uint("pad", args.pad);
  args.reps = flags.Uint("reps", args.reps);
  args.seed = flags.Uint("seed", args.seed);
  args.out = flags.String("out", args.out);
  args.selfcheck = flags.Bool("selfcheck");
  if (args.packets == 0 || args.num_sigs == 0 || args.leak_every == 0 ||
      args.reps == 0) {
    flags.Error("--packets, --num-sigs, --leak-every and --reps must be "
                "positive");
  }
  flags.Finish();
  return args;
}

SignatureSet MakeSignatures(const Args& args) {
  Rng rng(args.seed);
  std::vector<ConjunctionSignature> sigs;
  for (size_t s = 0; s < args.num_sigs; ++s) {
    ConjunctionSignature sig;
    sig.id = "sig-" + std::to_string(s);
    for (size_t t = 0; t < args.tokens_per_sig; ++t) {
      sig.tokens.push_back("k" + std::to_string(s) + "_" + std::to_string(t) +
                           "=" + rng.RandomHex(10));
    }
    sigs.push_back(std::move(sig));
  }
  return SignatureSet(std::move(sigs));
}

std::vector<std::string> MakeContents(const SignatureSet& set,
                                      const Args& args) {
  Rng rng(args.seed + 11);
  std::vector<std::string> contents;
  contents.reserve(args.packets);
  for (size_t i = 0; i < args.packets; ++i) {
    std::string content = "GET /serve?x=" + rng.RandomHex(24);
    if (i % args.leak_every == 0 && !set.signatures().empty()) {
      const ConjunctionSignature& sig =
          set.signatures()[i % set.signatures().size()];
      for (const std::string& tok : sig.tokens) content += "&" + tok;
    }
    content += "&pad=" + rng.RandomHex(args.pad);
    contents.push_back(std::move(content));
  }
  return contents;
}

double NsSince(std::chrono::steady_clock::time_point start) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

std::vector<prefilter::Mode> AvailableModes() {
  std::vector<prefilter::Mode> modes = {prefilter::Mode::kScalar};
  if (prefilter::Sse2Available()) modes.push_back(prefilter::Mode::kSse2);
  if (prefilter::Avx2Available()) modes.push_back(prefilter::Mode::kAvx2);
  return modes;
}

// Fastest-of-reps ns/packet for `body(packet_index)` over all contents.
template <typename Body>
double BenchNsPerPacket(const Args& args, size_t n, Body&& body) {
  double best = -1;
  for (size_t rep = 0; rep < args.reps; ++rep) {
    auto start = std::chrono::steady_clock::now();
    for (size_t i = 0; i < n; ++i) body(i);
    double ns = NsSince(start) / static_cast<double>(n);
    if (best < 0 || ns < best) best = ns;
  }
  return best;
}

// One gateway run: submits every content as a packet on a one-shard
// gateway, returns packets/s over the submit+drain wall time and the
// verdict stream (signature hit counts per packet, in order).
double RunGateway(const std::vector<std::string>& contents, size_t pop_batch,
                  prefilter::Mode mode,
                  std::shared_ptr<const CompiledSignatureSet> compiled,
                  std::vector<uint32_t>* verdicts) {
  gateway::GatewayOptions options;
  options.num_shards = 1;
  options.queue_capacity = 4096;
  options.pop_batch = pop_batch;
  options.overload = gateway::OverloadPolicy::kBlock;
  options.prefilter = mode;
  gateway::DetectionGateway gw(options);
  gw.Publish(std::move(compiled));
  verdicts->clear();
  verdicts->reserve(contents.size());
  gw.set_sink([&](const core::HttpPacket&, const gateway::Verdict& verdict) {
    verdicts->push_back(verdict.num_matches);  // one shard: sink is serial
  });
  if (!gw.Start().ok()) {
    std::fprintf(stderr, "gateway failed to start\n");
    std::exit(1);
  }
  auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < contents.size(); ++i) {
    core::HttpPacket packet;
    packet.app_id = static_cast<uint32_t>(i);
    packet.destination.host = "ads.bench.example";
    packet.request_line = contents[i];
    gw.Submit(/*device_id=*/7, std::move(packet));  // one device, one shard
  }
  gw.Stop();  // drains
  double ns = NsSince(start);
  return static_cast<double>(contents.size()) / (ns / 1e9);
}

}  // namespace

int main(int argc, char** argv) {
  Args args = ParseArgs(argc, argv);
  SignatureSet set = MakeSignatures(args);
  auto compiled = std::make_shared<const CompiledSignatureSet>(set, 1);
  std::vector<std::string> contents = MakeContents(set, args);
  const std::vector<prefilter::Mode> modes = AvailableModes();
  const size_t n = contents.size();

  // ---- correctness: the prefiltered path must equal the oracle ----------
  bool all_ok = true;
  size_t skipped = 0;
  {
    MatchScratch oracle, scratch;
    for (size_t i = 0; i < n; ++i) {
      size_t want = compiled->MatchInto(contents[i], {}, &oracle);
      for (prefilter::Mode mode : modes) {
        match::PrefilterOutcome outcome;
        size_t got = compiled->MatchIntoPrefiltered(contents[i], {}, &scratch,
                                                    mode, &outcome);
        if (got != want || scratch.hits != oracle.hits) {
          std::fprintf(stderr,
                       "DIVERGENCE packet %zu mode %s: got %zu want %zu\n", i,
                       prefilter::ModeName(mode), got, want);
          all_ok = false;
        }
        // Skip rate is mode-independent (same table); count once.
        if (mode == modes[0] &&
            outcome == match::PrefilterOutcome::kSkipped) {
          ++skipped;
        }
      }
    }
  }
  const double skip_rate = static_cast<double>(skipped) /
                           static_cast<double>(n);
  std::printf("packets=%zu sigs=%zu skip_rate=%.4f\n", n, args.num_sigs,
              skip_rate);

  // ---- 1. prefilter scan cost per kernel --------------------------------
  const prefilter::Prefilter& pf = compiled->prefilter();
  std::vector<std::pair<std::string, double>> scan_ns;
  for (prefilter::Mode mode : modes) {
    prefilter::ScanScratch scratch;
    uint64_t sink = 0;
    double ns = BenchNsPerPacket(args, n, [&](size_t i) {
      sink += pf.Scan(contents[i], &scratch, mode) ? 1 : 0;
    });
    if (sink == UINT64_MAX) std::printf("impossible\n");  // keep `sink` live
    scan_ns.emplace_back(prefilter::ModeName(mode), ns);
    std::printf("scan[%s]: %.1f ns/packet\n", prefilter::ModeName(mode), ns);
  }

  // ---- 2. DFA oracle vs prefiltered match path --------------------------
  MatchScratch scratch;
  double dfa_ns = BenchNsPerPacket(args, n, [&](size_t i) {
    compiled->MatchInto(contents[i], {}, &scratch);
  });
  std::printf("match[dfa]: %.1f ns/packet\n", dfa_ns);
  std::vector<std::pair<std::string, double>> match_ns;
  double best_speedup = 0;
  for (prefilter::Mode mode : modes) {
    double ns = BenchNsPerPacket(args, n, [&](size_t i) {
      compiled->MatchIntoPrefiltered(contents[i], {}, &scratch, mode);
    });
    match_ns.emplace_back(prefilter::ModeName(mode), ns);
    double speedup = ns > 0 ? dfa_ns / ns : 0;
    if (speedup > best_speedup) best_speedup = speedup;
    std::printf("match[%s]: %.1f ns/packet (%.2fx vs dfa)\n",
                prefilter::ModeName(mode), ns, speedup);
  }

  // ---- 3. gateway: unbatched vs batched, prefilter on vs off ------------
  std::vector<uint32_t> verdicts_single, verdicts_batched, verdicts_off;
  double pps_single = 0, pps_batched = 0, pps_off = 0;
  for (size_t rep = 0; rep < args.reps; ++rep) {
    double a = RunGateway(contents, 1, prefilter::Mode::kAuto, compiled,
                          &verdicts_single);
    double b = RunGateway(contents, 64, prefilter::Mode::kAuto, compiled,
                          &verdicts_batched);
    double c = RunGateway(contents, 64, prefilter::Mode::kOff, compiled,
                          &verdicts_off);
    if (a > pps_single) pps_single = a;
    if (b > pps_batched) pps_batched = b;
    if (c > pps_off) pps_off = c;
    if (verdicts_single != verdicts_batched ||
        verdicts_single != verdicts_off) {
      std::fprintf(stderr, "gateway verdict streams diverged (rep %zu)\n",
                   rep);
      all_ok = false;
    }
  }
  std::printf(
      "gateway: single=%.0f pps batched=%.0f pps batched_prefilter_off=%.0f "
      "pps\n",
      pps_single, pps_batched, pps_off);

  if (args.selfcheck) {
    std::printf("selfcheck: %s\n", all_ok ? "ok" : "FAILED");
  }

  std::string json = "{\n";
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "  \"packets\": %zu,\n  \"num_sigs\": %zu,\n"
                "  \"tokens_per_sig\": %zu,\n  \"leak_every\": %zu,\n"
                "  \"prefilter_skip_rate\": %.4f,\n",
                n, args.num_sigs, args.tokens_per_sig, args.leak_every,
                skip_rate);
  json += buf;
  for (const auto& [name, ns] : scan_ns) {
    std::snprintf(buf, sizeof(buf), "  \"scan_ns_per_packet_%s\": %.1f,\n",
                  name.c_str(), ns);
    json += buf;
  }
  std::snprintf(buf, sizeof(buf), "  \"match_ns_per_packet_dfa\": %.1f,\n",
                dfa_ns);
  json += buf;
  for (const auto& [name, ns] : match_ns) {
    std::snprintf(buf, sizeof(buf),
                  "  \"match_ns_per_packet_%s\": %.1f,\n"
                  "  \"match_speedup_%s\": %.2f,\n",
                  name.c_str(), ns, name.c_str(), ns > 0 ? dfa_ns / ns : 0);
    json += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "  \"match_speedup_best\": %.2f,\n"
                "  \"gateway_pps_single\": %.0f,\n"
                "  \"gateway_pps_batched\": %.0f,\n"
                "  \"gateway_pps_batched_prefilter_off\": %.0f,\n"
                "  \"gateway_batching_speedup\": %.2f,\n"
                "  \"gateway_prefilter_speedup\": %.2f\n",
                best_speedup, pps_single, pps_batched, pps_off,
                pps_single > 0 ? pps_batched / pps_single : 0,
                pps_off > 0 ? pps_batched / pps_off : 0);
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
  return all_ok ? 0 : 1;
}
