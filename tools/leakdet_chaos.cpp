// Deterministic chaos driver for the feed/gateway serving path: runs the
// full SignatureServer + TrainerLoop (with a durable in-memory store) +
// DetectionGateway + FeedServer + obs::AdminServer stack over scripted
// connections under a seeded fault schedule, and verifies every gateway
// verdict against the single-threaded core::Detector oracle plus exact
// packet conservation and /statusz-vs-live-state consistency.
// --admin-port additionally exposes driver progress (/statusz) over TCP.
//
// Reproducibility is the point: `leakdet_chaos --seed S --schedule F` is
// bit-for-bit replayable — identical verdict streams (hashed into the run
// digest), drop counters, and exit status on every run. With --runs=N (default
// 2) the tool executes the scenario N times in-process and fails if any
// digest or deterministic counter differs.
//
// Examples:
//   leakdet_chaos --schedule=short-io --seed=7
//   leakdet_chaos --schedule=tools/schedules/reset_storm.fault --runs=3
//   leakdet_chaos --list-schedules
//   leakdet_chaos --schedule=swap-crash --print-schedule

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/admin_server.h"
#include "testing/chaos.h"
#include "testing/fault_script.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  leakdet::Flags flags(argc, argv);
  const std::string schedule = flags.String("schedule", "short-io");
  // --seed=0 keeps the schedule's own seed; --admin-port=0 picks any port.
  const uint64_t seed = flags.Uint("seed", 0);
  const size_t runs = flags.Uint("runs", 2);
  leakdet::testing::ChaosOptions options;
  options.shards = flags.Uint("shards", 4);
  options.epochs = flags.Uint("epochs", 3);
  options.packets_per_epoch = flags.Uint("packets", 120);
  options.feed_fetches_per_epoch = flags.Uint("fetches", 2);
  options.queue_capacity = flags.Uint("queue-capacity", 256);
  const bool with_admin = flags.Has("admin-port");
  const uint64_t admin_port = flags.Uint("admin-port", 0, 65535);
  const bool list_schedules = flags.Bool("list-schedules");
  const bool print_schedule = flags.Bool("print-schedule");
  const bool verbose = flags.Bool("verbose", 'v');
  if (runs == 0) flags.Error("--runs must be positive");
  if (options.epochs == 0) flags.Error("--epochs must be positive");
  flags.Finish();

  if (list_schedules) {
    for (const std::string& name :
         leakdet::testing::FaultScript::BuiltinNames()) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }

  auto script = leakdet::testing::FaultScript::Load(schedule);
  if (!script.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 std::string(script.status().message()).c_str());
    return 2;
  }
  if (seed != 0) script->set_seed(seed);
  if (print_schedule) {
    std::printf("%s", script->Serialize().c_str());
    return 0;
  }

  options.script = *script;
  options.seed = script->seed();
  if (verbose) {
    options.log = [](const std::string& message) {
      std::fprintf(stderr, "[chaos] %s\n", message.c_str());
    };
  }

  std::printf("schedule=%s seed=%llu runs=%zu\n", script->name().c_str(),
              static_cast<unsigned long long>(script->seed()), runs);

  // Optional admin plane for long chaos campaigns: each RunChaos owns a
  // private registry (its components' lifetimes end with the run), so the
  // process-global default registry carries driver-level progress instead.
  std::atomic<uint64_t> runs_done{0};
  std::atomic<uint64_t> runs_failed{0};
  leakdet::obs::Registry* registry = leakdet::obs::Registry::Default();
  leakdet::obs::Gauge* runs_gauge = registry->GetGauge("chaos.runs_done");
  leakdet::obs::Gauge* failed_gauge = registry->GetGauge("chaos.runs_failed");
  leakdet::obs::AdminServer admin;
  if (with_admin) {
    std::string schedule_name = script->name();
    admin.AddStatusSection(
        "chaos", [schedule_name, &runs_done, &runs_failed, total = runs] {
          return "schedule: " + schedule_name +
                 "\nruns_done: " + std::to_string(runs_done.load()) +
                 "\nruns_failed: " + std::to_string(runs_failed.load()) +
                 "\nruns_total: " + std::to_string(total) + "\n";
        });
    leakdet::Status started =
        admin.Start(static_cast<uint16_t>(admin_port));
    if (!started.ok()) {
      std::fprintf(stderr, "admin server: %s\n", started.ToString().c_str());
      return 2;
    }
    std::printf("admin plane at http://127.0.0.1:%u/statusz\n", admin.port());
  }

  bool all_ok = true;
  bool reproducible = true;
  uint64_t first_digest = 0;
  leakdet::testing::ChaosResult first;
  for (size_t run = 0; run < runs; ++run) {
    leakdet::testing::ChaosResult result =
        leakdet::testing::RunChaos(options);
    std::printf("--- run %zu ---\n%s\n", run + 1, result.Summary().c_str());
    if (!result.ok()) {
      all_ok = false;
      runs_failed.fetch_add(1);
    }
    runs_done.fetch_add(1);
    runs_gauge->Set(static_cast<int64_t>(runs_done.load()));
    failed_gauge->Set(static_cast<int64_t>(runs_failed.load()));
    if (run == 0) {
      first = result;
      first_digest = result.digest;
    } else if (result.digest != first_digest ||
               result.delivered != first.delivered ||
               result.dropped != first.dropped ||
               result.accepted != first.accepted ||
               result.oracle_mismatches != first.oracle_mismatches ||
               result.swaps != first.swaps) {
      reproducible = false;
    }
  }
  if (!reproducible) {
    std::fprintf(stderr,
                 "FAIL: runs diverged — the scenario is not deterministic\n");
    return 1;
  }
  if (!all_ok) {
    std::fprintf(stderr, "FAIL: chaos invariants violated (see summaries)\n");
    return 1;
  }
  std::printf("PASS: %zu run(s), digest=%llx\n", runs,
              static_cast<unsigned long long>(first_digest));
  return 0;
}
