// Reproduces Table I: "Number of applications with dangerous permission
// combinations" — the permission mix of the simulated market vs the paper.

#include <cstdio>

#include "bench_util.h"
#include "eval/table_format.h"
#include "sim/paper_tables.h"

int main(int argc, char** argv) {
  using namespace leakdet;
  bench::TraceArgs args = bench::ParseArgs(argc, argv);
  sim::Trace trace = bench::GenerateBenchTrace(args);

  std::vector<int> measured = trace.population.PermissionComboCounts();

  std::printf("Table I — dangerous permission combinations\n");
  eval::TablePrinter table(
      {"INTERNET", "LOCATION", "PHONE STATE", "CONTACTS", "# Apps (paper)",
       "# Apps (measured)"});
  auto mark = [](bool b) { return std::string(b ? "x" : ""); };
  for (size_t i = 0; i < sim::kPaperTable1.size(); ++i) {
    const auto& row = sim::kPaperTable1[i];
    int paper = static_cast<int>(row.apps * args.scale + 0.5);
    table.AddRow({mark(row.internet), mark(row.location),
                  mark(row.phone_state), mark(row.contacts),
                  std::to_string(paper), std::to_string(measured[i])});
  }
  table.AddRow({"x", "(other)", "", "",
                std::to_string(static_cast<int>(
                    sim::kPaperTable1OtherApps * args.scale + 0.5)),
                std::to_string(measured[5])});
  std::printf("%s\n", table.Render().c_str());

  int total = 0;
  int dangerous = 0;
  for (const sim::App& app : trace.population.apps) {
    ++total;
    if (app.permissions.IsDangerousCombination()) ++dangerous;
  }
  std::printf(
      "dangerous combinations: %d/%d apps (%.0f%%); paper reports 61%% of "
      "1,188\n",
      dangerous, total, 100.0 * dangerous / total);
  std::printf(
      "note: the paper's Table I rows sum to 955 and its 61%% claim implies "
      "727 dangerous apps; the published numbers are internally "
      "inconsistent. We reproduce the table rows exactly and report the "
      "dangerous share they imply.\n");
  return 0;
}
