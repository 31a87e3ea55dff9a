// Reproduces Table II: "HTTP packet destinations" — packets and apps per
// destination domain, paper vs measured.

#include <cstdio>
#include <map>

#include "bench_util.h"
#include "eval/analysis.h"
#include "eval/table_format.h"
#include "sim/paper_tables.h"

int main(int argc, char** argv) {
  using namespace leakdet;
  bench::TraceArgs args = bench::ParseArgs(argc, argv);
  sim::Trace trace = bench::GenerateBenchTrace(args);

  std::map<std::string, eval::DomainStats> measured;
  for (const eval::DomainStats& s : eval::ComputeDomainStats(trace)) {
    measured[s.domain] = s;
  }

  std::printf("Table II — HTTP packet destinations (top services)\n");
  eval::TablePrinter table({"HTTP Host Destination", "# Packets (paper)",
                            "# Packets (ours)", "# Apps (paper)",
                            "# Apps (ours)"});
  long paper_pkts_total = 0, our_pkts_total = 0;
  for (const auto& row : sim::kPaperTable2) {
    std::string domain(row.domain);
    const eval::DomainStats& m = measured[domain];
    int paper_pkts = static_cast<int>(row.packets * args.scale + 0.5);
    int paper_apps = static_cast<int>(row.apps * args.scale + 0.5);
    paper_pkts_total += paper_pkts;
    our_pkts_total += static_cast<long>(m.packets);
    table.AddRow({domain, std::to_string(paper_pkts),
                  std::to_string(m.packets), std::to_string(paper_apps),
                  std::to_string(m.apps)});
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf("named-service packets: paper %ld vs ours %ld\n",
              paper_pkts_total, our_pkts_total);
  std::printf("total packets: paper %d vs ours %zu\n",
              static_cast<int>(sim::kPaperTotalPackets * args.scale + 0.5),
              trace.packets.size());
  return 0;
}
