//===- perfbench/src/main.cpp - Benchmark runner entry point --------------===//
//
//   akg-perfbench --workload <compile_cold|gemm_tune|serve_stream>
//                 --seed <n> --seconds <s> --trace <0|1>
//   akg-perfbench --selftest
//
// Builds the workload's inputs from the seed (timed as setup_s), then runs
// whole rounds until --seconds have passed, each round in fresh forked
// processes. Prints progress on stderr and, as the last line of stdout, one
// JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer ledger with --trace 1. A traced run
// alternates untraced and traced rounds, writes the traced rounds' spans to
// .bench_out/spans-<workload>-seed<n>.jsonl, and reports the tracing
// overhead as the difference between the two kinds of rounds.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Checks.h"

#include "support/Env.h"
#include "support/Stats.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <sys/resource.h>

using namespace perfbench;

namespace perfbench {

void enterRound(bool Traced, Report &Rep) {
  if (!Traced)
    return;
  env::set("AKG_STATS", "1");
  if (!Stats::enabled())
    Rep.fail("Stats were initialized before the round started; traced "
             "timers are off");
}

} // namespace perfbench

namespace {

/// Every environment knob the program reads; the runner clears them so a
/// run measures the program's defaults whatever the caller's shell holds.
const char *const kProgramEnv[] = {
    "AKG_CACHE_DIR",     "AKG_CACHE_MAX_BYTES", "AKG_TARGET",
    "AKG_FAIL_STAGE",    "AKG_DEADLINE_MS",     "AKG_CHAOS",
    "AKG_TRACE",         "AKG_TRACE_SNAPSHOTS", "AKG_STATS",
    "AKG_DYNSHAPE",      "AKG_SHAPE_BUCKETS",   "AKG_ASTGEN_MEMO",
    "AKG_QUEUE_DEPTH",   "AKG_SHED_POLICY"};

/// End-to-end times, each the sum over the round's items (operations,
/// phases) of the item's fastest round.
const char *const kItemTimes[] = {"wall_s", "compile_s", "measure_s"};

/// Per-layer names whose value is a figure of the whole round; the traced
/// run reports them from its untraced rounds.
const char *const kRoundFigures[] = {
    "net_cycles", "op_cycles_gm", "simt_cycles_gm", "tune_s",
    "tuned_cycles_gm", "serve_s", "restart_s", "req_p50_ms", "req_p99_ms"};

struct Round {
  Report Rep;
  bool Traced = false;
};

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

/// Fastest round of every item of \p Metric, over the untraced rounds.
std::map<std::string, double> fastestItems(const std::vector<Round> &Rs,
                                           const std::string &Metric) {
  std::map<std::string, double> Best;
  std::string Prefix = Metric + "|";
  for (const Round &R : Rs) {
    if (R.Traced)
      continue;
    for (const auto &[K, V] : R.Rep.Items) {
      if (K.rfind(Prefix, 0) != 0)
        continue;
      auto [It, New] = Best.emplace(K.substr(Prefix.size()), V);
      if (!New)
        It->second = std::min(It->second, V);
    }
  }
  return Best;
}

/// Median of \p Key over the rounds of the given kind that report it.
double medianOf(const std::vector<Round> &Rs, const std::string &Key,
                bool Traced) {
  std::vector<double> V;
  for (const Round &R : Rs) {
    if (R.Traced != Traced)
      continue;
    auto It = R.Rep.Metrics.find(Key);
    if (It != R.Rep.Metrics.end())
      V.push_back(It->second);
  }
  return median(V);
}

/// Self time per layer: each span's duration minus the part of it that
/// its children cover.
std::map<std::string, double> selfTimes(const std::vector<Span> &Spans) {
  std::map<int64_t, std::vector<const Span *>> Kids;
  for (const Span &S : Spans)
    Kids[S.Parent].push_back(&S);
  std::map<std::string, double> Self;
  for (const Span &S : Spans) {
    std::vector<std::pair<double, double>> Iv;
    for (const Span *K : Kids[S.Id])
      Iv.emplace_back(std::max(K->Start, S.Start), std::min(K->End, S.End));
    std::sort(Iv.begin(), Iv.end());
    double Covered = 0, Lo = 0, Hi = -1;
    for (auto [A, B] : Iv) {
      if (B <= A)
        continue;
      if (A > Hi) {
        Covered += std::max(0.0, Hi - Lo);
        Lo = A;
        Hi = B;
      } else {
        Hi = std::max(Hi, B);
      }
    }
    Covered += std::max(0.0, Hi - Lo);
    Self[S.Layer] += std::max(0.0, (S.End - S.Start) - Covered);
  }
  return Self;
}

std::string number(double V) {
  std::ostringstream O;
  O.precision(12);
  O << V;
  return O.str();
}

std::string unitOf(const std::string &Name) {
  auto Ends = [&](const char *Suf) {
    size_t N = std::strlen(Suf);
    return Name.size() >= N && Name.compare(Name.size() - N, N, Suf) == 0;
  };
  if (Ends("_minstr_per_s"))
    return "Minstr/s";
  if (Ends("_ms") || Ends("_ms_p50"))
    return "ms";
  if (Ends("_s") || Name.rfind("self_s.", 0) == 0)
    return "s";
  if (Ends("_mb"))
    return "MB";
  if (Ends("cycles") || Ends("cycles_gm") || Name.rfind("sim.busy.", 0) == 0)
    return "cycles";
  if (Ends("_bytes") || Ends(".bytes"))
    return "B";
  if (Ends("_pct"))
    return "%";
  return "count";
}

int usage() {
  std::fprintf(stderr,
               "usage: akg-perfbench --workload <compile_cold|gemm_tune|"
               "serve_stream> --seed <n> --seconds <s> --trace <0|1>\n"
               "       akg-perfbench --selftest\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  nowSeconds(); // the clock starts with the process
  for (const char *K : kProgramEnv)
    env::unset(K);
  // Every thread count is the benchmark's: sequential dependence analysis
  // and compiles; the serving workload sizes its service explicitly.
  env::set("AKG_THREADS", "1");

  RunConfig Cfg;
  bool SelfTest = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Val = [&]() -> std::string {
      return I + 1 < Argc ? Argv[++I] : std::string();
    };
    if (A == "--workload")
      Cfg.Workload = Val();
    else if (A == "--seed")
      Cfg.Seed = std::strtoull(Val().c_str(), nullptr, 10);
    else if (A == "--seconds")
      Cfg.Seconds = std::atof(Val().c_str());
    else if (A == "--trace")
      Cfg.Trace = Val() == "1";
    else if (A == "--selftest")
      SelfTest = true;
    else
      return usage();
  }
  if (SelfTest)
    return runSelfTest() ? 1 : 0;

  std::unique_ptr<Workload> W;
  if (Cfg.Workload == "compile_cold")
    W = makeCompileCold();
  else if (Cfg.Workload == "gemm_tune")
    W = makeGemmTune();
  else if (Cfg.Workload == "serve_stream")
    W = makeServeStream();
  else
    return usage();
  if (Cfg.Seconds <= 0)
    return usage();

  std::filesystem::create_directories(Cfg.OutDir);
  W->setup(Cfg);
  double SetupSeconds = nowSeconds();

  // Whole rounds while the next one, judged by the fastest so far, still
  // ends within the time (a round slowed by the host does not end the run
  // early); a traced run alternates untraced and traced rounds and needs
  // at least one of each.
  std::vector<Round> Rounds;
  double Start = nowSeconds(), Fastest = 1e30;
  for (unsigned I = 0;; ++I) {
    bool Traced = Cfg.Trace && I % 2 == 1;
    double R0 = nowSeconds();
    Rounds.push_back({W->round(I, Traced), Traced});
    double R1 = nowSeconds();
    std::fprintf(stderr, "[perfbench] %s round %u%s: %.2fs\n",
                 Cfg.Workload.c_str(), I, Traced ? " (traced)" : "", R1 - R0);
    Fastest = std::min(Fastest, R1 - R0);
    bool Enough = R1 - Start + Fastest > Cfg.Seconds;
    if (Enough && (!Cfg.Trace || Rounds.size() >= 2))
      break;
  }

  int64_t Attempted = 0, Failed = 0;
  std::vector<std::string> Errors;
  for (const Round &R : Rounds) {
    Attempted += R.Rep.Attempted;
    Failed += R.Rep.Failed;
    Errors.insert(Errors.end(), R.Rep.Errors.begin(), R.Rep.Errors.end());
  }
  for (size_t I = 0; I < Errors.size() && I < 20; ++I)
    std::fprintf(stderr, "[perfbench] CHECK FAILED: %s\n", Errors[I].c_str());
  if (Errors.size() > 20)
    std::fprintf(stderr, "[perfbench] ... %zu more check failures\n",
                 Errors.size() - 20);

  struct rusage Self, Kids;
  getrusage(RUSAGE_SELF, &Self);
  getrusage(RUSAGE_CHILDREN, &Kids);
  double PeakMb = double(std::max(Self.ru_maxrss, Kids.ru_maxrss)) / 1024.0;

  std::vector<std::pair<std::string, double>> Out;
  if (!Cfg.Trace) {
    Out.emplace_back("setup_s", SetupSeconds);
    Out.emplace_back("peak_rss_mb", PeakMb);
    for (const char *K : kItemTimes) {
      double Sum = 0;
      for (const auto &[Item, V] : fastestItems(Rounds, K))
        Sum += V;
      Out.emplace_back(K, Sum);
    }
    Out.emplace_back("cycles_gm", medianOf(Rounds, "cycles_gm", false));
    std::vector<double> Ops;
    for (const auto &[Item, V] : fastestItems(Rounds, "op_ms"))
      Ops.push_back(V);
    Out.emplace_back("op_p50_ms", median(Ops));
  } else {
    // Derived per-round values, then medians over the traced rounds.
    std::vector<double> SpanCounts;
    std::map<std::string, std::vector<double>> Self;
    std::ofstream Spans(Cfg.OutDir + "/spans-" + Cfg.Workload + "-seed" +
                        std::to_string(Cfg.Seed) + ".jsonl");
    for (size_t I = 0; I < Rounds.size(); ++I) {
      Round &R = Rounds[I];
      if (!R.Traced)
        continue;
      auto &M = R.Rep.Metrics;
      M["sim.cce_minstr_per_s"] =
          M["sim.cce_s"] > 0 ? M["sim.cce_instrs"] / M["sim.cce_s"] / 1e6 : 0;
      M["sim.simt_minstr_per_s"] =
          M["sim.simt_s"] > 0 ? M["sim.simt_instrs"] / M["sim.simt_s"] / 1e6
                              : 0;
      SpanCounts.push_back(double(R.Rep.Spans.size()));
      std::map<std::string, double> S = selfTimes(R.Rep.Spans);
      for (const std::string &Name : perLayerMetricNames())
        if (Name.rfind("self_s.", 0) == 0)
          Self[Name].push_back(S[Name.substr(7)]);
      for (const Span &Sp : R.Rep.Spans)
        Spans << "{\"round\": " << I << ", \"id\": " << Sp.Id
              << ", \"parent\": " << Sp.Parent << ", \"layer\": \""
              << Sp.Layer << "\", \"name\": \"" << Sp.Name
              << "\", \"start\": " << number(Sp.Start)
              << ", \"end\": " << number(Sp.End) << "}\n";
    }
    double Untraced = medianOf(Rounds, "wall_s", false);
    double Traced = medianOf(Rounds, "wall_s", true);
    for (const std::string &Name : perLayerMetricNames()) {
      double V;
      if (std::find(std::begin(kRoundFigures), std::end(kRoundFigures),
                    Name) != std::end(kRoundFigures))
        V = medianOf(Rounds, Name, false);
      else if (Name.rfind("self_s.", 0) == 0)
        V = median(Self[Name]);
      else if (Name == "trace.spans")
        V = median(SpanCounts);
      else if (Name == "trace.overhead_pct")
        V = Untraced > 0 ? (Traced - Untraced) / Untraced * 100 : 0;
      else
        V = medianOf(Rounds, Name, true);
      Out.emplace_back(Name, V);
    }
  }

  std::string Json = "{\"correct\": " +
                     std::string(Errors.empty() ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(Attempted) +
                     ", \"failed\": " + std::to_string(Failed) +
                     ", \"metrics\": {";
  for (size_t I = 0; I < Out.size(); ++I)
    Json += (I ? ", " : "") + std::string("\"") + Out[I].first +
            "\": {\"value\": " + number(Out[I].second) + ", \"unit\": \"" +
            unitOf(Out[I].first) + "\"}";
  Json += "}}";
  std::ofstream(Cfg.OutDir + "/result-" + Cfg.Workload + "-seed" +
                std::to_string(Cfg.Seed) + "-trace" +
                (Cfg.Trace ? "1" : "0") + ".json")
      << Json << "\n";
  std::printf("%s\n", Json.c_str());
  return 0;
}
