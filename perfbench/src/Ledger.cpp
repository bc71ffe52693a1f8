//===- perfbench/src/Ledger.cpp - Rounds, spans and the per-layer ledger --===//

#include "Bench.h"

#include "support/Stats.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <thread>
#include <sys/wait.h>
#include <unistd.h>

namespace perfbench {

double nowSeconds() {
  static const auto T0 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
      .count();
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

int64_t Tracer::open(int64_t Parent, const std::string &Layer,
                     const std::string &Name, double Start) {
  if (!On)
    return 0;
  Span S;
  S.Id = int64_t(Spans.size()) + 1;
  S.Parent = Parent;
  S.Start = S.End = Start;
  S.Layer = Layer;
  S.Name = Name;
  Spans.push_back(std::move(S));
  return Spans.back().Id;
}

void Tracer::close(int64_t Id, double End) {
  if (On && Id > 0)
    Spans[size_t(Id - 1)].End = End;
}

namespace {

/// The module a pipeline pass belongs to.
const char *passLayer(const std::string &Pass) {
  if (Pass == "prepare" || Pass == "extract_poly")
    return "ir";
  if (Pass == "dependences" || Pass == "schedule")
    return "scheduler";
  if (Pass == "build_tree" || Pass == "ast_gen")
    return "schedule";
  if (Pass == "tiling" || Pass == "fusion" || Pass == "intra_tile")
    return "transforms";
  return "target";
}

} // namespace

void Tracer::addPasses(int64_t Parent, const CompileResult &R, double Start) {
  if (!On || R.Trace.CacheHit)
    return;
  double T = Start;
  for (const TraceEvent &E : R.Trace.Events) {
    if (E.WallSeconds <= 0)
      continue;
    int64_t Id = open(Parent, passLayer(E.Pass), E.Pass, T);
    T += E.WallSeconds;
    close(Id, T);
  }
}

//===----------------------------------------------------------------------===//
// Forked rounds
//===----------------------------------------------------------------------===//

namespace {

// Line protocol child -> parent: "m key value", "i metric|item value",
// "a attempted failed",
// "e reason", "h key hash", "s id parent start end layer name".
std::string serialize(const Report &R) {
  std::ostringstream O;
  O.precision(17);
  for (const auto &[K, V] : R.Metrics)
    O << "m " << K << ' ' << V << '\n';
  O << "a " << R.Attempted << ' ' << R.Failed << '\n';
  for (const std::string &E : R.Errors) {
    std::string One = E;
    std::replace(One.begin(), One.end(), '\n', ' ');
    O << "e " << One << '\n';
  }
  for (const auto &[K, V] : R.Items) {
    std::string Key = K;
    std::replace(Key.begin(), Key.end(), ' ', '_');
    O << "i " << Key << ' ' << V << '\n';
  }
  for (const auto &[K, H] : R.Hashes)
    O << "h " << K << ' ' << H << '\n';
  for (const Span &S : R.Spans)
    O << "s " << S.Id << ' ' << S.Parent << ' ' << S.Start << ' ' << S.End
      << ' ' << S.Layer << ' ' << S.Name << '\n';
  return O.str();
}

Report deserialize(const std::string &Text) {
  Report R;
  std::istringstream In(Text);
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.size() < 2)
      continue;
    std::istringstream L(Line.substr(2));
    switch (Line[0]) {
    case 'm': {
      std::string K;
      double V = 0;
      L >> K >> V;
      R.Metrics[K] = V;
      break;
    }
    case 'i': {
      std::string K;
      double V = 0;
      L >> K >> V;
      R.Items[K] = V;
      break;
    }
    case 'a':
      L >> R.Attempted >> R.Failed;
      break;
    case 'e':
      R.Errors.push_back(Line.substr(2));
      break;
    case 'h': {
      std::string K;
      uint64_t H = 0;
      L >> K >> H;
      R.Hashes[K] = H;
      break;
    }
    case 's': {
      Span S;
      L >> S.Id >> S.Parent >> S.Start >> S.End >> S.Layer;
      std::getline(L >> std::ws, S.Name);
      R.Spans.push_back(std::move(S));
      break;
    }
    }
  }
  return R;
}

} // namespace

Report runInChild(const std::function<void(Report &)> &Body) {
  std::fflush(stdout);
  std::fflush(stderr);
  int Fds[2];
  if (pipe(Fds) != 0) {
    Report R;
    R.fail("pipe() failed");
    return R;
  }
  pid_t Pid = fork();
  if (Pid == 0) {
    close(Fds[0]);
    Report R;
    try {
      Body(R);
    } catch (const std::exception &E) {
      R.fail(std::string("exception: ") + E.what());
    }
    std::string Out = serialize(R);
    for (size_t Off = 0; Off < Out.size();) {
      ssize_t N = write(Fds[1], Out.data() + Off, Out.size() - Off);
      if (N <= 0)
        break;
      Off += size_t(N);
    }
    close(Fds[1]);
    std::fflush(stderr);
    _exit(0); // skip atexit handlers and static destructors of the parent
  }
  close(Fds[1]);
  if (Pid < 0) {
    close(Fds[0]);
    Report R;
    R.fail("fork() failed");
    return R;
  }
  std::string Text;
  char Buf[1 << 16];
  for (;;) {
    ssize_t N = read(Fds[0], Buf, sizeof Buf);
    if (N <= 0)
      break;
    Text.append(Buf, size_t(N));
  }
  close(Fds[0]);
  int Status = 0;
  waitpid(Pid, &Status, 0);
  Report R = deserialize(Text);
  if (!WIFEXITED(Status) || WEXITSTATUS(Status) != 0)
    R.fail("round process ended abnormally (status " +
           std::to_string(Status) + ")");
  return R;
}

//===----------------------------------------------------------------------===//
// Measurement and ledger
//===----------------------------------------------------------------------===//

namespace {

int64_t countBody(const std::vector<cce::InstrPtr> &Body) {
  int64_t N = 0;
  for (const cce::InstrPtr &I : Body)
    N += 1 + (I->Kind == cce::InstrKind::Loop ? countBody(I->Body) : 0);
  return N;
}

} // namespace

int64_t staticInstrs(const cce::Kernel &K) { return countBody(K.Body); }

void parallelFor(size_t N, unsigned Threads,
                 const std::function<void(size_t)> &Fn) {
  std::atomic<size_t> Next{0};
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T < Threads; ++T)
    Pool.emplace_back([&] {
      for (size_t I; (I = Next.fetch_add(1)) < N;)
        Fn(I);
    });
  for (std::thread &T : Pool)
    T.join();
}

void simulatePerf(const cce::Kernel &K, Measured &Out, Report &Rep) {
  sim::SimOptions SO;
  SO.Functional = false;
  double T0 = nowSeconds();
  if (K.Target == sim::TargetKind::Simt) {
    Out.Simt = sim::simulateSimt(K, sim::SimtSpec::sm80(), nullptr, SO);
    Out.SimSeconds = nowSeconds() - T0;
    Out.Cycles = Out.Simt.Cycles;
    Out.Truncated = Out.Simt.Truncated;
    Rep.add("sim.simt_s", Out.SimSeconds);
    Rep.add("sim.simt_instrs", double(Out.Simt.DynamicInstrs));
    Rep.add("sim.simt_transactions", double(Out.Simt.Transactions));
    Rep.add("sim.simt_barriers", double(Out.Simt.Barriers));
    Rep.add("sim.simt_waves", double(Out.Simt.Waves));
  } else {
    Out.Cce = sim::simulate(K, sim::MachineSpec::ascend910(), nullptr, SO);
    Out.SimSeconds = nowSeconds() - T0;
    Out.Cycles = Out.Cce.Cycles;
    Out.Truncated = Out.Cce.Truncated;
    Rep.add("sim.cce_s", Out.SimSeconds);
    Rep.add("sim.cce_instrs", double(Out.Cce.DynamicInstrs));
    static const char *const Pipes[sim::NumPipes] = {"S",    "V",    "M",
                                                     "MTE1", "MTE2", "MTE3"};
    for (unsigned P = 0; P < sim::NumPipes; ++P)
      Rep.add(std::string("sim.busy.") + Pipes[P],
              double(Out.Cce.BusyCycles[P]));
    Rep.add("sim.sync_stall_cycles", double(Out.Cce.SyncStallCycles));
    Rep.add("sim.gm_bytes", double(Out.Cce.GmTrafficBytes));
  }
  Rep.add("sim.truncated", Out.Truncated ? 1 : 0);
}

void ledgerCompile(const CompileResult &R, Report &Rep) {
  static const std::map<std::string, std::string> PassMetric = {
      {"prepare", "ir.prepare_s"},
      {"extract_poly", "ir.extract_poly_s"},
      {"dependences", "scheduler.dependences_s"},
      {"schedule", "scheduler.schedule_s"},
      {"build_tree", "schedule.build_tree_s"},
      {"ast_gen", "schedule.ast_gen_s"},
      {"tiling", "transforms.tiling_s"},
      {"fusion", "transforms.fusion_s"},
      {"intra_tile", "transforms.intra_tile_s"},
      {"lower_cce", "target.lower_cce_s"},
      {"lower_simt", "target.lower_simt_s"},
      {"storage_check", "target.storage_check_s"},
      {"sync", "target.sync_s"},
  };
  for (const TraceEvent &E : R.Trace.Events) {
    auto It = PassMetric.find(E.Pass);
    if (It != PassMetric.end())
      Rep.add(It->second, E.WallSeconds);
  }
  bool Simt = R.Kernel.Target == sim::TargetKind::Simt;
  Rep.add(Simt ? "target.instrs_simt" : "target.instrs_cce",
          double(staticInstrs(R.Kernel)));
  Rep.add("target.degraded", R.Degradation.Steps.empty() ? 0 : 1);
}

void ledgerCounters(const std::map<std::string, int64_t> &Before,
                    const std::map<std::string, int64_t> &After,
                    Report &Rep) {
  static const std::vector<std::pair<const char *, const char *>> Map = {
      {"lp.int64_fastpath", "poly.lp_int64"},
      {"lp.rational_fallback", "poly.lp_rational"},
      {"lp.solves_avoided_sample", "poly.lp_avoided"},
      {"astgen.proj_memo_hit", "schedule.memo_hit"},
      {"astgen.implied_memo_hit", "schedule.memo_hit"},
      {"astgen.proj_memo_miss", "schedule.memo_miss"},
      {"akg.tile_retries", "transforms.tile_retries"},
  };
  auto Val = [](const std::map<std::string, int64_t> &M, const char *K) {
    auto It = M.find(K);
    return It == M.end() ? int64_t(0) : It->second;
  };
  for (const auto &[Counter, Metric] : Map)
    Rep.add(Metric, double(Val(After, Counter) - Val(Before, Counter)));
}

double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Rank = std::ceil(P / 100.0 * double(V.size()));
  size_t I = Rank < 1 ? 0 : size_t(Rank) - 1;
  return V[std::min(I, V.size() - 1)];
}

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double S = 0;
  for (double X : V)
    S += std::log(X);
  return std::exp(S / double(V.size()));
}

uint64_t fnv1a(const std::string &S) {
  uint64_t H = 1469598103934665603ull;
  for (char C : S) {
    H ^= static_cast<unsigned char>(C);
    H *= 1099511628211ull;
  }
  return H;
}

const std::vector<std::string> &perLayerMetricNames() {
  static const std::vector<std::string> Names = {
      // Workload figures of the untraced rounds (see README).
      "net_cycles", "op_cycles_gm", "simt_cycles_gm", "tune_s",
      "tuned_cycles_gm", "serve_s", "restart_s", "req_p50_ms", "req_p99_ms",
      // ir
      "ir.prepare_s", "ir.extract_poly_s",
      // poly
      "poly.lp_int64", "poly.lp_rational", "poly.lp_avoided",
      // scheduler
      "scheduler.dependences_s", "scheduler.schedule_s",
      // schedule
      "schedule.build_tree_s", "schedule.ast_gen_s", "schedule.memo_hit",
      "schedule.memo_miss",
      // transforms
      "transforms.tiling_s", "transforms.fusion_s", "transforms.intra_tile_s",
      "transforms.tile_retries",
      // target
      "target.lower_cce_s", "target.lower_simt_s", "target.storage_check_s",
      "target.sync_s", "target.instrs_cce", "target.instrs_simt",
      "target.degraded",
      // sim (host)
      "sim.cce_s", "sim.cce_instrs", "sim.cce_minstr_per_s", "sim.simt_s",
      "sim.simt_instrs", "sim.simt_minstr_per_s", "sim.truncated",
      // sim (modelled)
      "sim.busy.S", "sim.busy.V", "sim.busy.M", "sim.busy.MTE1",
      "sim.busy.MTE2", "sim.busy.MTE3", "sim.sync_stall_cycles",
      "sim.gm_bytes", "sim.simt_transactions", "sim.simt_barriers",
      "sim.simt_waves",
      // akg tuner
      "tune.probes", "tune.compile_s", "tune.sim_s", "tune.initial_cycles_gm",
      // akg cache / store
      "cache.hit_memory", "cache.hit_disk", "cache.coalesced", "cache.miss",
      "cache.dyn_bind", "cache.dyn_fallback", "store.stores", "store.bytes",
      // akg service
      "service.queue_wait_ms_p50", "service.hit_ms_p50",
      "service.miss_ms_p50",
      // composite
      "composite.parse_ms_p50", "composite.lower_ms_p50",
      // span self time per layer, and the cost of tracing itself
      "self_s.bench", "self_s.akg.compiler", "self_s.ir", "self_s.scheduler",
      "self_s.schedule", "self_s.transforms", "self_s.target", "self_s.sim",
      "self_s.akg.tuner", "self_s.akg.service", "self_s.composite",
      "trace.spans", "trace.overhead_pct"};
  return Names;
}

} // namespace perfbench
