//===- perfbench/src/ServeStream.cpp - Workload serve_stream --------------===//
//
// A closed loop of kOutstanding requests against a CompileService with
// kWorkers workers, a fresh KernelCache and a fresh on-disk store. The loop
// replays a seeded shuffle of the repository's two serving streams: one
// training step of the six Fig 13 networks as composite-JSON payloads (one
// request per subgraph occurrence, as bench/fig13_composite sends them) on
// both targets, the generator modules once per target, and the default
// bench/shape_stream stream of dynamic-shape requests. Phase A starts cold
// (misses compile and write to disk). Phase B replays the same stream in a
// new process over the same store, as after a restart: memory is cold, the
// disk is warm. One operation = one request.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Checks.h"
#include "Inputs.h"

#include "akg/CompileService.h"
#include "akg/KernelStore.h"
#include "composite/Composite.h"
#include "composite/ElimTransform.h"
#include "support/Env.h"
#include "support/Stats.h"

#include <filesystem>
#include <future>
#include <mutex>
#include <set>
#include <unistd.h>

namespace perfbench {

namespace {

constexpr unsigned kWorkers = 3;
constexpr unsigned kOutstanding = 4;
/// Completions per wall_s item.
constexpr unsigned kBlock = 100;
/// Generator modules, each requested once per target: as many as there are
/// distinct Fig 13 subgraphs (46), so 184 distinct (payload, target) pairs.
constexpr unsigned kGenerated = 46;
/// The dynamic-shape stream of bench/shape_stream at its defaults: 300
/// requests, families in turn, extents Zipf(0.5) over 1 .. 1024, seed 42.
constexpr unsigned kDynRequests = 300;
constexpr uint64_t kDynSeed = 42;
constexpr double kExtentZipfS = 0.5;
/// Threads for the after-the-phase checks (the service is idle then).
constexpr unsigned kCheckThreads = 4;

/// One distinct (payload, target) pair.
struct Item {
  std::string Payload;
  std::shared_ptr<ir::Module> Orig;
  sim::TargetKind Target = sim::TargetKind::Cce;
  /// Requests per stream (occurrences in one training step; 1 for a
  /// generator module).
  unsigned Count = 1;
};

/// One request of the stream: an Item index, or a dynamic-shape module.
struct Request {
  int Item = -1;
  std::shared_ptr<ir::Module> Dyn;
  std::string Key; // "i<item>" or "d<family>_<extent>"
};

/// What a phase observed, request by request.
struct Phase {
  double Wall = 0;
  std::vector<double> LatMs, HitMs, MissMs, QueueMs;
  double CompileSeconds = 0;
  /// First result served per request key.
  std::map<std::string, CompileResult> First;
  KernelCacheStats Cache;
};

AkgOptions optionsFor(sim::TargetKind T) {
  AkgOptions O;
  O.Target = T;
  return O;
}

class ServeStream : public Workload {
public:
  void setup(const RunConfig &Cfg) override {
    StoreDir = Cfg.OutDir + "/store-" + std::to_string(getpid());
    std::vector<NamedModule> Fig13 = fig13Subgraphs();
    // A fixed generator draw: the served kernels, and so the compile work
    // and cycles, stay the same across seeds; the seed drives the stream.
    std::vector<NamedModule> Gen = generatedModules(0, kGenerated);
    for (const std::vector<NamedModule> *Set : {&Fig13, &Gen})
      for (const NamedModule &M : *Set) {
        std::string Name = M.Name;
        for (char &C : Name)
          if (C == '/' || C == '-')
            C = '_';
        std::string Payload = composite::moduleToCompositeJson(*M.Mod, Name);
        for (sim::TargetKind T : {sim::TargetKind::Cce, sim::TargetKind::Simt})
          Items.push_back({Payload, M.Mod, T, std::max(M.Count, 1u)});
      }

    // The stream: every Fig 13 subgraph Count times (its occurrences in one
    // training step) and every generator module once, on each target, plus
    // the dynamic-shape requests; the seed shuffles the whole stream.
    for (size_t I = 0; I < Items.size(); ++I)
      for (unsigned C = 0; C < Items[I].Count; ++C)
        Stream.push_back({int(I), nullptr, "i" + std::to_string(I)});
    std::map<std::string, std::shared_ptr<ir::Module>> DynMods;
    for (const DynRequest &D :
         shapeStreamRequests(kDynRequests, kDynSeed, kExtentZipfS)) {
      Request Q;
      Q.Key = std::string("d") + dynFamilyName(D.Family) + "_" +
              std::to_string(D.Extent);
      std::shared_ptr<ir::Module> &M = DynMods[Q.Key];
      if (!M)
        M = makeDynamicModule(D.Family, D.Extent);
      Q.Dyn = M;
      Stream.push_back(std::move(Q));
    }
    Rng R(Cfg.Seed);
    for (size_t I = Stream.size(); I > 1; --I)
      std::swap(Stream[I - 1], Stream[R.next() % I]);
    // Reference outputs of every distinct dynamic-shape request.
    for (const auto &[Key, M] : DynMods)
      DynRefs.emplace(Key, makeReference(*M, 1));
  }

  Report round(unsigned Index, bool Traced) override {
    std::string Dir = StoreDir + "-" + std::to_string(Index);
    std::filesystem::remove_all(Dir);
    Report A = runInChild([&](Report &Rep) { phaseA(Rep, Dir, Index, Traced); });
    Report B = runInChild(
        [&](Report &Rep) { phaseB(Rep, Dir, A, Index, Traced); });
    std::filesystem::remove_all(Dir);

    // One round = both phases.
    Report R = std::move(A);
    for (const auto &[K, V] : B.Metrics)
      R.Metrics[K] += V;
    R.Attempted += B.Attempted;
    R.Failed += B.Failed;
    R.Errors.insert(R.Errors.end(), B.Errors.begin(), B.Errors.end());
    R.Items.insert(B.Items.begin(), B.Items.end());
    int64_t Offset = int64_t(R.Spans.size());
    for (Span S : B.Spans) {
      S.Id += Offset;
      S.Parent = S.Parent ? S.Parent + Offset : 0;
      R.Spans.push_back(std::move(S));
    }
    // Round 0's phase A hashes (checked against direct compiles) are the
    // reference every later round must reproduce.
    if (Index == 0)
      RefHashes = R.Hashes;
    else
      for (const auto &[K, H] : R.Hashes) {
        auto It = RefHashes.find(K);
        if (It != RefHashes.end() && It->second != H)
          R.fail(K + ": kernel differs from the first round's");
      }
    return R;
  }

private:
  /// Replays the whole stream through \p Svc as a closed loop. Every
  /// kBlock completions form one wall_s item and every request one op_ms
  /// item (phase A), so the run can take each item's fastest round.
  Phase replay(CompileService &Svc, Tracer &Tr, int64_t Root, Report &Rep,
               const std::string &Label) {
    struct Slot {
      std::future<CompileResult> F;
      size_t Req = 0;
      double T0 = 0, TAdm = 0;
      bool Busy = false;
    };
    Phase P;
    std::vector<Slot> Slots(kOutstanding);
    size_t Next = 0, Done = 0;
    auto Submit = [&](Slot &S) {
      const Request &Q = Stream[Next];
      S.Req = Next++;
      S.T0 = nowSeconds();
      if (Q.Item >= 0) {
        const Item &It = Items[size_t(Q.Item)];
        S.F = Svc.submitJson(It.Payload, optionsFor(It.Target));
      } else {
        S.F = Svc.submit(*Q.Dyn, AkgOptions{}, Q.Key);
      }
      S.TAdm = nowSeconds();
      S.Busy = true;
    };
    auto Collect = [&](Slot &S) {
      CompileResult R = S.F.get();
      S.Busy = false;
      ++Done;
      const Request &Q = Stream[S.Req];
      double End = S.TAdm + R.ServiceSeconds;
      double Ms = (End - S.T0) * 1e3;
      bool Miss = !R.Trace.CacheHit;
      double CompileS = Miss ? R.Trace.TotalSeconds : 0;
      P.LatMs.push_back(Ms);
      if (Label == "A")
        Rep.item("op_ms", std::to_string(S.Req), Ms);
      (Miss ? P.MissMs : P.HitMs).push_back(Ms);
      P.QueueMs.push_back((R.ServiceSeconds - CompileS) * 1e3);
      P.CompileSeconds += CompileS;
      ++Rep.Attempted;
      if (!R.Outcome.isOk()) {
        ++Rep.Failed;
        Rep.fail(Q.Key + ": " + R.Outcome.str());
      }
      int64_t Rs = Tr.open(Root, "akg.service", "request " + Q.Key, S.T0);
      Tr.close(Rs, End);
      if (Miss) {
        int64_t Cs = Tr.open(Rs, "akg.compiler", "compile " + Q.Key,
                             End - CompileS);
        Tr.close(Cs, End);
        Tr.addPasses(Cs, R, End - CompileS);
        ledgerCompile(R, Rep);
      }
      P.First.emplace(Q.Key, std::move(R));
    };
    double W0 = nowSeconds(), Block0 = W0;
    for (Slot &S : Slots)
      if (Next < Stream.size())
        Submit(S);
    while (Done < Stream.size()) {
      bool Progress = false;
      for (Slot &S : Slots) {
        if (!S.Busy || S.F.wait_for(std::chrono::seconds(0)) !=
                           std::future_status::ready)
          continue;
        Collect(S);
        Progress = true;
        if (Done % kBlock == 0 || Done == Stream.size()) {
          double Now = nowSeconds();
          Rep.item("wall_s", Label + std::to_string(Done / kBlock), Now - Block0);
          Block0 = Now;
        }
        if (Next < Stream.size())
          Submit(S);
      }
      if (!Progress)
        for (Slot &S : Slots)
          if (S.Busy) {
            S.F.wait_for(std::chrono::microseconds(50));
            break;
          }
    }
    P.Wall = nowSeconds() - W0;
    return P;
  }

  CompileService::Options serviceOptions(KernelCache &Cache) {
    CompileService::Options SO;
    SO.Threads = kWorkers;
    SO.QueueDepth = 4 * kOutstanding;
    SO.Shed = ShedPolicy::Reject;
    SO.Cache = &Cache;
    return SO;
  }

  void ledgerCache(const KernelCacheStats &C, Report &Rep) {
    Rep.add("cache.hit_memory", double(C.Hits));
    Rep.add("cache.hit_disk", double(C.DiskHits));
    Rep.add("cache.coalesced", double(C.Coalesced));
    Rep.add("cache.miss", double(C.Misses));
    Rep.add("cache.dyn_bind", double(C.DynBinds));
    Rep.add("cache.dyn_fallback", double(C.DynFallbacks));
  }

  void phaseA(Report &Rep, const std::string &Dir, unsigned Index,
              bool Traced) {
    enterRound(Traced, Rep);
    env::set("AKG_CACHE_DIR", Dir);
    Tracer Tr;
    Tr.On = Traced;
    auto Before = Stats::get().snapshotCounters();
    KernelCache Cache;
    Phase P;
    int64_t Root = Tr.open(0, "bench", "serve phase A", nowSeconds());
    {
      CompileService Svc(serviceOptions(Cache));
      P = replay(Svc, Tr, Root, Rep, "A");
    }
    Tr.close(Root, nowSeconds());
    P.Cache = Cache.stats();
    ledgerCounters(Before, Stats::get().snapshotCounters(), Rep);
    ledgerCache(P.Cache, Rep);
    if (DiskKernelStore *DS = DiskKernelStore::global()) {
      Rep.add("store.stores", double(DS->stats().Stores));
      Rep.add("store.bytes", double(DS->sizeBytes()));
    }
    Rep.Metrics["wall_s"] = P.Wall;
    Rep.Metrics["serve_s"] = P.Wall;
    // Which request of a bucket or fingerprint takes the miss varies with
    // the interleaving, so the phase's miss compiles are one item.
    Rep.item("compile_s", "A", P.CompileSeconds);
    Rep.Metrics["req_p50_ms"] = percentile(P.LatMs, 50);
    Rep.Metrics["req_p99_ms"] = percentile(P.LatMs, 99);
    Rep.Metrics["service.queue_wait_ms_p50"] = percentile(P.QueueMs, 50);
    Rep.Metrics["service.hit_ms_p50"] = percentile(P.HitMs, 50);
    Rep.Metrics["service.miss_ms_p50"] = percentile(P.MissMs, 50);
    Rep.Metrics["phase_a.misses"] = double(P.Cache.Misses);

    std::string Why;
    if (!cacheAccountsFor(P.Cache.Hits, P.Cache.Coalesced, P.Cache.Misses,
                          int64_t(Stream.size()), Why))
      Rep.fail("phase A: " + Why);
    for (const auto &[Key, R] : P.First)
      Rep.Hashes[Key] = fnv1a(cce::printKernel(R.Kernel));
    if (Traced)
      timeComposite(Tr, Rep);
    // The first round checks every distinct result against the program's
    // direct path; later rounds must reproduce the first round's kernels.
    if (Index == 0)
      checkAgainstDirect(P, Rep);
    Rep.Spans = std::move(Tr.Spans);
  }

  void phaseB(Report &Rep, const std::string &Dir, const Report &A,
              unsigned Index, bool Traced) {
    enterRound(Traced, Rep);
    env::set("AKG_CACHE_DIR", Dir);
    Tracer Tr;
    Tr.On = Traced;
    KernelCache Cache;
    Phase P;
    int64_t Root = Tr.open(0, "bench", "serve phase B", nowSeconds());
    {
      CompileService Svc(serviceOptions(Cache));
      P = replay(Svc, Tr, Root, Rep, "B");
    }
    P.Cache = Cache.stats();
    ledgerCache(P.Cache, Rep);
    Rep.Metrics["wall_s"] = P.Wall;
    Rep.Metrics["restart_s"] = P.Wall;

    std::string Why;
    if (!cacheAccountsFor(P.Cache.Hits, P.Cache.Coalesced, P.Cache.Misses,
                          int64_t(Stream.size()), Why))
      Rep.fail("phase B: " + Why);
    auto MissA = A.Metrics.find("phase_a.misses");
    if (MissA == A.Metrics.end() || double(P.Cache.DiskHits) != MissA->second)
      Rep.fail("phase B disk hits " + std::to_string(P.Cache.DiskHits) +
               " != phase A misses");
    for (const auto &[Key, R] : P.First) {
      auto It = A.Hashes.find(Key);
      if (It == A.Hashes.end() ||
          It->second != fnv1a(cce::printKernel(R.Kernel)))
        Rep.fail(Key + ": kernel served from disk differs from phase A's");
    }

    // Measure every distinct served (payload, target) kernel.
    std::vector<double> Cce, Simt, All;
    for (const auto &[Key, R] : P.First) {
      if (Key[0] != 'i')
        continue;
      Measured Run;
      Run.Res = R;
      double S0 = nowSeconds();
      int64_t Ss = Tr.open(Root, "sim", "simulate " + Key, S0);
      simulatePerf(R.Kernel, Run, Rep);
      Tr.close(Ss, S0 + Run.SimSeconds);
      Rep.item("measure_s", Key, Run.SimSeconds);
      double Cyc = double(std::max<int64_t>(Run.Cycles, 1));
      All.push_back(Cyc);
      (R.Kernel.Target == sim::TargetKind::Cce ? Cce : Simt).push_back(Cyc);
      // The served kernel addresses the tensors of the module lowered from
      // the payload, not the original module's.
      composite::FrontendResult F =
          composite::loadComposite(Items[std::stoul(Key.substr(1))].Payload);
      if (!F.ok() || !perfSane(Run, *F.Mod, Why))
        Rep.fail(Key + ": " + (F.ok() ? Why : F.Outcome.str()));
    }
    Tr.close(Root, nowSeconds());
    Rep.Metrics["cycles_gm"] = geomean(All);
    Rep.Metrics["op_cycles_gm"] = geomean(Cce);
    Rep.Metrics["simt_cycles_gm"] = geomean(Simt);
    Rep.Spans = std::move(Tr.Spans);
  }

  /// Byte-identity of every served payload kernel with a direct compile of
  /// the original module, and functional correctness of every distinct
  /// dynamic-shape request at its own extents.
  void checkAgainstDirect(const Phase &P, Report &Rep) {
    std::map<std::string, const Request *> ByKey;
    for (const Request &Q : Stream)
      ByKey.emplace(Q.Key, &Q);
    std::vector<std::pair<const Request *, const CompileResult *>> Work;
    for (const auto &[Key, R] : P.First)
      Work.emplace_back(ByKey.at(Key), &R);
    std::mutex Lock;
    parallelFor(Work.size(), kCheckThreads, [&](size_t I) {
      const Request &Q = *Work[I].first;
      const CompileResult &R = *Work[I].second;
      std::string Why;
      bool Ok;
      if (Q.Item >= 0) {
        const Item &It = Items[size_t(Q.Item)];
        CompileResult D =
            compileWithAkg(*It.Orig, optionsFor(It.Target), R.Kernel.Name);
        Ok = sameKernelText(cce::printKernel(R.Kernel),
                            cce::printKernel(D.Kernel), Why);
        Why = "vs direct compile: " + Why;
      } else {
        const Reference &Ref = DynRefs.at(Q.Key);
        bool Trunc = false;
        ir::BufferMap Got = runFunctional(R, *Q.Dyn, Ref, Trunc);
        Ok = !Trunc && outputsMatch(*Q.Dyn, Got, Ref.Expected, Why);
        if (Trunc)
          Why = "functional run truncated";
      }
      if (!Ok) {
        std::lock_guard<std::mutex> G(Lock);
        Rep.fail(Q.Key + ": " + Why);
      }
    });
  }

  /// Traced rounds time the composite frontend per distinct payload, after
  /// the timed phase so the serving figures stay untouched.
  void timeComposite(Tracer &Tr, Report &Rep) {
    std::vector<double> Parse, Lower;
    std::set<std::string> Seen;
    for (const Item &It : Items) {
      if (!Seen.insert(It.Payload).second)
        continue;
      double T0 = nowSeconds();
      composite::ParseResult PR = composite::parseComposite(It.Payload);
      double T1 = nowSeconds();
      composite::eliminateTransformOps(PR.Graph);
      composite::LowerResult LR = composite::lowerToModule(PR.Graph);
      double T2 = nowSeconds();
      if (!PR.ok() || !LR.ok())
        Rep.fail("composite frontend rejected a payload it served");
      Tr.close(Tr.open(0, "composite", "parse", T0), T1);
      Tr.close(Tr.open(0, "composite", "lower", T1), T2);
      Parse.push_back((T1 - T0) * 1e3);
      Lower.push_back((T2 - T1) * 1e3);
    }
    Rep.Metrics["composite.parse_ms_p50"] = percentile(Parse, 50);
    Rep.Metrics["composite.lower_ms_p50"] = percentile(Lower, 50);
  }

  std::string StoreDir;
  std::vector<Item> Items;
  std::vector<Request> Stream;
  std::map<std::string, Reference> DynRefs;
  std::map<std::string, uint64_t> RefHashes;
};

} // namespace

std::unique_ptr<Workload> makeServeStream() {
  return std::make_unique<ServeStream>();
}

} // namespace perfbench
