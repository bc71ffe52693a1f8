//===- perfbench/src/CompileCold.cpp - Workload compile_cold --------------===//
//
// Single-threaded cold compiles, with no kernel cache, of every distinct
// module in three sets (the Fig 13 network subgraphs, the Fig 9 operator
// shapes, a fixed draw of generator modules) in an order drawn from the
// seed, each compiled once for CCE and once for SIMT and then simulated
// once in performance mode on its target. One operation = compile +
// measure of one module on one target.
// A fixed halo module rides along as the one operation that fails on
// every run (Inputs.h, hasHaloRead).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Checks.h"
#include "Inputs.h"

#include "support/Stats.h"

#include <cmath>

namespace perfbench {

namespace {

/// Generator modules per run (six per Auto theme).
constexpr unsigned kGenerated = 42;

class CompileCold : public Workload {
public:
  void setup(const RunConfig &Cfg) override {
    for (NamedModule &M : fig13Subgraphs())
      Mods.push_back({std::move(M), true, false, nullptr});
    for (NamedModule &M : fig09Shapes())
      Mods.push_back({std::move(M), false, false, nullptr});
    // A fixed generator draw, as in serve_stream: a seeded draw moved
    // setup_s by 2.7x and cycles_gm by 3% between seeds. The seed orders
    // the compiles.
    for (NamedModule &M : generatedModules(0, kGenerated))
      Mods.push_back({std::move(M), false, false, nullptr});
    Mods.push_back({haloModule(), false, true, nullptr});
    Rng R(Cfg.Seed);
    for (size_t I = Mods.size(); I > 1; --I)
      std::swap(Mods[I - 1], Mods[R.next() % I]);
    // Inputs and reference outputs of the modules checked functionally.
    for (Entry &E : Mods)
      if (fitsGeneratorBudget(*E.M.Mod))
        E.Ref = std::make_shared<Reference>(makeReference(*E.M.Mod, 1));
  }

  Report round(unsigned, bool Traced) override {
    return runInChild([&](Report &Rep) { body(Rep, Traced); });
  }

private:
  void body(Report &Rep, bool Traced) {
    enterRound(Traced, Rep);
    Tracer Tr;
    Tr.On = Traced;
    auto Before = Stats::get().snapshotCounters();
    double T0 = nowSeconds();
    int64_t Root = Tr.open(0, "bench", "compile_cold", T0);

    std::vector<Measured> Runs;
    Runs.reserve(Mods.size() * 2);
    std::vector<double> CceCycles, SimtCycles, AllCycles;
    double Net = 0;
    for (const Entry &E : Mods) {
      for (sim::TargetKind T : {sim::TargetKind::Cce, sim::TargetKind::Simt}) {
        AkgOptions O;
        O.Target = T;
        Measured Run;
        double C0 = nowSeconds();
        int64_t Cs = Tr.open(Root, "akg.compiler", "compile " + E.M.Name, C0);
        Run.Res = compileWithAkg(*E.M.Mod, O, E.M.Name);
        double C1 = nowSeconds();
        Tr.close(Cs, C1);
        Tr.addPasses(Cs, Run.Res, C0);
        Run.CompileSeconds = C1 - C0;
        int64_t Ss = Tr.open(Root, "sim", "simulate " + E.M.Name, C1);
        simulatePerf(Run.Res.Kernel, Run, Rep);
        Tr.close(Ss, C1 + Run.SimSeconds);
        ledgerCompile(Run.Res, Rep);

        ++Rep.Attempted;
        if (!Run.Res.Outcome.isOk() || Run.Truncated)
          ++Rep.Failed;
        std::string Id = E.M.Name + (T == sim::TargetKind::Cce ? "@cce" : "@simt");
        Rep.item("compile_s", Id, Run.CompileSeconds);
        Rep.item("measure_s", Id, Run.SimSeconds);
        Rep.item("wall_s", Id, Run.CompileSeconds + Run.SimSeconds);
        Rep.item("op_ms", Id, (Run.CompileSeconds + Run.SimSeconds) * 1e3);
        double Cyc = double(std::max<int64_t>(Run.Cycles, 1));
        AllCycles.push_back(Cyc);
        (T == sim::TargetKind::Cce ? CceCycles : SimtCycles).push_back(Cyc);
        if (E.Fig13 && T == sim::TargetKind::Cce)
          Net += double(E.M.Count) * double(Run.Cycles);
        Runs.push_back(std::move(Run));
      }
    }
    double T1 = nowSeconds();
    Tr.close(Root, T1);
    ledgerCounters(Before, Stats::get().snapshotCounters(), Rep);

    Rep.Metrics["wall_s"] = T1 - T0;
    Rep.Metrics["cycles_gm"] = geomean(AllCycles);
    Rep.Metrics["net_cycles"] = Net;
    Rep.Metrics["op_cycles_gm"] = geomean(CceCycles);
    Rep.Metrics["simt_cycles_gm"] = geomean(SimtCycles);

    // Checks, after the timed part: small kernels run functionally against
    // the reference evaluator; every kernel passes the performance sanity.
    for (size_t I = 0; I < Runs.size(); ++I) {
      const Measured &Run = Runs[I];
      const NamedModule &M = Mods[I / 2].M;
      std::string Why;
      std::string Id = M.Name + (I % 2 ? " (simt)" : " (cce)");
      Sanity S = perfSanity(Run, *M.Mod, Why);
      if (S == Sanity::GmShort && Mods[I / 2].KnownFault && I % 2 == 0) {
        // The halo module's CCE kernel under-counts its GM traffic on
        // every run (Inputs.h): a failed operation, not a failed check,
        // counted once (a truncated run is never GmShort).
        if (Run.Res.Outcome.isOk())
          ++Rep.Failed;
      } else if (S != Sanity::Ok) {
        Rep.fail(Id + ": " + Why);
      }
      const Reference *Ref = Mods[I / 2].Ref.get();
      if (!Ref)
        continue;
      bool Trunc = false;
      ir::BufferMap Got = runFunctional(Run.Res, *M.Mod, *Ref, Trunc);
      if (Trunc)
        Rep.fail(Id + ": functional run truncated");
      else if (!outputsMatch(*M.Mod, Got, Ref->Expected, Why))
        Rep.fail(Id + ": " + Why);
    }
    Rep.Spans = std::move(Tr.Spans);
  }

  struct Entry {
    NamedModule M;
    bool Fig13 = false;
    bool KnownFault = false;
    /// Set when the module fits the generator's size budget.
    std::shared_ptr<Reference> Ref;
  };
  std::vector<Entry> Mods;
};

} // namespace

std::unique_ptr<Workload> makeCompileCold() {
  return std::make_unique<CompileCold>();
}

} // namespace perfbench
