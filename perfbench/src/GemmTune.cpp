//===- perfbench/src/GemmTune.cpp - Workload gemm_tune --------------------===//
//
// tuneAkgKernel at a fixed budget over a fixed draw of the Fig 11 GEMM
// sizes (64 .. 4608, all of the 528 .. 976 band) plus two Fig 9 conv and
// two batched-matmul shapes, so a GEMM-only tuner gain that hurts other
// operators shows. The tuner runs with its default sampler seed; the run
// seed only orders the shapes. (Seeding the sampler from the run seed
// moves the round's work by 2.7x between seeds, far more than any bound
// could absorb.) Around each
// tuning call the benchmark compiles and simulates the Auto Tiling kernel
// and replays the best tiles as a manual tile policy. One operation = one
// tuning call with its two compiles.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Checks.h"
#include "Inputs.h"

#include "akg/AutoTuner.h"
#include "support/Stats.h"

namespace perfbench {

namespace {

/// Indices into fig11Sizes(): both ends, the whole 528 .. 976 band, and
/// one size from each remaining stretch.
constexpr int kFig11Picks[] = {0, 2, 4, 5, 6, 7, 8, 13, 20, 30, 40};

class GemmTune : public Workload {
public:
  void setup(const RunConfig &Cfg) override {
    std::vector<int64_t> Sizes = fig11Sizes();
    for (int I : kFig11Picks) {
      int64_t S = Sizes[size_t(I)];
      Shapes.push_back({"gemm_" + std::to_string(S),
                        graph::makeMatmul(S, S, S), 0});
    }
    Shapes.push_back({"conv_32x14x14_3", graph::makeConv(16, 32, 14, 14, 32, 3,
                                                         3, 1, 1), 0});
    Shapes.push_back({"conv_64x7x7_3", graph::makeConv(16, 64, 7, 7, 128, 3, 3,
                                                       1, 1), 0});
    Shapes.push_back({"bmm_128", graph::makeBatchMatmul(16, 128, 128, 128), 0});
    Shapes.push_back({"bmm_64x192", graph::makeBatchMatmul(16, 64, 192, 64), 0});
    Rng R(Cfg.Seed);
    for (size_t I = Shapes.size(); I > 1; --I)
      std::swap(Shapes[I - 1], Shapes[R.next() % I]);
    // Inputs and reference outputs of the shapes checked functionally.
    for (const NamedModule &M : Shapes)
      if (fitsGeneratorBudget(*M.Mod))
        Refs.emplace(M.Name, makeReference(*M.Mod, 1));
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
    int64_t Root = Tr.open(0, "bench", "gemm_tune", T0);
    std::vector<double> Tuned, Initial, AutoCycles;
    struct Done {
      const NamedModule *M;
      TuneResult TR;
      Measured Auto, Replay;
    };
    std::vector<Done> All;
    double TuneSeconds = 0;
    for (const NamedModule &M : Shapes) {
      double W0 = nowSeconds();
      Measured Auto = compileAndMeasure(M, std::nullopt, Root, Tr, Rep);

      TunerOptions TO;
      TO.FirstRoundSamples = 8;
      TO.RoundSamples = 4;
      TO.MaxRounds = 2;
      TO.MeasureThreads = 1;
      double Compile0 = Stats::get().timer("akg.compile");
      double U0 = nowSeconds();
      int64_t Ts = Tr.open(Root, "akg.tuner", "tune " + M.Name, U0);
      TuneResult TR = tuneAkgKernel(*M.Mod, AkgOptions{},
                                    sim::MachineSpec::ascend910(), TO);
      double U1 = nowSeconds();
      Tr.close(Ts, U1);
      TuneSeconds += U1 - U0;
      if (Traced) {
        double Compile = Stats::get().timer("akg.compile") - Compile0;
        Rep.add("tune.compile_s", Compile);
        Rep.add("tune.sim_s", (U1 - U0) - Compile);
      }
      Rep.add("tune.probes", TR.SamplesMeasured);

      Measured Replay = compileAndMeasure(M, TR.BestTiles, Root, Tr, Rep);
      ++Rep.Attempted;
      if (!Auto.Res.Outcome.isOk() || Auto.Truncated ||
          !Replay.Res.Outcome.isOk() || Replay.Truncated)
        ++Rep.Failed;
      Rep.item("op_ms", M.Name, (U1 - U0) * 1e3);
      Rep.item("wall_s", M.Name, nowSeconds() - W0);
      Tuned.push_back(double(std::max<int64_t>(TR.BestCycles, 1)));
      Initial.push_back(double(std::max<int64_t>(TR.InitialCycles, 1)));
      AutoCycles.push_back(double(std::max<int64_t>(Auto.Cycles, 1)));
      All.push_back({&M, TR, std::move(Auto), std::move(Replay)});
    }
    double T1 = nowSeconds();
    Tr.close(Root, T1);
    ledgerCounters(Before, Stats::get().snapshotCounters(), Rep);

    Rep.Metrics["wall_s"] = T1 - T0;
    Rep.Metrics["cycles_gm"] = geomean(Tuned);
    Rep.Metrics["tune_s"] = TuneSeconds;
    Rep.Metrics["tuned_cycles_gm"] = geomean(Tuned);
    Rep.Metrics["op_cycles_gm"] = geomean(AutoCycles);
    Rep.Metrics["tune.initial_cycles_gm"] = geomean(Initial);

    for (const Done &D : All) {
      std::string Why;
      if (!tuneConsistent(D.TR.BestCycles, D.TR.InitialCycles,
                          D.Replay.Cycles, Why))
        Rep.fail(D.M->Name + ": " + Why);
      if (!perfSane(D.Replay, *D.M->Mod, Why))
        Rep.fail(D.M->Name + " (best tiles): " + Why);
      auto Ref = Refs.find(D.M->Name);
      if (Ref == Refs.end())
        continue;
      for (const Measured *Run : {&D.Auto, &D.Replay}) {
        bool Trunc = false;
        ir::BufferMap Got = runFunctional(Run->Res, *D.M->Mod, Ref->second,
                                          Trunc);
        if (Trunc || !outputsMatch(*D.M->Mod, Got, Ref->second.Expected, Why))
          Rep.fail(D.M->Name + (Run == &D.Auto ? " (auto)" : " (best tiles)") +
                   ": " + (Trunc ? "functional run truncated" : Why));
      }
    }
    Rep.Spans = std::move(Tr.Spans);
  }

  /// Compiles \p M for CCE (Auto Tiling, or \p Tiles as the manual policy
  /// of the live-out statement, as the tuner applies them) and simulates it.
  Measured compileAndMeasure(const NamedModule &M,
                             const std::optional<std::vector<int64_t>> &Tiles,
                             int64_t Root, Tracer &Tr, Report &Rep) {
    AkgOptions O;
    if (Tiles) {
      ir::PolyProgram P = ir::extractPolyProgram(*M.Mod);
      transforms::TilingPolicy Pol;
      transforms::StmtTileSpec Spec;
      for (int64_t T : *Tiles)
        Spec.Entries.push_back(transforms::TileSpecEntry{T, "UB"});
      Pol.PerStmt[P.Stmts.back().Id] = Spec;
      O.ManualTiles = Pol;
    }
    Measured Run;
    double C0 = nowSeconds();
    int64_t Cs = Tr.open(Root, "akg.compiler", "compile " + M.Name, C0);
    Run.Res = compileWithAkg(*M.Mod, O, M.Name);
    double C1 = nowSeconds();
    Tr.close(Cs, C1);
    Tr.addPasses(Cs, Run.Res, C0);
    Run.CompileSeconds = C1 - C0;
    int64_t Ss = Tr.open(Root, "sim", "simulate " + M.Name, C1);
    simulatePerf(Run.Res.Kernel, Run, Rep);
    Tr.close(Ss, C1 + Run.SimSeconds);
    ledgerCompile(Run.Res, Rep);
    Rep.item("compile_s", M.Name, Run.CompileSeconds);
    Rep.item("measure_s", M.Name, Run.SimSeconds);
    return Run;
  }

  std::vector<NamedModule> Shapes;
  std::map<std::string, Reference> Refs;
};

} // namespace

std::unique_ptr<Workload> makeGemmTune() { return std::make_unique<GemmTune>(); }

} // namespace perfbench
