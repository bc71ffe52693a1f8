//===- perfbench/src/Checks.cpp - Correctness checks of the benchmark -----===//

#include "Checks.h"

#include "sim/Compare.h"
#include "sim/DynRun.h"
#include "verify/Generator.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <cstdio>
#include <set>

namespace perfbench {

bool fitsGeneratorBudget(const ir::Module &M) {
  verify::GenOptions G;
  int64_t Total = 0;
  for (const ir::Tensor &T : M.allTensors()) {
    if (T->numElements() > G.MaxTensorElems)
      return false;
    Total += T->numElements();
  }
  return Total <= G.MaxTotalElems;
}

Reference makeReference(const ir::Module &M, uint32_t Seed) {
  Reference R;
  R.Inputs = sim::makeModuleInputs(M, Seed);
  R.Expected = ir::evaluateModule(M, R.Inputs);
  return R;
}

ir::BufferMap runFunctional(const CompileResult &R, const ir::Module &M,
                            const Reference &Ref, bool &Truncated) {
  ir::BufferMap Gm = Ref.Inputs;
  sim::SimOptions SO;
  SO.Functional = true;
  if (R.Kernel.Target == sim::TargetKind::Simt)
    Truncated = sim::simulateSimt(R.Kernel, sim::SimtSpec::sm80(), &Gm, SO)
                    .Truncated;
  else
    Truncated =
        sim::runBound(R, M, sim::MachineSpec::ascend910(), &Gm, SO).Truncated;
  return Gm;
}

bool outputsMatch(const ir::Module &M, const ir::BufferMap &Got,
                  const ir::BufferMap &Expected, std::string &Why) {
  for (const ir::Tensor &O : M.outputs()) {
    auto G = Got.find(O->Name);
    auto E = Expected.find(O->Name);
    if (E == Expected.end()) {
      Why = "reference lacks output " + O->Name;
      return false;
    }
    if (G == Got.end() || G->second.size() != E->second.size()) {
      Why = "output " + O->Name + " missing or mis-sized";
      return false;
    }
    for (size_t I = 0; I < E->second.size(); ++I) {
      double D = std::fabs(double(G->second[I]) - double(E->second[I]));
      if (!(D <= kTolerance)) { // also rejects NaN
        char Buf[160];
        std::snprintf(Buf, sizeof Buf,
                      "output %s[%zu] = %g, reference %g (|diff| %g > %g)",
                      O->Name.c_str(), I, double(G->second[I]),
                      double(E->second[I]), D, kTolerance);
        Why = Buf;
        return false;
      }
    }
  }
  return true;
}

bool sameKernelText(const std::string &Got, const std::string &Want,
                    std::string &Why) {
  if (Got == Want)
    return true;
  size_t I = 0;
  while (I < Got.size() && I < Want.size() && Got[I] == Want[I])
    ++I;
  Why = "kernel text differs at byte " + std::to_string(I) + " (" +
        std::to_string(Got.size()) + " vs " + std::to_string(Want.size()) +
        " bytes)";
  return false;
}

namespace {

/// Index expression as sum(Coef[v] * v) + Const; false when not affine.
bool affine(const ir::Expr &E, std::map<std::string, int64_t> &Coef,
            int64_t &Const, int64_t Scale = 1) {
  switch (E->Kind) {
  case ir::ExprKind::IntImm:
    Const += Scale * E->IntVal;
    return true;
  case ir::ExprKind::Var:
    Coef[E->Name] += Scale;
    return true;
  case ir::ExprKind::Add:
    return affine(E->Operands[0], Coef, Const, Scale) &&
           affine(E->Operands[1], Coef, Const, Scale);
  case ir::ExprKind::Sub:
    return affine(E->Operands[0], Coef, Const, Scale) &&
           affine(E->Operands[1], Coef, Const, -Scale);
  case ir::ExprKind::Mul:
    for (int K = 0; K < 2; ++K)
      if (E->Operands[K]->Kind == ir::ExprKind::IntImm)
        return affine(E->Operands[1 - K], Coef, Const,
                      Scale * E->Operands[K]->IntVal);
    return false;
  default:
    return false;
  }
}

/// Elements of one tensor a module's reads are sure to touch.
struct Footprint {
  /// Per-dimension hull over every read (meaningful while Dense).
  std::vector<std::pair<int64_t, int64_t>> Hull;
  /// Every read so far covers a dense box (unit coefficients, one
  /// variable per dimension), so the hull is touched in full.
  bool Dense = true;
  /// Largest element count a single read is sure to touch.
  int64_t MaxRead = 0;

  int64_t elements() const {
    if (!Dense)
      return MaxRead;
    int64_t N = 1;
    for (auto [Lo, Hi] : Hull)
      N *= std::max<int64_t>(0, Hi - Lo + 1);
    return N;
  }
};

void collectFootprints(const ir::Expr &E,
                       const std::map<std::string, int64_t> &Ext,
                       std::map<const ir::TensorDecl *, Footprint> &Out) {
  if (E->Kind == ir::ExprKind::TensorRead) {
    const ir::Tensor &T = E->Ref;
    Footprint &F = Out[T.get()];
    bool First = F.Hull.empty();
    F.Hull.resize(T->Shape.size());
    bool Dense = E->Operands.size() == T->Shape.size();
    int64_t Count = 1;
    std::set<std::string> Used;
    for (size_t D = 0; D < T->Shape.size(); ++D) {
      std::map<std::string, int64_t> Coef;
      int64_t Lo = 0, Hi = T->Shape[D] - 1, C = 0, Distinct = 1;
      if (D < E->Operands.size() && affine(E->Operands[D], Coef, C)) {
        Lo = Hi = C;
        for (auto [V, K] : Coef) {
          auto It = Ext.find(V);
          if (K == 0)
            continue;
          if (It == Ext.end() || !Used.insert(V).second) {
            Dense = false; // unknown or shared variable
            continue;
          }
          (K > 0 ? Hi : Lo) += K * (It->second - 1);
          Distinct = std::max(Distinct, It->second);
          if (K != 1 && K != -1)
            Dense = false;
        }
      } else {
        Dense = false;
      }
      Lo = std::max<int64_t>(Lo, 0);
      Hi = std::min<int64_t>(Hi, T->Shape[D] - 1);
      Count *= std::min(Distinct, std::max<int64_t>(1, Hi - Lo + 1));
      F.Hull[D] = First ? std::make_pair(Lo, Hi)
                        : std::make_pair(std::min(F.Hull[D].first, Lo),
                                         std::max(F.Hull[D].second, Hi));
    }
    F.Dense = F.Dense && Dense;
    F.MaxRead = std::max(F.MaxRead, Dense ? 0 : Count);
  }
  for (const ir::Expr &O : E->Operands)
    collectFootprints(O, Ext, Out);
}

void kernelReads(const std::vector<cce::InstrPtr> &Body,
                 std::set<std::string> &Out) {
  for (const cce::InstrPtr &I : Body) {
    Out.insert(I->ReadBufs.begin(), I->ReadBufs.end());
    kernelReads(I->Body, Out);
  }
}

} // namespace

int64_t compulsoryGmBytes(const ir::Module &M, const cce::Kernel &K) {
  std::map<const ir::TensorDecl *, Footprint> F;
  for (const auto &Op : M.ops()) {
    std::map<std::string, int64_t> Ext;
    for (const ir::IterVar &V : Op->Axis)
      Ext[V.Name] = V.Extent;
    if (Op->Body->Kind == ir::ExprKind::Reduce)
      for (const ir::IterVar &V : Op->Body->ReduceAxes)
        Ext[V.Name] = V.Extent;
    collectFootprints(Op->Body, Ext, F);
  }
  std::set<std::string> Read;
  kernelReads(K.Body, Read);
  int64_t B = 0;
  for (const ir::Tensor &T : M.inputs()) {
    auto It = F.find(T.get());
    if (It != F.end() && Read.count(T->Name))
      B += It->second.elements() * ir::dtypeBytes(T->Type);
  }
  for (const ir::Tensor &T : M.outputs())
    B += T->sizeBytes();
  return B;
}

Sanity perfSanity(const Measured &Run, const ir::Module &M,
                   std::string &Why) {
  if (Run.Truncated) {
    Why = "simulation truncated at the instruction cap";
    return Sanity::Broken;
  }
  if (Run.Cycles <= 0) {
    Why = "non-positive cycle count";
    return Sanity::Broken;
  }
  if (Run.Res.Kernel.Target == sim::TargetKind::Simt)
    return Sanity::Ok;
  for (unsigned P = 0; P < sim::NumPipes; ++P)
    if (Run.Cce.BusyCycles[P] > Run.Cycles) {
      Why = std::string("pipe ") + sim::pipeName(sim::Pipe(P)) + " busy " +
            std::to_string(Run.Cce.BusyCycles[P]) + " > total cycles " +
            std::to_string(Run.Cycles);
      return Sanity::Broken;
    }
  int64_t Need = compulsoryGmBytes(M, Run.Res.Kernel);
  if (Run.Cce.GmTrafficBytes < Need) {
    Why = "GM traffic " + std::to_string(Run.Cce.GmTrafficBytes) +
          " B < compulsory " + std::to_string(Need) + " B";
    return Sanity::GmShort;
  }
  return Sanity::Ok;
}

bool tuneConsistent(int64_t Best, int64_t Initial, int64_t Replayed,
                    std::string &Why) {
  if (Best > Initial) {
    Why = "best cycles " + std::to_string(Best) + " > initial " +
          std::to_string(Initial);
    return false;
  }
  if (Replayed != Best) {
    Why = "replaying the best tiles gives " + std::to_string(Replayed) +
          " cycles, tuner reported " + std::to_string(Best);
    return false;
  }
  return true;
}

bool cacheAccountsFor(int64_t Hits, int64_t Coalesced, int64_t Misses,
                      int64_t Requests, std::string &Why) {
  if (Hits + Coalesced + Misses == Requests)
    return true;
  Why = "cache hits " + std::to_string(Hits) + " + coalesced " +
        std::to_string(Coalesced) + " + misses " + std::to_string(Misses) +
        " != requests " + std::to_string(Requests);
  return false;
}

//===----------------------------------------------------------------------===//
// Self-test: every check must pass on good input and fail on broken input.
//===----------------------------------------------------------------------===//

namespace {

int expect(const std::string &What, bool Got, bool Want,
           const std::string &Why) {
  bool Ok = Got == Want;
  std::fprintf(stderr, "selftest %-40s %s\n", What.c_str(),
               !Ok ? "WRONG" : Want ? "passes" : "fails as required");
  if (!Got)
    std::fprintf(stderr, "    %s\n", Why.c_str());
  return Ok ? 0 : 1;
}

} // namespace

int runSelfTest() {
  int Bad = 0;
  std::string Why;

  // Output comparison on a real kernel: a generated module compiled for
  // CCE, run functionally, then one output element perturbed.
  ir::Module M = verify::generateModule(7);
  for (sim::TargetKind T : {sim::TargetKind::Cce, sim::TargetKind::Simt}) {
    AkgOptions O;
    O.Target = T;
    CompileResult R = compileWithAkg(M, O, "selftest");
    Reference Ref = makeReference(M, 1);
    bool Trunc = false;
    ir::BufferMap Got = runFunctional(R, M, Ref, Trunc);
    const char *Tn = T == sim::TargetKind::Cce ? "cce" : "simt";
    Bad += expect(std::string("outputs match (") + Tn + ")",
                  !Trunc && outputsMatch(M, Got, Ref.Expected, Why), true,
                  Why);
    ir::BufferMap Perturbed = Got;
    std::vector<float> &Buf = Perturbed[M.outputs().front()->Name];
    Buf[Buf.size() / 2] += 0.5f;
    Bad += expect(std::string("perturbed output buffer (") + Tn + ")",
                  outputsMatch(M, Perturbed, Ref.Expected, Why), false, Why);
    ir::BufferMap Missing = Got;
    Missing.erase(M.outputs().front()->Name);
    Bad += expect(std::string("missing output buffer (") + Tn + ")",
                  outputsMatch(M, Missing, Ref.Expected, Why), false, Why);

    // Kernel text identity: the same text passes, one changed byte fails.
    std::string Text = cce::printKernel(R.Kernel);
    Bad += expect("kernel text identical", sameKernelText(Text, Text, Why),
                  true, Why);
    std::string Changed = Text;
    Changed[Changed.size() / 2] ^= 1;
    Bad += expect("mismatched kernel text",
                  sameKernelText(Changed, Text, Why), false, Why);

    // Performance sanity on the real run, then on doctored results.
    Measured Run;
    Run.Res = R;
    Report Scratch;
    simulatePerf(R.Kernel, Run, Scratch);
    Bad += expect(std::string("perf sanity (") + Tn + ")",
                  perfSane(Run, M, Why), true, Why);
    Measured Cut = Run;
    Cut.Truncated = true;
    Bad += expect("truncated simulation", perfSane(Cut, M, Why), false, Why);
    Bad += expect("truncated simulation is not only GM short",
                  perfSanity(Cut, M, Why) == Sanity::GmShort, false, Why);
    if (T == sim::TargetKind::Cce) {
      Measured Busy = Run;
      Busy.Cce.BusyCycles[size_t(sim::Pipe::V)] = Run.Cycles + 1;
      Bad += expect("pipe busier than the kernel", perfSane(Busy, M, Why),
                    false, Why);
      // Only a traffic shortfall may pass as the known halo fault.
      Busy.Cce.GmTrafficBytes = 0;
      Bad += expect("pipe busy and GM short is not only GM short",
                    perfSanity(Busy, M, Why) == Sanity::GmShort, false, Why);
      Measured Short = Run;
      Short.Cce.GmTrafficBytes = compulsoryGmBytes(M, R.Kernel) - 1;
      Bad += expect("GM traffic below compulsory", perfSane(Short, M, Why),
                    false, Why);
      Bad += expect("GM traffic below compulsory is GM short",
                    perfSanity(Short, M, Why) == Sanity::GmShort, true, Why);
    }
  }

  Bad += expect("tune consistent", tuneConsistent(90, 100, 90, Why), true,
                Why);
  Bad += expect("tune best above initial", tuneConsistent(110, 100, 110, Why),
                false, Why);
  Bad += expect("tune replay mismatch", tuneConsistent(90, 100, 91, Why),
                false, Why);
  Bad += expect("cache accounting", cacheAccountsFor(5, 1, 4, 10, Why), true,
                Why);
  Bad += expect("cache accounting off by one",
                cacheAccountsFor(5, 1, 4, 11, Why), false, Why);
  std::fprintf(stderr, "selftest: %s\n",
               Bad ? "some checks did not behave" : "every check can fail");
  return Bad;
}

} // namespace perfbench
