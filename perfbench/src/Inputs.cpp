//===- perfbench/src/Inputs.cpp - Workload inputs -------------------------===//

#include "Inputs.h"

#include "graph/Networks.h"
#include "ir/PolyExtract.h"
#include "verify/Generator.h"

#include <algorithm>
#include <cmath>
#include <map>

namespace perfbench {

using namespace akg;

std::vector<NamedModule> fig13Subgraphs() {
  graph::NetworkModel Nets[] = {graph::buildResNet50(), graph::buildMobileNetV2(),
                                graph::buildAlexNet(),  graph::buildBert(21128),
                                graph::buildBert(30522), graph::buildSsd()};
  std::vector<NamedModule> Out;
  for (const graph::NetworkModel &N : Nets)
    for (const graph::LayerWorkload &L : N.Layers)
      Out.push_back({N.Name + "/" + L.Name, L.Mod, L.Count});
  return Out;
}

std::vector<NamedModule> fig09Shapes() {
  using namespace graph;
  std::vector<NamedModule> V;
  auto Add = [&](const char *Op, ModulePtr M) {
    V.push_back({std::string(Op) + "_" + std::to_string(V.size() % 10), M, 0});
  };
  int64_t Conv[10][5] = {{16, 14, 14, 32, 3}, {32, 14, 14, 32, 3},
                         {32, 28, 28, 32, 3}, {64, 14, 14, 64, 1},
                         {64, 14, 14, 64, 3}, {32, 28, 28, 64, 1},
                         {16, 28, 28, 16, 5}, {64, 7, 7, 128, 3},
                         {128, 7, 7, 128, 1}, {32, 14, 14, 96, 3}};
  for (auto &S : Conv)
    Add("conv", makeConv(16, S[0], S[1], S[2], S[3], S[4], S[4], 1, S[4] / 2));
  int64_t Mm[10][3] = {{128, 128, 128},  {256, 256, 256},  {512, 512, 512},
                       {256, 512, 128},  {512, 256, 1024}, {1024, 1024, 256},
                       {768, 768, 768},  {384, 1536, 384}, {1024, 256, 512},
                       {640, 640, 640}};
  for (auto &S : Mm)
    Add("matmul", makeMatmul(S[0], S[1], S[2]));
  for (int I = 0; I < 10; ++I)
    Add("relu", makeRelu({16, 32 + 16 * I, 28, 28}));
  int64_t Bmm[10][3] = {{64, 64, 64},   {64, 64, 128},   {128, 64, 64},
                        {64, 128, 128}, {128, 128, 128}, {96, 96, 96},
                        {64, 192, 64},  {192, 64, 64},   {128, 96, 64},
                        {96, 128, 96}};
  for (auto &S : Bmm)
    Add("bmm", makeBatchMatmul(16, S[0], S[1], S[2]));
  for (int I = 0; I < 10; ++I)
    Add("cast", makeCast({16, 64, 14 + 2 * I, 14 + 2 * I}));
  for (int I = 0; I < 10; ++I)
    Add("transpose", makeTranspose(256 + 128 * I, 512));
  for (int I = 0; I < 10; ++I)
    Add("onehot", makeOneHot(16 * (I + 1) * 8, 128 + 64 * I));
  for (int I = 0; I < 10; ++I)
    Add("add", makeTensorAdd({16, 48 + 24 * I, 24, 24}));
  for (int I = 0; I < 10; ++I)
    Add("bn_reduce", makeBnReduce(16, 32 + 16 * I, 14, 14));
  for (int I = 0; I < 10; ++I)
    Add("bn_update", makeBnUpdate(16, 32 + 16 * I, 14, 14));
  return V;
}

namespace {

/// One read's index tuple in affine form over the op's iterators: per
/// dimension the iterator coefficients and the constant.
struct AffineIndex {
  std::vector<std::vector<int64_t>> Coeffs;
  std::vector<int64_t> Consts;
};

void collectReads(const ir::Expr &E, const std::vector<ir::IterVar> &Iters,
                  std::map<const ir::TensorDecl *, std::vector<AffineIndex>> &Out) {
  if (!E)
    return;
  if (E->Kind == ir::ExprKind::TensorRead) {
    AffineIndex A;
    bool Affine = true;
    for (const ir::Expr &I : E->Operands) {
      std::vector<int64_t> C;
      int64_t K = 0;
      Affine = Affine && ir::exprToAffine(I, Iters, C, K);
      A.Coeffs.push_back(std::move(C));
      A.Consts.push_back(K);
    }
    if (Affine)
      Out[E->Ref.get()].push_back(std::move(A));
  }
  for (const ir::Expr &O : E->Operands)
    collectReads(O, Iters, Out);
}

} // namespace

bool hasHaloRead(const ir::Module &M) {
  for (const auto &Op : M.ops()) {
    std::vector<ir::IterVar> Iters = Op->Axis;
    if (Op->isReduction())
      Iters.insert(Iters.end(), Op->Body->ReduceAxes.begin(),
                   Op->Body->ReduceAxes.end());
    std::map<const ir::TensorDecl *, std::vector<AffineIndex>> Reads;
    collectReads(Op->Body, Iters, Reads);
    for (const auto &[T, Accesses] : Reads)
      for (size_t I = 0; I < Accesses.size(); ++I)
        for (size_t J = I + 1; J < Accesses.size(); ++J)
          if (Accesses[I].Coeffs == Accesses[J].Coeffs &&
              Accesses[I].Consts != Accesses[J].Consts)
            return true;
  }
  return false;
}

std::vector<NamedModule> generatedModules(uint64_t Seed, unsigned Count) {
  std::vector<NamedModule> Out;
  for (uint64_t S = Seed * 1000003ull; Out.size() < Count; ++S) {
    auto M = std::make_shared<ir::Module>(verify::generateModule(S));
    if (!hasHaloRead(*M))
      Out.push_back({"gen_" + std::to_string(S), std::move(M), 0});
  }
  return Out;
}

NamedModule haloModule() {
  auto M = std::make_shared<ir::Module>();
  ir::Tensor In = M->placeholder("in", {19, 23}, ir::DType::F16);
  M->compute(
      "out", {18, 23},
      [&](const std::vector<ir::Expr> &I) {
        return ir::add(ir::tensorRead(In, I),
                       ir::tensorRead(In, {ir::add(I[0], ir::intImm(1)), I[1]}));
      },
      ir::DType::F16);
  return {"halo_18x23", std::move(M), 0};
}

std::vector<int64_t> fig11Sizes() {
  std::vector<int64_t> V;
  for (int I = 0; I < 41; ++I) {
    int64_t S = 64 + (4608 - 64) * I / 40;
    V.push_back((S + 15) / 16 * 16);
  }
  return V;
}

const char *dynFamilyName(unsigned Family) {
  static const char *Names[kDynFamilies] = {"eltwise", "rowsum", "gemm"};
  return Names[Family % kDynFamilies];
}

std::shared_ptr<ir::Module> makeDynamicModule(unsigned Family, int64_t N) {
  auto M = std::make_shared<ir::Module>();
  switch (Family % kDynFamilies) {
  case 0: {
    ir::Tensor A = M->placeholder("a", {N, 32}, ir::DType::F32);
    ir::Tensor B = M->placeholder("b", {N, 32}, ir::DType::F32);
    M->compute(
        "out", {N, 32},
        [&](const std::vector<ir::Expr> &I) {
          return ir::call(
              "relu", {ir::add(ir::tensorRead(A, I), ir::tensorRead(B, I))},
              ir::DType::F32);
        },
        ir::DType::F32);
    M->markDynamicDim(A, 0, "n");
    M->markDynamicDim(B, 0, "n");
    break;
  }
  case 1: {
    ir::Tensor A = M->placeholder("a", {N, 24}, ir::DType::F32);
    ir::IterVar K = M->reduceAxis(24, "c");
    M->compute(
        "row", {N},
        [&](const std::vector<ir::Expr> &I) {
          return ir::reduce(ir::ReduceKind::Sum,
                            ir::tensorRead(A, {I[0], ir::var("c")}), {K});
        },
        ir::DType::F32);
    M->markDynamicDim(A, 0, "n");
    break;
  }
  default: {
    ir::Tensor A = M->placeholder("a", {N, 16}, ir::DType::F16);
    ir::Tensor B = M->placeholder("b", {16, 16}, ir::DType::F16);
    ir::IterVar K = M->reduceAxis(16, "k");
    M->compute(
        "c", {N, 16},
        [&](const std::vector<ir::Expr> &I) {
          return ir::reduce(ir::ReduceKind::Sum,
                            ir::mul(ir::tensorRead(A, {I[0], ir::var("k")}),
                                    ir::tensorRead(B, {ir::var("k"), I[1]})),
                            {K});
        },
        ir::DType::F16);
    M->markDynamicDim(A, 0, "m");
    break;
  }
  }
  return M;
}

std::vector<DynRequest> shapeStreamRequests(unsigned Count, uint64_t Seed,
                                            double ZipfS) {
  constexpr int64_t Universe = 1024;
  std::vector<double> Cdf(static_cast<size_t>(Universe));
  double Acc = 0;
  for (int64_t K = 1; K <= Universe; ++K)
    Cdf[size_t(K - 1)] = Acc += 1.0 / std::pow(double(K), ZipfS);
  for (double &C : Cdf)
    C /= Acc;
  uint64_t State = Seed * 0x9e3779b97f4a7c15ull + 1;
  std::vector<DynRequest> Out;
  for (unsigned I = 0; I < Count; ++I) {
    State = State * 6364136223846793005ull + 1442695040888963407ull;
    double U = double(State >> 11) * (1.0 / 9007199254740992.0);
    int64_t N = int64_t(std::lower_bound(Cdf.begin(), Cdf.end(), U) -
                        Cdf.begin()) + 1;
    Out.push_back({I % kDynFamilies, std::min(N, Universe)});
  }
  return Out;
}

} // namespace perfbench
