//===- perfbench/src/Inputs.h - Workload inputs ---------------------------===//
//
// The module sets the workloads draw from: the paper's Fig 13 network
// subgraphs, its Fig 9 operator shapes and Fig 11 GEMM sizes, draws from
// the differential-testing module generator, and the dynamic-shape
// request families. Every builder is deterministic in its arguments.
//
//===----------------------------------------------------------------------===//

#ifndef AKG_PERFBENCH_INPUTS_H
#define AKG_PERFBENCH_INPUTS_H

#include "graph/Ops.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// One module of a workload with the name it compiles under.
struct NamedModule {
  std::string Name;
  std::shared_ptr<akg::ir::Module> Mod;
  /// Occurrences per training step (Fig 13 subgraphs; 0 elsewhere).
  unsigned Count = 0;
};

/// The fused subgraphs of the six Fig 13 networks (ResNet-50,
/// MobileNet-v2, AlexNet, BERT 21128, BERT 30522, SSD), "network/layer".
std::vector<NamedModule> fig13Subgraphs();

/// The 100 Fig 9 single-operator shapes (ten operators, ten shapes each).
std::vector<NamedModule> fig09Shapes();

/// \p Count generator modules from generator seed Seed * 1000003 on:
/// consecutive generator seeds, so the draw cycles through all seven Auto
/// themes. Modules with a
/// halo read are skipped (see hasHaloRead).
std::vector<NamedModule> generatedModules(uint64_t Seed, unsigned Count);

/// True when some op reads one tensor at two index tuples that differ by a
/// constant offset (a halo such as in[i] + in[i + 2]). The CCE lowering
/// sizes such a box by the width of one access instead of the span of all
/// of them, so the kernel moves fewer GM bytes than the data it reads;
/// whether a generator draw contains one depends on its seed, so the
/// draws leave them out and compile_cold carries one fixed halo module
/// instead. Reads that differ by more than a constant (broadcasts,
/// transposes) are kept: their boxes cover every access.
bool hasHaloRead(const akg::ir::Module &M);

/// The fixed halo module: out[i, j] = in[i, j] + in[i + 1, j] over an
/// [18, 23] output. Its CCE kernel moves less than its compulsory GM
/// traffic on every run.
NamedModule haloModule();

/// The 41 Fig 11 GEMM sizes: 64 .. 4608, rounded up to multiples of 16.
std::vector<int64_t> fig11Sizes();

/// Dynamic-shape request families (dim 0 marked dynamic): relu(a + b)
/// over [n, 32], a row sum over [n, 24], and a [m, 16] x [16, 16] GEMM.
constexpr unsigned kDynFamilies = 3;
std::shared_ptr<akg::ir::Module> makeDynamicModule(unsigned Family,
                                                   int64_t Extent);
const char *dynFamilyName(unsigned Family);

/// Deterministic xorshift64* stream (the run seed orders the inputs).
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed * 0x9e3779b97f4a7c15ull + 1) {}
  uint64_t next() {
    State ^= State >> 12;
    State ^= State << 25;
    State ^= State >> 27;
    return State * 2685821657736338717ull;
  }

private:
  uint64_t State;
};

/// One dynamic-shape request: a family and its extent.
struct DynRequest {
  unsigned Family = 0;
  int64_t Extent = 1;
};

/// The request stream of bench/shape_stream: \p Count requests, families
/// in turn, extents Zipf(\p ZipfS) over 1 .. 1024 drawn from its 64-bit
/// LCG seeded with \p Seed. With (300, 42, 0.5), that bench's defaults, it
/// is the same stream.
std::vector<DynRequest> shapeStreamRequests(unsigned Count, uint64_t Seed,
                                            double ZipfS);

} // namespace perfbench

#endif // AKG_PERFBENCH_INPUTS_H
