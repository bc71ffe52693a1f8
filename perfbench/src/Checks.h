//===- perfbench/src/Checks.h - Correctness checks of the benchmark -------===//
//
// The checks every workload applies to the program's outputs. They use
// only the reference evaluator, the simulators and plain arithmetic, never
// the compiler, so a miscompile cannot make them pass. Each returns true
// on success and otherwise appends a one-line reason to \p Why. The
// self-test (--selftest) feeds each of them a deliberately wrong input and
// requires it to fail.
//
//===----------------------------------------------------------------------===//

#ifndef AKG_PERFBENCH_CHECKS_H
#define AKG_PERFBENCH_CHECKS_H

#include "Bench.h"

namespace perfbench {

/// Functional tolerance of every output comparison (the fuzz oracle's).
constexpr double kTolerance = 2e-2;

/// True when every tensor of \p M fits the module generator's default
/// size budget (4096 elements per tensor, 16384 per module): the kernels
/// small enough to run functionally on every round.
bool fitsGeneratorBudget(const ir::Module &M);

/// Inputs for a functional run of \p M and the reference evaluator's
/// outputs on them.
struct Reference {
  ir::BufferMap Inputs;
  ir::BufferMap Expected;
};
Reference makeReference(const ir::Module &M, uint32_t Seed);

/// Runs \p R functionally on its own target against \p Ref.Inputs (with
/// late binding when R carries a dynamic-shape binding) and returns the
/// produced buffers. \p Truncated reports a run cut at the instruction cap.
ir::BufferMap runFunctional(const CompileResult &R, const ir::Module &M,
                            const Reference &Ref, bool &Truncated);

/// Every output of \p M is present in \p Got with the reference's size
/// and each element within kTolerance of \p Expected.
bool outputsMatch(const ir::Module &M, const ir::BufferMap &Got,
                  const ir::BufferMap &Expected, std::string &Why);

/// Two kernel texts are byte-identical.
bool sameKernelText(const std::string &Got, const std::string &Want,
                    std::string &Why);

/// Performance-run sanity of a kernel too large to run functionally: the
/// simulation was not truncated, cycles cover every pipe's busy cycles
/// (CCE), and global-memory traffic covers compulsoryGmBytes (CCE).
/// GmShort means every other check passed and only the traffic fell short
/// (the known halo fault, Inputs.h); Broken is any other failure.
enum class Sanity { Ok, GmShort, Broken };
Sanity perfSanity(const Measured &Run, const ir::Module &M, std::string &Why);
inline bool perfSane(const Measured &Run, const ir::Module &M,
                     std::string &Why) {
  return perfSanity(Run, M, Why) == Sanity::Ok;
}

/// Bytes kernel \p K of \p M must move at least: for every input the kernel
/// reads, the hull of the elements the module's ops read from it, once;
/// every output written once.
int64_t compulsoryGmBytes(const ir::Module &M, const cce::Kernel &K);

/// Tuning result consistency: BestCycles <= InitialCycles and replaying
/// the best tiles reproduces BestCycles exactly.
bool tuneConsistent(int64_t Best, int64_t Initial, int64_t Replayed,
                    std::string &Why);

/// Cache accounting of one serving phase: hits + coalesced + misses equal
/// the requests sent.
bool cacheAccountsFor(int64_t Hits, int64_t Coalesced, int64_t Misses,
                      int64_t Requests, std::string &Why);

/// Runs every check on good and deliberately broken inputs; returns the
/// number of checks that did not behave (0 = the checks can fail).
int runSelfTest();

} // namespace perfbench

#endif // AKG_PERFBENCH_CHECKS_H
