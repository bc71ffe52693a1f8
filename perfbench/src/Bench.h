//===- perfbench/src/Bench.h - Shared types of the benchmark runner -------===//
//
// The runner executes one workload per process. Each workload is a
// sequence of whole rounds; every round runs in a forked child so the
// program's process-wide memos start cold each time, and reports back to
// the parent through a pipe as a Report. The parent aggregates rounds into
// the run's metrics (medians over rounds) and prints one JSON line.
//
//===----------------------------------------------------------------------===//

#ifndef AKG_PERFBENCH_BENCH_H
#define AKG_PERFBENCH_BENCH_H

#include "akg/Compiler.h"
#include "sim/SimtRun.h"
#include "sim/Simulator.h"

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using namespace akg;

/// Seconds on the monotonic clock since the runner started (shared by the
/// parent and its forked children, so span times line up).
double nowSeconds();

/// One traced interval: the benchmark's own span around a call into a
/// layer, or a pipeline pass read back from a CompileResult trace.
struct Span {
  int64_t Id = 0;
  int64_t Parent = 0; // 0 = root
  double Start = 0, End = 0;
  std::string Layer; // module name the time is charged to
  std::string Name;
};

/// Collects spans when tracing is on; every method is a no-op otherwise.
class Tracer {
public:
  bool On = false;
  std::vector<Span> Spans;

  /// Opens a span and returns its id (0 when tracing is off).
  int64_t open(int64_t Parent, const std::string &Layer,
               const std::string &Name, double Start);
  void close(int64_t Id, double End);
  /// Adds the per-pass walls of a compile as children of \p Parent, laid
  /// end to end from \p Start (passes run sequentially).
  void addPasses(int64_t Parent, const CompileResult &R, double Start);
};

/// What one round (one forked child) hands back to the parent.
struct Report {
  /// Per-round values; the run reports the median over rounds.
  std::map<std::string, double> Metrics;
  int64_t Attempted = 0;
  int64_t Failed = 0;
  /// Failed correctness checks, one line each (empty = correct).
  std::vector<std::string> Errors;
  /// Per-item times, "metric|item" -> seconds (or ms). The run reports a
  /// time metric as the sum over items of each item's fastest round.
  std::map<std::string, double> Items;
  /// Kernel-text hashes by item key, passed between phases and rounds.
  std::map<std::string, uint64_t> Hashes;
  std::vector<Span> Spans;

  void fail(const std::string &Why) { Errors.push_back(Why); }
  void add(const std::string &Key, double V) { Metrics[Key] += V; }
  void item(const std::string &Metric, const std::string &Item, double V) {
    Items[Metric + "|" + Item] += V;
  }
};

/// Runs \p Body in a forked child and returns its Report. A child that
/// crashes or exits non-zero yields a Report carrying that as an error.
Report runInChild(const std::function<void(Report &)> &Body);

/// First call of every round process: turns on the program's Stats timers
/// for a traced round (the parent never touches Stats, so each child
/// decides for itself) and records a failure if that did not take.
void enterRound(bool Traced, Report &Rep);

/// Options shared by every workload.
struct RunConfig {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Result files, span files and temporary kernel stores.
  std::string OutDir = ".bench_out";
};

/// One workload: set-up builds its inputs once in the parent (timed as
/// setup_s); round() runs one whole round in a forked child.
class Workload {
public:
  virtual ~Workload() = default;
  virtual void setup(const RunConfig &Cfg) = 0;
  /// Runs one round in forked child process(es) and returns its report.
  /// \p Index counts rounds from 0; \p Traced selects the traced variant.
  virtual Report round(unsigned Index, bool Traced) = 0;
};

std::unique_ptr<Workload> makeCompileCold();
std::unique_ptr<Workload> makeGemmTune();
std::unique_ptr<Workload> makeServeStream();

//===----------------------------------------------------------------------===//
// Shared measurement helpers (Ledger.cpp)
//===----------------------------------------------------------------------===//

/// Outcome of compiling and measuring one module on one target.
struct Measured {
  CompileResult Res;
  double CompileSeconds = 0;
  double SimSeconds = 0;
  int64_t Cycles = 0;
  bool Truncated = false;
  sim::SimResult Cce;   // set for CCE kernels
  sim::SimtResult Simt; // set for SIMT kernels
};

/// Performance-mode simulation of \p K on its own target; fills the sim
/// fields of \p Out and adds the sim.* ledger entries to \p Rep.
void simulatePerf(const cce::Kernel &K, Measured &Out, Report &Rep);

/// Adds the compile-side ledger of \p R: per-pass walls (ir, scheduler,
/// schedule, transforms, target), static instruction count, degradation.
void ledgerCompile(const CompileResult &R, Report &Rep);

/// Adds the deltas of the program's Stats counters between two snapshots
/// under the benchmark's per-layer names (poly.*, schedule.memo_*, ...).
void ledgerCounters(const std::map<std::string, int64_t> &Before,
                    const std::map<std::string, int64_t> &After, Report &Rep);

/// Runs \p Fn(0 .. N-1) on \p Threads threads (untimed checks only).
void parallelFor(size_t N, unsigned Threads,
                 const std::function<void(size_t)> &Fn);

/// Static instruction count of a kernel, loop bodies included.
int64_t staticInstrs(const cce::Kernel &K);

/// Median / percentile (nearest rank on the sorted copy) of \p V; 0 when
/// empty.
double percentile(std::vector<double> V, double P);

/// exp(mean(log(x))) over positive values; 0 when empty.
double geomean(const std::vector<double> &V);

/// FNV-1a of a string (kernel texts are compared by hash across rounds).
uint64_t fnv1a(const std::string &S);

/// Every per-layer metric name the traced mode reports, in print order.
const std::vector<std::string> &perLayerMetricNames();

} // namespace perfbench

#endif // AKG_PERFBENCH_BENCH_H
