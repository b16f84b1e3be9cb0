#ifndef ASSETBENCH_HARNESS_H_
#define ASSETBENCH_HARNESS_H_

/// \file harness.h
/// Shared pieces of the benchmark: arguments, the result line, exact
/// latency samples, the benchmark's own spans, per-layer metric slots,
/// and the layer probes every workload's traced run can call.

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "api/command.h"
#include "core/database.h"

namespace assetbench {

/// Command-line arguments (see main.cc for the flags).
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Small sizes and probe budgets, for the benchmark's own tests.
  bool small = false;
  /// Name of a planted wrong outcome (tests only); empty = none.
  std::string plant;
  /// Scratch directory for this run's database files (removed at exit).
  std::string run_dir;
  /// Directory the traced run writes its Chrome trace and table into.
  std::string out_dir;
};

/// Monotonic nanoseconds (the flight recorder's clock, so benchmark
/// spans and program events share one timeline).
int64_t NowNs();

/// Seconds since main() started.
double SinceStartSeconds();
void MarkProcessStart();

/// Deterministic 64-bit generator for workload inputs.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed * 0x9E3779B97F4A7C15ull + 1) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

/// Exact per-operation samples (microseconds).
class Samples {
 public:
  void Add(double us) { v_.push_back(us); }
  size_t size() const { return v_.size(); }
  /// Linear-interpolated quantile, q in [0, 1]; 0 when empty.
  double Quantile(double q) const;
  double Mean() const;

 private:
  std::vector<double> v_;
};

/// Host steal time and total time, in clock ticks summed over every CPU
/// (the `cpu` line of /proc/stat); both 0 where it cannot be read.
struct CpuTicks {
  uint64_t steal = 0;
  uint64_t total = 0;
  static CpuTicks Read();
};

/// Splits a measured loop into fixed-length windows. A run reports the
/// median over its windows of each window's rate and quantiles, so a
/// few seconds of interference from outside the process move a run's
/// figures less than they move its totals. Windows in which the host
/// took more than kMaxSteal of the machine's CPU time (steal time) are
/// left out, so long as a quarter of the windows remain; otherwise the
/// quarter with the least steal counts.
class Windows {
 public:
  static constexpr double kMaxSteal = 0.01;

  explicit Windows(double window_s)
      : len_ns_(static_cast<int64_t>(window_s * 1e9)) {}
  /// Starts the first window.
  void Start(int64_t now) { Restart(now); }
  void Op(double us) {
    ++cur_.ops;
    cur_.lat.Add(us);
  }
  void ReadOnly(double us) { cur_.ro.Add(us); }
  /// True once the current window has run its length.
  bool Due(int64_t now) const { return now - start_ns_ >= len_ns_; }
  /// Closes the current window and starts the next one at `now`.
  void Close(int64_t now);
  /// Moves the current window's start to `now`, leaving out the time
  /// since then (read-only bursts between windows) but keeping samples.
  void Restart(int64_t now) {
    start_ns_ = now;
    ticks_ = CpuTicks::Read();
  }

  double MedianRate() const;
  double MedianQuantile(double q) const;
  double MedianReadOnlyP50() const;
  /// Mean latency over every op of every closed window.
  double MeanOp() const;
  /// One stderr-ready line: each window's ops/s and steal share, and
  /// which windows count.
  std::string Describe() const;

 private:
  struct Window {
    uint64_t ops = 0;
    int64_t ns = 0;
    Samples lat;
    Samples ro;
    /// Share of the machine's CPU time the host stole in this window.
    double steal = 0;
  };
  /// Windows that ran at least half their length (all, if none did),
  /// less those the host stole from (see the class comment), in order
  /// of steal.
  std::vector<const Window*> Counted() const;

  int64_t len_ns_;
  int64_t start_ns_ = 0;
  CpuTicks ticks_;
  Window cur_;
  std::vector<Window> done_;
};

/// Window length for a run of `args.seconds`: 1 s, or a quarter of a
/// shorter run.
double WindowSeconds(const Args& args);

/// The last stdout line, plus check failures (printed to stderr).
struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  /// Marks the run incorrect and reports why (first few only).
  void Fail(const std::string& why);
  void Put(const std::string& name, double value, const std::string& unit);
  std::string Json() const;

 private:
  int reported_ = 0;
};

/// The benchmark's own spans around calls into each layer. Kept in
/// memory (capped) and written out with the program's trace at the end.
class SpanLog {
 public:
  explicit SpanLog(size_t cap = 60000) : cap_(cap) {}
  void Add(const char* name, int64_t start_ns, int64_t end_ns,
           uint32_t lane = 0, uint64_t op = 0);
  /// Chrome trace "X" events (no surrounding brackets), pid 3.
  std::string ChromeEvents() const;

 private:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    uint32_t lane;
    uint64_t op;
  };
  size_t cap_;
  std::vector<Span> spans_;
};

/// Every per-layer metric, in BENCHMARK.json order. A traced run fills
/// each slot from the workload itself or from a probe; unset slots are
/// reported as 0.
struct Layers {
  static constexpr double kUnset = std::numeric_limits<double>::quiet_NaN();
  double client_flush_us = kUnset;
  double client_reply_wait_us = kUnset;
  double api_codec_ns_per_cmd = kUnset;
  double api_execute_us_per_op = kUnset;
  double server_queue_us = kUnset;
  double server_execute_us = kUnset;
  double server_flush_us = kUnset;
  double server_residual_us = kUnset;
  double core_commit_us = kUnset;
  double core_lock_waits_per_op = kUnset;
  double core_delegations_per_op = kUnset;
  double core_permit_checks_per_op = kUnset;
  double core_empty_txn_us = kUnset;
  double wal_fsyncs_per_commit = kUnset;
  double wal_records_per_fsync = kUnset;
  double wal_fsync_us = kUnset;
  double wal_fsyncs_per_readonly_txn = kUnset;
  double pool_hit_ratio = kUnset;
  double pool_evictions_per_op = kUnset;
  double ckpt_count = kUnset;
  double ckpt_ms = kUnset;
  double recovery_ms = kUnset;
  double models_nested_us = kUnset;
  double models_saga_us = kUnset;
  double models_coop_us = kUnset;
  double trace_overhead_pct = kUnset;
  double trace_base_ops_per_s = kUnset;

  void PutAll(Result* r) const;
};

/// Kernel and buffer-pool counters at one instant, for deltas.
struct Counters {
  asset::KernelStats::Snapshot k;
  asset::BufferPool::Stats pool;
  static Counters Read(asset::Database& db);
};

/// Fills the core/wal/pool/ckpt slots from counter deltas over `ops`
/// operations.
void FillKernelLayers(const Counters& before, const Counters& after,
                      uint64_t ops, Layers* l);

/// The untraced half's rate as the base, and the traced half's cost
/// against it in percent.
void FillTraceOverhead(double base_ops_per_s, double traced_ops_per_s,
                       Layers* l);

/// Mean checkpoint time since `since`, forcing one checkpoint if none
/// ran. Call before a crash: recovery starts a kernel with fresh stats.
void FillCheckpointMs(asset::Database& db, const Counters& since, Layers* l);

/// Wall time (ms) of Database::CrashAndRecover; a failure fails the run.
double TimedRecovery(asset::Database& db, Result* r);

/// Exact mean (ns) of a histogram delta; 0 when nothing was recorded.
double HistMeanNs(const asset::LatencyHistogram::Snapshot& before,
                  const asset::LatencyHistogram::Snapshot& after);

/// asset_server_stage_ns_sum{command=..,stage=..} in a metrics text;
/// 0 when absent.
double StageSum(const std::string& metrics, const std::string& command,
                const std::string& stage);

/// One workload operation as the commands that make it up (recorded
/// for the codec and ApiSession replays).
using OpCommands = std::vector<asset::api::Command>;

/// ns per command for EncodeCommand+DecodeCommand and
/// EncodeReply+DecodeReply over `ops` (Get replies of `get_reply_bytes`),
/// repeated for about `budget_s`. A failed round trip fails the run.
double CodecProbe(const std::vector<OpCommands>& ops, size_t get_reply_bytes,
                  double budget_s, Result* r);

/// µs per op replaying `ops` through ApiSession::Execute (no socket)
/// against `db`; a reply that is not OK fails the run.
double ExecuteProbe(asset::Database& db, const std::vector<OpCommands>& ops,
                    Result* r);

/// µs per Initiate+Begin+Commit of a no-op transaction.
double EmptyTxnProbe(asset::Database& db, int n);

/// Read-only Begin+Get+Commit transactions on a file-backed database of
/// its own under `dir`, with the default, strict durability: fills
/// wal_fsyncs_per_readonly_txn, and wal_fsync_us when `fill_fsync` is
/// set.
void ReadOnlyFsyncProbe(const std::string& dir, int n, bool fill_fsync,
                        Layers* l, Result* r);

/// Opens a database; aborts the run on failure.
std::unique_ptr<asset::Database> OpenDb(asset::Database::Options o);

/// Merges Chrome trace documents (each a {"traceEvents":[..]} object)
/// and raw event lists into one document; `pid` relabels each source.
std::string MergeChromeTrace(
    const std::vector<std::pair<std::string, int>>& docs,
    const std::string& extra_events);

void WriteFile(const std::string& path, const std::string& content);

/// Prints the end-to-end metrics of an untraced run: window medians of
/// throughput and latency quantiles, and the set-up time.
void PutEndToEnd(const Windows& win, double setup_s, Result* r);

/// The self-time table of a traced wire run: each blocking-path part
/// in µs per op and its share of the round trip, with the residual.
std::string SelfTimeTable(const std::string& workload, double op_mean_us,
                          const Layers& l);

}  // namespace assetbench

#endif  // ASSETBENCH_HARNESS_H_
