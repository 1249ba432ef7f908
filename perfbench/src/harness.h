// Shared pieces of the benchmark program: clocks, percentiles, the round gate
// that stops coupled closed-loop workers on a common round, and the report
// that prints every metric by name and as the final JSON line.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <limits>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

inline double seconds_between(std::uint64_t t0, std::uint64_t t1) {
  return static_cast<double>(t1 - t0) * 1e-9;
}

/// Nearest-rank percentile of `v` (sorted in place); q in [0, 1].
double percentile(std::vector<double>& v, double q);

/// Run options shared by every workload.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< Perfetto JSON path for the traced run ("" = none)
};

/// Closed-loop workers coupled by a synchronization model (BSP/SSP/PSSP) must
/// all run the same number of rounds, or a worker that keeps going waits
/// forever on a peer that stopped. Every worker asks begin(r) before round r;
/// once the deadline passed the gate fixes stop = (highest round any worker
/// began) + 1, so every worker runs exactly the rounds [0, stop).
class RoundGate {
 public:
  /// The deadline is open until set_deadline(); warm-up rounds pass freely.
  void set_deadline(std::uint64_t deadline_ns) {
    std::scoped_lock lock(mu_);
    deadline_ns_ = deadline_ns;
  }

  bool begin(std::int64_t round) {
    std::scoped_lock lock(mu_);
    if (stop_ == kNever && now_ns() >= deadline_ns_) stop_ = max_started_ + 1;
    if (round >= stop_) return false;
    if (round > max_started_) max_started_ = round;
    return true;
  }

  /// Rounds every worker ran (valid once every worker's begin() returned false).
  [[nodiscard]] std::int64_t rounds() const {
    std::scoped_lock lock(mu_);
    return stop_;
  }

 private:
  static constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();
  mutable std::mutex mu_;
  std::uint64_t deadline_ns_ = std::numeric_limits<std::uint64_t>::max();
  std::int64_t stop_ = kNever;
  std::int64_t max_started_ = -1;
};

/// Counts the kPushAcks of each round as they reach the benchmark's own node
/// handler, before the client sees them. `expected` acks complete a round.
class AckTrack {
 public:
  explicit AckTrack(std::uint32_t expected) : expected_(expected) {}

  void on_ack(std::int64_t progress) {
    const std::uint64_t t = now_ns();
    std::scoped_lock lock(mu_);
    Slot& s = slots_[static_cast<std::size_t>(progress) % slots_.size()];
    if (s.progress < progress) s = {progress, 0, 0};
    if (s.progress == progress && ++s.acks == expected_) s.done_ns = t;
  }

  /// Arrival time of the round's last ack (0 = not all acks yet).
  [[nodiscard]] std::uint64_t done(std::int64_t progress) const {
    std::scoped_lock lock(mu_);
    const Slot& s = slots_[static_cast<std::size_t>(progress) % slots_.size()];
    return s.progress == progress ? s.done_ns : 0;
  }

 private:
  struct Slot {
    std::int64_t progress = -1;
    std::uint32_t acks = 0;
    std::uint64_t done_ns = 0;
  };
  const std::uint32_t expected_;
  mutable std::mutex mu_;
  std::array<Slot, 8> slots_{};
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< sample count or base, printed beside the value
};

/// Everything one run reports. end_to_end metrics are printed in the JSON
/// line of an untraced run, per-layer metrics in that of a traced run; the
/// human-readable lines above it show both with their sample counts, and the
/// layer details only some workloads have.
class Report {
 public:
  void check(bool ok, const std::string& what);
  [[nodiscard]] bool correct() const { return failures_.empty(); }

  void e2e(std::string name, double value, std::string unit, std::string note = {});
  /// A per-layer metric every workload reports (in the traced JSON line).
  void layer(std::string name, double value, std::string unit, std::string note = {});
  /// A metric of a layer this workload loads (printed, not in the JSON line,
  /// and absent where the workload bypasses the layer).
  void detail(std::string name, double value, std::string unit, std::string note = {});
  /// An end-to-end number this workload alone has (printed, not in the JSON
  /// line, whose end-to-end metrics every workload reports).
  void info(std::string name, double value, std::string unit, std::string note = {});
  /// p50 of `samples_us` under `name`, or nothing when there are no samples.
  void layer_p50(const std::string& name, std::vector<double> samples_us);
  void detail_p50(const std::string& name, std::vector<double> samples_us);
  /// p50 and p99 of `samples_us` as <prefix>_p50_us / <prefix>_p99_us, or
  /// nothing when there are no samples.
  void detail_latency(const std::string& prefix, std::vector<double> samples_us);

  void count_ops(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  /// Print the human-readable lines, then the final JSON line.
  void print(const RunOptions& opts) const;

 private:
  std::vector<std::string> failures_;
  std::vector<Metric> e2e_;
  std::vector<Metric> layers_;
  std::vector<Metric> details_;
  std::vector<Metric> info_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Each metric's value in every trial of one run (a trial is a fresh cluster
/// and its own timed window). A run reports the median over its trials, so
/// one disturbed trial does not move the result.
class Trials {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           std::uint64_t samples = 1);
  /// p50 and p99 of one trial's samples as <prefix>_p50_us / <prefix>_p99_us.
  void add_latency(const std::string& prefix, std::vector<double> samples_us);

  enum class As { kEndToEnd, kInfo };
  void report(Report& report, As as) const;

 private:
  struct Entry {
    std::string name;
    std::string unit;
    std::vector<double> values;
    std::uint64_t samples = 0;
  };
  std::vector<Entry> entries_;
};

/// Workload entry points (dense.cpp, sparse.cpp).
void run_dense_tcp(const RunOptions& opts, Report& report);
void run_sync_n64(const RunOptions& opts, Report& report);
void run_chain_rw(const RunOptions& opts, Report& report);
void run_sparse_zipf(const RunOptions& opts, Report& report);

/// Unit tests of the tracing decorator (trace.cpp). Returns failures.
int run_selftest();

}  // namespace perfbench
