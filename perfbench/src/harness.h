// Shared machinery of the benchmark binary: the clock, the in-memory
// span recorder, operation checks, digests and the metric sink.
//
// Every time the benchmark reports is read here, around calls into the
// library's public functions; nothing inside the library is timed or
// instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Small inputs for the benchmark's own tests.
  bool toy = false;
  // Overwrites one belief of the first operation with NaN, to prove the
  // output checks count it.
  bool plant_nonfinite = false;
  // Where the scale workload writes its .ssd image.
  std::string data_dir = ".";
  // Where the traced run writes its spans (JSONL); empty skips writing.
  std::string trace_out;
};

// In-memory span recorder. A span carries its name, start and end (seconds
// since the recorder was made), the index of the enclosing span (-1 at the
// top) and the operation id shared by every span of one operation. When
// disabled, Span objects read no clock and record nothing.
class Tracer {
 public:
  struct Record {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    std::uint64_t op = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  const std::vector<Record>& records() const { return records_; }

  int open(std::string name, std::uint64_t op);
  void close(int index);

  // Sum of the durations of every span named `name`.
  double total(std::string_view name) const;
  // Durations of every span named `name`, in recording order.
  std::vector<double> durations(std::string_view name) const;
  // Sum over spans named `name` of their duration minus the time their
  // direct children cover.
  double self_total(std::string_view name) const;

  // One JSON object per span.
  bool write_jsonl(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Record> records_;
  std::vector<int> stack_;
};

// RAII span; a no-op on a disabled tracer.
class Span {
 public:
  Span(Tracer& tracer, std::string name, std::uint64_t op)
      : tracer_(tracer),
        index_(tracer.enabled() ? tracer.open(std::move(name), op) : -1) {}
  ~Span() {
    if (index_ >= 0) tracer_.close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

// Failure accounting: an operation that throws or returns an output that
// fails a check is counted, never aborted on.
class Ledger {
 public:
  void attempt() { ++attempted_; }
  // Records one failed operation with the first reason found.
  void fail(const std::string& why);
  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }
  const std::vector<std::string>& reasons() const { return reasons_; }

 private:
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::vector<std::string> reasons_;  // first few, for the report
};

// Collects the problems of one operation; empty means it passed.
struct OpCheck {
  std::string problem;
  void require(bool ok, const std::string& what) {
    if (!ok && problem.empty()) problem = what;
  }
  bool ok() const { return problem.empty(); }
};

bool all_finite(const std::vector<double>& values);
// Overwrites belief[0] with NaN, once per process, when the options ask
// for it: tests use it to prove the checks count a non-finite belief.
void plant_nonfinite_once(const Options& options, std::vector<double>& belief);
bool is_permutation_of_range(const std::vector<std::uint32_t>& order,
                             std::size_t size);

// 64-bit FNV-1a, streamed.
class Fnv1a {
 public:
  void bytes(const void* data, std::size_t size);
  void str(std::string_view s) { bytes(s.data(), s.size()); }
  template <typename T>
  void pod(const T& value) {
    bytes(&value, sizeof(value));
  }
  void doubles(const std::vector<double>& values) {
    bytes(values.data(), values.size() * sizeof(double));
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::string hex64(std::uint64_t value);
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

// Name -> (value, unit), printed in insertion order.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  // 0 when `name` was never set.
  double get(const std::string& name) const;
  const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  entries() const {
    return entries_;
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      entries_;
};

// What one pass over a workload's operations produced.
struct PassOutcome {
  double seconds = 0.0;         // timed library calls of the pass
  std::vector<double> op_ms;    // latency of each operation
  std::uint64_t output_hash = 0;
  // Output quality: decisions at threshold 0.5 that agree with the truth
  // out of all graded, and true assertions in top-100 lists out of the
  // list slots (100 per list).
  std::size_t agree = 0;
  std::size_t graded = 0;
  std::size_t top_true = 0;
  std::size_t top_slots = 0;
  // Workload-specific counts for the report (unconverged fits, ...).
  Metrics extra;
};

// A workload: inputs from a seed, and a closed loop of operations over them.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual std::string name() const = 0;
  // One-line description of the inputs' scale for the host block.
  virtual std::string scale_description() const = 0;
  // Builds the inputs from the seed; timed into setup_s. Repeated calls
  // must rebuild identical inputs.
  virtual void setup() = 0;
  // Digest of the inputs built by the last setup().
  virtual std::uint64_t input_digest() const = 0;
  // Consecutive passes that together cover every input once.
  virtual std::size_t round_size() const { return 1; }
  // One pass over the operations. Spans go to `tracer` when it is enabled.
  virtual PassOutcome pass(Tracer& tracer, Ledger& ledger) = 0;
  // Traced run only: per-layer metrics from the traced round's spans plus
  // any pieces timed separately on the same inputs.
  virtual void layer_metrics(const Tracer& tracer, Metrics& out) = 0;
};

}  // namespace perfbench
