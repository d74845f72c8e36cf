// Shared pieces of the end-to-end benchmark: run options, the per-pass
// record every workload fills, sample statistics, and the benchmark-owned
// span tracer.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "telemetry/prof.h"

namespace e2e {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Reduced sizes for the benchmark's own self-test (selftest.py).
  bool quick = false;
  std::string out_dir = ".";
  std::string describe = "unknown";
};

inline double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Host-speed reference. On a shared host the speed of the CPU a run gets
// drifts by tens of percent within minutes, and every wall time drifts with
// it. The workloads therefore run fixed bursts of benchmark-owned work
// (host.cpp) after each timed operation, set-up and sim slice, and each
// sample is scaled by kBurstRefS over the median of the bursts around it:
// times read as on a host where one burst takes kBurstRefS. The bursts run
// outside every timed interval and do not depend on the program, so a
// change to the program moves the scaled times as it moves the raw ones.
class HostRef {
 public:
  // About the median burst on a 2.1 GHz Xeon vCPU, so scales sit near 1.
  static constexpr double kBurstRefS = 210e-6;

  // Runs `n` bursts, recording the duration of each.
  void burst(int n);
  // Bursts recorded so far.
  std::size_t mark() const { return bursts_.size(); }
  // kBurstRefS over the median of the bursts within kWindow of position
  // `at` (1 when there are none).
  double scale_near(std::size_t at) const;
  const std::vector<double>& bursts() const { return bursts_; }

 private:
  // Sixteen bursts on each side: the four after each of the four
  // operations before and after a sample.
  static constexpr std::size_t kWindow = 16;
  std::vector<double> bursts_;
};

// Everything one pass of a workload measured. A run repeats passes until
// its time budget is spent and reduces them in main.cpp. Times are recorded
// raw; scaled() gives them at reference host speed (HostRef).
struct PassResult {
  // Set-up samples (system construction, harvester attach, traffic
  // generation); a pass builds its system several times and keeps the last.
  std::vector<double> setup_s;
  // Latency of each install_task of the intake phase, in install order.
  std::vector<double> intake_phase_s;
  // Every install_task (intake and churn re-arrivals), in ms.
  std::vector<double> intake_ms;
  // Every remove_task and re-arrival of the churn phase, in ms.
  std::vector<double> churn_ms;
  // Simulated time, in fixed slices of virtual time. `span` numbers the
  // workload's monitored spans (leaf_density has two); -1 marks the short
  // runs between churn events.
  struct Slice {
    double virtual_s = 0;
    double wall_s = 0;
    std::uint64_t events = 0;
    int span = 0;
    std::size_t at = 0;  // bursts recorded before it
  };
  std::vector<Slice> slices;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  // FNV-1a over the pass's virtual-time outputs; equal seeds must agree.
  std::uint64_t digest = 0;
  // Per-layer values of a traced pass.
  std::map<std::string, double> layer;
  // Bursts interleaved with the timed operations, and for each sample above
  // the number of bursts recorded before it was taken.
  HostRef host;
  std::vector<std::size_t> setup_at, intake_phase_at, intake_at, churn_at;

  void add_setup(double s) { add(setup_s, setup_at, s); }
  void add_intake(double s) { add(intake_phase_s, intake_phase_at, s); }
  void add_install(double ms) { add(intake_ms, intake_at, ms); }
  void add_churn(double ms) { add(churn_ms, churn_at, ms); }
  void add_slice(Slice s) {
    s.at = host.mark();
    slices.push_back(s);
  }
  // A copy with every time scaled to reference host speed.
  PassResult scaled() const;

  // The monitored slices, or the churn gaps when a workload has none.
  std::vector<Slice> sim_slices() const {
    std::vector<Slice> monitored;
    for (const auto& s : slices)
      if (s.span >= 0) monitored.push_back(s);
    return monitored.empty() ? slices : monitored;
  }

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      failures.push_back(what);
    }
  }

 private:
  void add(std::vector<double>& series, std::vector<std::size_t>& at, double v) {
    series.push_back(v);
    at.push_back(host.mark());
  }
};

// Linear interpolation between order statistics (quantile type 7).
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }
// Mean of the samples from the 45th to the 55th percentile: a median that
// does not hinge on the one or two samples nearest the middle. On
// leaf_density, whose install latency rises steadily with the number of
// tasks, the plain median is the latency of whichever install lands in the
// middle, and it moved by up to 18% from pass to pass.
double central_median(std::vector<double> v);

// The highest percentile with at least ten of `per_pass` samples beyond it,
// capped at the 95th: 0.95 from 200 samples up, 1 - 10/n below that, and the
// maximum under 20. The percentile is fixed by one pass's sample count (so
// it does not change with the number of passes) and taken over all samples.
struct Tail {
  double value = 0;
  double q = 0;
  std::size_t n = 0;
};
Tail tail(std::vector<double> v, std::size_t per_pass);

class Fnv {
 public:
  void add(const std::string& s) {
    for (unsigned char c : s) {
      h_ ^= c;
      h_ *= 1099511628211ull;
    }
    h_ ^= 0xff;
    h_ *= 1099511628211ull;
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

// Benchmark-owned spans around the calls into each layer. Spans nest by a
// stack (the benchmark is single-threaded); each records its parent and the
// top-level operation it belongs to. Kept in memory, written at exit.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::uint32_t id = 0;
    std::uint32_t parent = 0;  // 0 = top level
    std::uint32_t op = 0;      // id of the top-level ancestor
  };

  void set_enabled(bool on) { enabled_ = on; }
  std::uint32_t open(std::string name);
  void close(std::uint32_t id);

  // Count, total and self time (total minus the time covered by child
  // spans) per span name.
  struct NameStats {
    std::uint64_t count = 0;
    double total_ms = 0;
    double self_ms = 0;
  };
  std::map<std::string, NameStats> by_name() const;

  // Chrome-trace JSON: these spans as pid 3 plus the Furrow snapshot rows.
  void write_chrome_trace(std::ostream& os,
                          const farm::telemetry::prof::Snapshot& furrow,
                          const std::string& metadata_json) const;

 private:
  static std::uint64_t now_ns();
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name)
      : tracer_(tracer), id_(tracer.open(std::move(name))) {}
  ~ScopedSpan() { tracer_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  std::uint32_t id_;
};

}  // namespace e2e
