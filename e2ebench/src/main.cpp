// farm_e2e: runs one workload of the end-to-end benchmark for a time budget
// and prints its metrics. Normally started by e2ebench/run.py:
//
//   farm_e2e --workload usecase_mix --seed 1 --seconds 20 --trace 0
//            --out .bench_build/results [--quick] [--describe <git describe>]
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}; --trace 0 reports the end-to-end metrics, --trace 1 the
// per-layer ones. A results file with run metadata, tail sample counts,
// failures and the span table is written to --out, and a traced run also
// writes a chrome-trace file there.
#include <sched.h>
#include <sys/resource.h>
#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench.h"
#include "telemetry/export.h"
#include "util/pool.h"
#include "workloads.h"

namespace {

using e2e::Options;
using e2e::PassResult;
using farm::telemetry::json_escape;

struct Metric {
  const char* name;
  const char* unit;
};

const std::vector<Metric> kEndToEnd = {
    {"setup_s", "s"},         {"intake_s", "s"},
    {"intake_p50_ms", "ms"},  {"intake_p95_ms", "ms"},
    {"churn_p50_ms", "ms"},   {"churn_p95_ms", "ms"},
    {"sim_speed", "sim-s/s"}, {"peak_rss_mb", "MB"},
    {"ok_frac", "ratio"},
};

const std::vector<Metric> kPerLayer = {
    {"almanac.parse_us", "us"},
    {"almanac.compile_us", "us"},
    {"almanac.lint_us", "us"},
    {"almanac.analysis_us", "us"},
    {"placement.solve_ms", "ms"},
    {"placement.dirty_switches", "count"},
    {"placement.fallbacks", "count"},
    {"placement.fallbacks.cold", "count"},
    {"placement.fallbacks.delta_fraction", "count"},
    {"placement.fallbacks.validation", "count"},
    {"placement.memo_hit_ratio", "ratio"},
    {"lp.pivots", "count"},
    {"pool.tasks", "count"},
    {"pool.inline_frac", "ratio"},
    {"seeder.deployments", "count"},
    {"seeder.migrations", "count"},
    {"seeder.deferred_reoptimizes", "count"},
    {"sim.events", "count"},
    {"sim.ns_per_event", "ns"},
    {"sim.slice_growth", "ratio"},
    {"sim.event_cost_growth", "ratio"},
    {"asic.tcam_find_ns", "ns"},
    {"asic.tcam_match_ns", "ns"},
    {"net.canonical_key_ns", "ns"},
    {"seed.on_poll_us", "us"},
    {"soil.poll_requests", "count"},
    {"soil.poll_deliveries", "count"},
    {"soil.agg_ratio", "ratio"},
    {"soil.polling_accuracy", "ratio"},
    {"soil.polls_abandoned", "count"},
    {"bus.harvester_msgs", "count"},
    {"telemetry.events_appended", "count"},
    {"scarecrow.evaluate_ms", "ms"},
    {"telemetry.report_ms", "ms"},
    {"trace.intake_s", "s"},
    {"trace.intake_p50_ms", "ms"},
    {"trace.churn_p50_ms", "ms"},
    {"trace.sim_speed", "sim-s/s"},
    {"host.burst_us", "us"},
};

std::string num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

int available_cpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return 0;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Reduced {
  std::map<std::string, double> metrics;
  e2e::Tail intake_tail, churn_tail;
  std::size_t setup_n = 0, intake_n = 0, churn_n = 0, slice_n = 0;
};

// Per position k (the k-th sample of a pass; every pass performs the same
// operations in the same order), the median over passes, summed: robust to
// a slow pass without hiding a slow operation.
double sum_of_position_medians(const std::vector<std::vector<double>>& per_pass) {
  double sum = 0;
  for (std::size_t k = 0; k < per_pass.front().size(); ++k) {
    std::vector<double> at_k;
    for (const auto& v : per_pass)
      if (k < v.size()) at_k.push_back(v[k]);
    sum += e2e::median(at_k);
  }
  return sum;
}

Reduced reduce(const std::vector<PassResult>& passes) {
  Reduced r;
  std::vector<double> setup, intake_ms, churn_ms;
  std::vector<std::vector<double>> intake_phase_s, slice_wall_s;
  double virtual_s = 0;
  for (const auto& s : passes.front().sim_slices()) virtual_s += s.virtual_s;
  for (const PassResult& p : passes) {
    setup.insert(setup.end(), p.setup_s.begin(), p.setup_s.end());
    intake_ms.insert(intake_ms.end(), p.intake_ms.begin(), p.intake_ms.end());
    churn_ms.insert(churn_ms.end(), p.churn_ms.begin(), p.churn_ms.end());
    intake_phase_s.push_back(p.intake_phase_s);
    slice_wall_s.emplace_back();
    for (const auto& s : p.sim_slices()) slice_wall_s.back().push_back(s.wall_s);
  }
  r.setup_n = setup.size();
  r.intake_n = intake_ms.size();
  r.churn_n = churn_ms.size();
  r.slice_n = passes.size() * slice_wall_s.front().size();
  r.intake_tail = e2e::tail(intake_ms, passes.front().intake_ms.size());
  r.churn_tail = e2e::tail(churn_ms, passes.front().churn_ms.size());
  const double sim_wall_s = sum_of_position_medians(slice_wall_s);
  auto& m = r.metrics;
  m["setup_s"] = e2e::median(setup);
  m["intake_s"] = sum_of_position_medians(intake_phase_s);
  m["intake_p50_ms"] = e2e::central_median(intake_ms);
  m["intake_p95_ms"] = r.intake_tail.value;
  m["churn_p50_ms"] = e2e::central_median(churn_ms);
  m["churn_p95_ms"] = r.churn_tail.value;
  // Simulated over wall seconds of one pass's monitored slices, each slice
  // at its median over passes. A ratio of sums: leaf_density's slices at
  // N=100 and N=200 form two clusters, and a median would sit in the gap
  // between them.
  m["sim_speed"] = sim_wall_s > 0 ? virtual_s / sim_wall_s : 0;
  return r;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <usecase_mix|leaf_density|fabric_churn> "
               "--seed N --seconds S --trace 0|1 [--quick] [--out DIR] "
               "[--describe TEXT]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", a.c_str());
        std::exit(usage(argv[0]));
      }
      return argv[++i];
    };
    try {
      if (a == "--workload") o.workload = value();
      else if (a == "--seed") o.seed = std::stoull(value());
      else if (a == "--seconds") o.seconds = std::stod(value());
      else if (a == "--trace") o.trace = std::stoi(value()) != 0;
      else if (a == "--quick") o.quick = true;
      else if (a == "--out") o.out_dir = value();
      else if (a == "--describe") o.describe = value();
      else return usage(argv[0]);
    } catch (const std::exception&) {
      std::fprintf(stderr, "bad value for %s\n", a.c_str());
      return usage(argv[0]);
    }
  }
  const e2e::PassFn pass = e2e::find_workload(o.workload);
  if (!pass) return usage(argv[0]);

  const char* threads_env = std::getenv("FARM_THREADS");
  std::ostringstream meta;
  meta << "{\"workload\":\"" << json_escape(o.workload) << "\",\"seed\":" << o.seed
       << ",\"seconds\":" << num(o.seconds) << ",\"trace\":" << (o.trace ? 1 : 0)
       << ",\"quick\":" << (o.quick ? "true" : "false")
       << ",\"nproc\":" << available_cpus()
       << ",\"farm_threads\":\"" << json_escape(threads_env ? threads_env : "unset")
       << "\",\"pool_threads\":" << farm::util::ThreadPool::default_threads()
       << ",\"build_type\":\"" << FARM_E2E_BUILD_TYPE << "\",\"compiler\":\""
       << json_escape(FARM_E2E_COMPILER) << "\",\"git_describe\":\""
       << json_escape(o.describe) << "\"}";
  std::printf("meta %s\n", meta.str().c_str());
  std::fflush(stdout);

  e2e::Tracer tracer;
  tracer.set_enabled(o.trace);
  std::vector<PassResult> passes;
  const double start = e2e::wall_s();
  // Passes repeat until the next one would overrun the budget. Every pass
  // must reproduce the virtual-time digest of the first, and the first must
  // match the digest an earlier run of this build with this seed left in
  // --out (the file name carries the binary's mtime, so a rebuild starts
  // afresh).
  struct stat exe{};
  stat("/proc/self/exe", &exe);
  const std::string digest_file =
      o.out_dir + "/digest-" + o.workload + "-seed" + std::to_string(o.seed) +
      (o.quick ? "-quick" : "") + "-build" +
      std::to_string(static_cast<long long>(exe.st_mtime));
  while (true) {
    const double t0 = e2e::wall_s();
    passes.push_back(pass(o, tracer));
    PassResult& p = passes.back();
    if (passes.size() > 1) {
      p.check(p.digest == passes.front().digest,
              "virtual-time digest differs from the first pass");
    } else if (std::ifstream in(digest_file); in) {
      std::string earlier;
      in >> earlier;
      p.check(earlier == hex(p.digest),
              "virtual-time digest differs from an earlier run's " + earlier);
    } else {
      std::ofstream(digest_file) << hex(p.digest) << "\n";
    }
    const double now = e2e::wall_s();
    p.layer["host.burst_us"] = e2e::median(p.host.bursts()) * 1e6;
    const double scale = e2e::HostRef::kBurstRefS / e2e::median(p.host.bursts());
    const Reduced pr = reduce({p.scaled()});
    std::printf("pass %zu: %.2f s wall, intake %.3f s, install p50 %.2f ms, "
                "churn p50 %.2f ms, sim speed %.3f, host scale %.3f, "
                "peak RSS %.1f MB, digest %016llx, %llu/%llu checks failed\n",
                passes.size(), now - t0, pr.metrics.at("intake_s"),
                pr.metrics.at("intake_p50_ms"), pr.metrics.at("churn_p50_ms"),
                pr.metrics.at("sim_speed"), scale, peak_rss_mb(),
                static_cast<unsigned long long>(p.digest),
                static_cast<unsigned long long>(p.failed),
                static_cast<unsigned long long>(p.attempted));
    for (const auto& f : p.failures) std::printf("  FAILED: %s\n", f.c_str());
    std::fflush(stdout);
    if (now - start + (now - t0) > o.seconds) break;
  }

  std::uint64_t attempted = 0, failed = 0;
  std::vector<double> scales;
  std::vector<PassResult> scaled;
  for (const auto& p : passes) {
    attempted += p.attempted;
    failed += p.failed;
    scales.push_back(e2e::HostRef::kBurstRefS / e2e::median(p.host.bursts()));
    scaled.push_back(p.scaled());
  }
  // End-to-end times at reference host speed; the raw ones go to the
  // results file.
  Reduced r = reduce(scaled);
  const Reduced raw = reduce(passes);
  r.metrics["peak_rss_mb"] = peak_rss_mb();
  r.metrics["ok_frac"] =
      attempted ? static_cast<double>(attempted - failed) /
                      static_cast<double>(attempted)
                : 0;

  // Per-layer: median over passes, plus this traced run's own end-to-end
  // figures (the tracing overhead is their difference from an untraced run).
  std::map<std::string, double> layer;
  for (const auto& m : kPerLayer) {
    std::vector<double> v;
    for (const auto& p : passes)
      if (auto it = p.layer.find(m.name); it != p.layer.end()) v.push_back(it->second);
    if (!v.empty()) layer[m.name] = e2e::median(v);
  }
  layer["trace.intake_s"] = r.metrics["intake_s"];
  layer["trace.intake_p50_ms"] = r.metrics["intake_p50_ms"];
  layer["trace.churn_p50_ms"] = r.metrics["churn_p50_ms"];
  layer["trace.sim_speed"] = r.metrics["sim_speed"];

  const std::vector<Metric>& names = o.trace ? kPerLayer : kEndToEnd;
  const std::map<std::string, double>& values = o.trace ? layer : r.metrics;
  for (const auto& m : names) {
    auto it = values.find(m.name);
    std::printf("  %-36s %14.6g %s\n", m.name,
                it == values.end() ? 0.0 : it->second, m.unit);
  }
  std::printf("  intake tail: p%.1f over %zu installs; churn tail: p%.1f over "
              "%zu operations; %zu passes, %zu set-ups, %zu sim slices\n",
              r.intake_tail.q * 100, r.intake_tail.n, r.churn_tail.q * 100,
              r.churn_tail.n, passes.size(), r.setup_n, r.slice_n);

  std::ostringstream metrics_json;
  bool first = true;
  for (const auto& m : names) {
    auto it = values.find(m.name);
    if (it == values.end()) continue;
    metrics_json << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
                 << num(it->second) << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }

  // Results file: metadata, every figure, tails with sample counts,
  // failures and (traced) the span table.
  const std::string stem = o.out_dir + "/" + o.workload + "-seed" +
                           std::to_string(o.seed) + "-trace" +
                           (o.trace ? "1" : "0");
  {
    std::ofstream f(stem + ".json");
    f << "{\"meta\":" << meta.str() << ",\"passes\":" << passes.size()
      << ",\"attempted\":" << attempted << ",\"failed\":" << failed
      << ",\"intake_tail\":{\"q\":" << num(r.intake_tail.q)
      << ",\"n\":" << r.intake_tail.n << "},\"churn_tail\":{\"q\":"
      << num(r.churn_tail.q) << ",\"n\":" << r.churn_tail.n
      << "},\"samples\":{\"setup\":" << r.setup_n << ",\"intake\":" << r.intake_n
      << ",\"churn\":" << r.churn_n << ",\"slices\":" << r.slice_n
      << "},\"host_scale\":{\"min\":" << num(e2e::quantile(scales, 0))
      << ",\"median\":" << num(e2e::median(scales))
      << ",\"max\":" << num(e2e::quantile(scales, 1))
      << "},\"metrics\":{" << metrics_json.str() << "},\"raw\":{";
    bool fr = true;
    for (const auto& [name, v] : raw.metrics) {
      f << (fr ? "" : ",") << "\"" << name << "\":" << num(v);
      fr = false;
    }
    f << "},\"failures\":[";
    bool ff = true;
    for (const auto& p : passes)
      for (const auto& fl : p.failures) {
        f << (ff ? "" : ",") << "\"" << json_escape(fl) << "\"";
        ff = false;
      }
    f << "],\"spans\":{";
    bool fs = true;
    for (const auto& [name, st] : tracer.by_name()) {
      f << (fs ? "" : ",") << "\"" << json_escape(name) << "\":{\"count\":"
        << st.count << ",\"total_ms\":" << num(st.total_ms)
        << ",\"self_ms\":" << num(st.self_ms) << "}";
      fs = false;
    }
    f << "}}\n";
  }
  if (o.trace) {
    std::ofstream f(stem + ".trace.json");
    tracer.write_chrome_trace(
        f, farm::telemetry::prof::Profiler::instance().snapshot(), meta.str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics_json.str().c_str());
  return 0;
}
