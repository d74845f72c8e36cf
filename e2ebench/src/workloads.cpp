#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>
#include <unordered_set>

#include "farm/harvesters.h"
#include "farm/system.h"
#include "farm/usecases.h"
#include "layers.h"
#include "net/traffic.h"

namespace e2e {

namespace {

using farm::almanac::Value;
using farm::core::FarmSystem;
using farm::core::FarmSystemConfig;
using farm::core::TaskSpec;
using farm::sim::Duration;
using farm::sim::TimePoint;
namespace net = farm::net;

// Lowest fleet polling accuracy (share of polls delivered within one
// interval) a pass may show. Virtual-time outcome: the CPU-heavy use-case
// mix gives about 0.84 at the current code, the other workloads about 1.
constexpr double kPollingAccuracyFloor = 0.7;

// Set-up samples per pass: the system is built this many times and the last
// build is kept, so setup_s is a median of several constructions.
constexpr int kSetupReps = 25;

// Host-reference bursts (HostRef) after each timed operation, set-up and
// sim slice: about 1 ms, a tenth of the cheapest operation.
constexpr int kBurstsPerGap = 4;

struct ReportLog {
  struct Entry {
    std::string task;
    std::string seed;
    net::NodeId sw = 0;
    std::int64_t t_ns = 0;
    std::string payload;
  };
  std::vector<Entry> entries;

  bool has(const std::string& task, const std::string& payload) const {
    return std::any_of(entries.begin(), entries.end(), [&](const Entry& e) {
      return e.task == task && e.payload == payload;
    });
  }
};

// Records every report (with its virtual timestamp and sending switch)
// before handing it to the program's own harvester logic.
template <class Base>
class Logged : public Base {
 public:
  Logged(farm::sim::Engine& engine, const std::string& task, ReportLog& log)
      : Base(engine, task), log_(log) {}
  void on_seed_message(const farm::runtime::SeedId& from, net::NodeId sw,
                       const Value& payload) override {
    log_.entries.push_back({this->task(), from.to_string(), sw,
                            this->engine().now().count_ns(),
                            payload.is_string() ? payload.as_string()
                                                : payload.to_string()});
    Base::on_seed_message(from, sw, payload);
  }

 private:
  ReportLog& log_;
};

struct Scenario {
  std::unique_ptr<FarmSystem> farm;
  ReportLog log;
  std::vector<std::unique_ptr<farm::runtime::Harvester>> harvesters;
  std::vector<TaskSpec> tasks;  // install order
  std::vector<net::FlowSpec> flows;
  std::size_t seeds_per_task = 0;

  template <class H>
  void attach(const std::string& task) {
    auto h = std::make_unique<Logged<H>>(farm->engine(), task, log);
    farm->bus().attach_harvester(task, *h);
    harvesters.push_back(std::move(h));
  }
};

// Builds the scenario kSetupReps times, timing each build; keeps the last.
template <class Build>
std::unique_ptr<Scenario> timed_setup(PassResult& out, Tracer& tracer,
                                      Build build) {
  std::unique_ptr<Scenario> s;
  for (int i = 0; i < kSetupReps; ++i) {
    s.reset();
    out.host.burst(kBurstsPerGap);
    ScopedSpan span(tracer, "setup");
    const double t0 = wall_s();
    s = std::make_unique<Scenario>();
    build(*s);
    out.add_setup(wall_s() - t0);
  }
  return s;
}

// One closed-loop install; returns its latency in ms and checks that the
// task deployed every expected seed.
double install(Scenario& s, const TaskSpec& spec, PassResult& out,
               LayerProbe& probe, Tracer& tracer, const char* op) {
  ScopedSpan span(tracer, op);
  probe.begin_op();
  std::size_t deployed = 0;
  bool threw = false;
  double t0 = 0, t1 = 0;
  {
    ScopedSpan call(tracer, "install_task");
    t0 = wall_s();
    try {
      deployed = s.farm->install_task(spec).size();
    } catch (const std::exception& e) {
      threw = true;
      std::fprintf(stderr, "install_task(%s) threw: %s\n", spec.name.c_str(),
                   e.what());
    }
    t1 = wall_s();
  }
  out.check(!threw && deployed == s.seeds_per_task,
            "task " + spec.name + " deployed " + std::to_string(deployed) +
                " of " + std::to_string(s.seeds_per_task) + " seeds");
  probe.end_op(&spec);
  out.host.burst(kBurstsPerGap);
  return (t1 - t0) * 1e3;
}

double remove(Scenario& s, const std::string& name, PassResult& out,
              LayerProbe& probe, Tracer& tracer) {
  ScopedSpan span(tracer, "churn/remove");
  probe.begin_op();
  bool threw = false;
  double t0 = 0, t1 = 0;
  {
    ScopedSpan call(tracer, "remove_task");
    t0 = wall_s();
    try {
      s.farm->seeder().remove_task(name);
    } catch (const std::exception& e) {
      threw = true;
      std::fprintf(stderr, "remove_task(%s) threw: %s\n", name.c_str(),
                   e.what());
    }
    t1 = wall_s();
  }
  out.check(!threw && s.farm->seeder().seeds_of_task(name).empty(),
            "task " + name + " still has seeds after remove_task");
  probe.end_op(nullptr);
  out.host.burst(kBurstsPerGap);
  return (t1 - t0) * 1e3;
}

// Runs `seconds` of virtual time in slices of `slice_s`, recording each.
void monitor(Scenario& s, PassResult& out, Tracer& tracer, double seconds,
             double slice_s, int span_index) {
  ScopedSpan span(tracer, "monitor");
  const int n = std::max(1, static_cast<int>(seconds / slice_s + 0.5));
  for (int i = 0; i < n; ++i) {
    ScopedSpan slice(tracer, "sim/slice");
    auto& engine = s.farm->engine();
    const std::uint64_t ev0 = engine.executed_events();
    const double t0 = wall_s();
    s.farm->run_for(Duration::from_seconds(slice_s));
    out.add_slice({slice_s, wall_s() - t0, engine.executed_events() - ev0,
                   span_index});
    out.host.burst(kBurstsPerGap);
  }
}

// Closed loop of `events` departures and re-arrivals, with `gap` of virtual
// time after each pair (recorded as span -1). Tasks churn in rounds, each a
// seeded permutation of all tasks, so every task churns about equally often
// and the cost mix does not depend on the seed.
void churn(Scenario& s, PassResult& out, LayerProbe& probe, Tracer& tracer,
           farm::util::Rng& rng, int events, Duration gap) {
  ScopedSpan span(tracer, "churn");
  std::vector<std::size_t> order;
  for (int i = 0; i < events; ++i) {
    if (order.empty()) {
      for (std::size_t k = s.tasks.size(); k-- > 0;) order.push_back(k);
      for (std::size_t k = order.size(); k > 1; --k)
        std::swap(order[k - 1], order[static_cast<std::size_t>(rng.next_below(k))]);
    }
    const TaskSpec& spec = s.tasks[order.back()];
    order.pop_back();
    out.add_churn(remove(s, spec.name, out, probe, tracer));
    const double ms = install(s, spec, out, probe, tracer, "churn/reinstall");
    out.add_churn(ms);
    out.add_install(ms);
    const std::uint64_t ev0 = s.farm->engine().executed_events();
    const double t0 = wall_s();
    s.farm->run_for(gap);
    out.add_slice({gap.seconds(), wall_s() - t0,
                   s.farm->engine().executed_events() - ev0, -1});
  }
}

// Digest of the pass's virtual-time outputs: placement per seed, harvester
// reports with virtual timestamps, per-soil poll counts.
std::uint64_t digest(Scenario& s) {
  Fnv h;
  auto placements = s.farm->seeder().last_placement().placements;
  std::sort(placements.begin(), placements.end(),
            [](const auto& a, const auto& b) { return a.seed < b.seed; });
  char buf[256];
  for (const auto& e : placements) {
    std::snprintf(buf, sizeof buf, "%d|%d|%a|%a|%a|%a|%a", e.node, e.variant,
                  e.alloc.vCPU, e.alloc.RAM, e.alloc.TCAM, e.alloc.PCIe,
                  e.utility);
    h.add(e.seed);
    h.add(buf);
  }
  for (const auto& r : s.log.entries) {
    h.add(r.task + "|" + r.seed + "|" + std::to_string(r.sw) + "|" +
          std::to_string(r.t_ns) + "|" + r.payload);
  }
  for (auto* soil : s.farm->soils()) {
    h.add(std::to_string(soil->node()) + "|" +
          std::to_string(soil->poll_requests_issued()) + "|" +
          std::to_string(soil->poll_deliveries()));
  }
  return h.value();
}

void common_checks(Scenario& s, PassResult& out) {
  std::uint64_t deliveries = 0;
  for (auto* soil : s.farm->soils()) deliveries += soil->poll_deliveries();
  out.check(deliveries > 0, "soils delivered no polls");
  const double acc = fleet_polling_accuracy(*s.farm);
  char buf[96];
  std::snprintf(buf, sizeof buf, "polling accuracy %.4f below floor %.2f", acc,
                kPollingAccuracyFloor);
  out.check(acc >= kPollingAccuracyFloor, buf);
}

// Ends a pass: digest first (the probe's report adds an alert evaluation),
// then the traced per-layer figures.
void finish_pass(Scenario& s, PassResult& out, LayerProbe& probe) {
  common_checks(s, out);
  out.digest = digest(s);
  probe.finish(out, s.flows, s.tasks, s.log.entries.size());
}

// --- Use-case mix -----------------------------------------------------------

// Attack thresholds as tuned in tests/usecase_test.cpp and farm_test.cpp; HH
// reactions only count, so they do not mask the other detectors' traffic.
std::unordered_map<std::string, Value> tuned_externals(
    const farm::core::UseCase& uc) {
  auto ext = uc.default_externals;
  auto set = [&ext](const char* k, std::int64_t v) { ext[k] = Value(v); };
  const std::string& n = uc.name;
  if (n == "Heavy hitter (HH)" || n == "Hier. HH" ||
      n == "Hier. HH (inherited)") {
    set("threshold", 100'000);
    ext["hitterAction"] =
        Value(farm::almanac::ActionValue{farm::asic::RuleAction::kCount, 0});
  } else if (n == "TCP SYN flood") {
    set("synThreshold", 50);
  } else if (n == "Superspreader") {
    set("fanoutThreshold", 12);
  } else if (n == "Slowloris") {
    set("connThreshold", 10);
  } else if (n == "DNS reflection") {
    set("burstThreshold", 8);
  } else if (n == "Entropy estim.") {
    set("sampleTarget", 100);
  } else if (n == "FloodDefender") {
    set("newFlowThreshold", 60);
    set("talkerThreshold", 20);
    set("protectMs", 1000);
  } else if (n == "New TCP conn.") {
    set("reportEvery", 20);
  } else if (n == "SSH brute force") {
    set("attemptThreshold", 5);
  } else if (n == "Port scan") {
    set("portThreshold", 10);
  } else if (n == "Traffic change") {
    set("factor", 2);
  }
  return ext;
}

FarmSystemConfig fabric_config(bool quick) {
  FarmSystemConfig cfg;
  if (quick) cfg.topology = {.spines = 2, .leaves = 4, .hosts_per_leaf = 4};
  // All 17 use cases side by side, as in
  // EndToEndTest.AllUseCasesDeployTogether.
  cfg.switch_config.cpu_cores = 8;
  return cfg;
}

// Task specs for `copies` copies of every Table I use case.
std::vector<TaskSpec> use_case_tasks(int copies) {
  std::vector<TaskSpec> out;
  const auto& ucs = farm::core::all_use_cases();
  for (int c = 0; c < copies; ++c)
    for (std::size_t i = 0; i < ucs.size(); ++i)
      out.push_back({"uc" + std::to_string(i) + "c" + std::to_string(c),
                     ucs[i].source, ucs[i].machines, tuned_externals(ucs[i])});
  return out;
}

void attach_use_case_harvesters(Scenario& s) {
  const auto& ucs = farm::core::all_use_cases();
  for (std::size_t i = 0; i < s.tasks.size(); ++i) {
    if (ucs[i % ucs.size()].name == "Heavy hitter (HH)")
      s.attach<farm::core::HhHarvester>(s.tasks[i].name);
    else
      s.attach<farm::core::CollectingHarvester>(s.tasks[i].name);
  }
}

std::string task_of(const std::string& use_case) {
  const auto& ucs = farm::core::all_use_cases();
  for (std::size_t i = 0; i < ucs.size(); ++i)
    if (ucs[i].name == use_case) return "uc" + std::to_string(i) + "c0";
  return "";
}

PassResult pass_usecase_mix(const Options& o, Tracer& tracer) {
  PassResult out;
  const double monitored_s = o.quick ? 1.0 : 3.0;
  const double slice_s = 0.25;
  net::Ipv4 victim, spreader, scanner;
  std::set<net::NodeId> hh_switches;
  std::size_t hh_flows = 0;

  auto s = timed_setup(out, tracer, [&](Scenario& sc) {
    sc.farm = std::make_unique<FarmSystem>(fabric_config(o.quick));
    sc.tasks = use_case_tasks(1);
    sc.seeds_per_task = sc.farm->topology().switches().size();
    attach_use_case_harvesters(sc);

    const auto& topo = sc.farm->topology();
    farm::util::Rng rng(farm::util::derive_seed(o.seed, 1));
    // The four attack endpoints sit on four different leaves, so the seed
    // moves them around without changing how the attacks share switches.
    std::vector<std::size_t> leaves(sc.farm->fabric().hosts_by_leaf.size());
    for (std::size_t i = 0; i < leaves.size(); ++i) leaves[i] = i;
    auto pick = [&]() {
      const auto i = static_cast<std::size_t>(rng.next_below(leaves.size()));
      const auto& on_leaf = sc.farm->fabric().hosts_by_leaf[leaves[i]];
      leaves.erase(leaves.begin() + static_cast<std::ptrdiff_t>(i));
      return *topo.node(on_leaf[rng.next_below(on_leaf.size())]).address;
    };
    victim = pick();
    spreader = pick();
    scanner = pick();
    const net::Ipv4 scan_target = pick();
    const Duration T = Duration::from_seconds(monitored_s);
    const TimePoint t0 = TimePoint::origin();

    // At least three elephants on the reduced fabric too (5% of 16 hosts
    // would draw one pair, which may be a host with itself).
    auto hh = net::heavy_hitter_workload(topo, rng, o.quick ? 0.2 : 0.05,
                                         500e6, Duration::sec(30), T);
    hh_switches.clear();
    hh_flows = hh.size();
    for (const auto& f : hh.entries()) {
      auto a = topo.host_by_address(f.spec.key.src_ip);
      auto b = topo.host_by_address(f.spec.key.dst_ip);
      if (a && b)
        for (auto n : topo.shortest_path(*a, *b)) hh_switches.insert(n);
    }
    net::FlowSchedule sched = net::background_traffic(
        topo, rng, o.quick ? 30 : 120, 2e6, T);
    sched.append(hh);
    sched.append(net::syn_flood(topo, rng, victim, 443, 30, 5e6,
                                t0 + Duration::ms(200), T - Duration::ms(200)));
    sched.append(net::superspreader(topo, rng, spreader, 60, 2e5, t0, T));
    sched.append(net::port_scan(scanner, scan_target, 1000, 200, 1e5, t0, T));
    for (const auto& f : sched.entries()) sc.flows.push_back(f.spec);
    sc.farm->load_traffic(std::move(sched));
  });

  LayerProbe probe(*s->farm, tracer, o.trace, 1);
  {
    ScopedSpan span(tracer, "intake");
    for (const auto& spec : s->tasks) {
      const double ms = install(*s, spec, out, probe, tracer, "intake/install");
      out.add_install(ms);
      out.add_intake(ms / 1e3);
    }
  }
  monitor(*s, out, tracer, monitored_s, slice_s, 0);

  // Every detector the traffic targets reported, naming the injected
  // attacker or victim.
  out.check(s->log.has(task_of("TCP SYN flood"), victim.to_string()),
            "SYN flood victim " + victim.to_string() + " not reported");
  out.check(s->log.has(task_of("Superspreader"), spreader.to_string()),
            "superspreader " + spreader.to_string() + " not reported");
  out.check(s->log.has(task_of("Port scan"), scanner.to_string()),
            "port scanner " + scanner.to_string() + " not reported");
  const std::string hh_task = task_of("Heavy hitter (HH)");
  out.check(std::any_of(s->log.entries.begin(), s->log.entries.end(),
                        [&](const ReportLog::Entry& e) {
                          return e.task == hh_task && hh_switches.count(e.sw);
                        }),
            "no heavy-hitter report from a switch on the path of any of " +
                std::to_string(hh_flows) + " elephant flows");

  farm::util::Rng rng(farm::util::derive_seed(o.seed, 2));
  churn(*s, out, probe, tracer, rng, o.quick ? 5 : 102, Duration::ms(10));
  finish_pass(*s, out, probe);
  return out;
}

// --- Leaf density -------------------------------------------------------------

// The fig5 machine: one seed per switch polling the counter of one /32.
constexpr const char* kFlowMon = R"ALM(
machine FlowMon {
  place all;
  external string watched = "10.0.1.1";
  poll flowStats = Poll { .ival = 0.01, .what = dstIP watched };
  long last = 0;
  state watch {
    util (res) { if (res.vCPU >= 0.01) then { return res.vCPU; } }
    when (flowStats as s) do {
      long total = 0;
      long i = 0;
      while (i < stats_size(s)) { total = total + stats_bytes(s, i); i = i + 1; }
      if (total - last > 1000000) then { send total to harvester; }
      last = total;
    }
  }
}
)ALM";

PassResult pass_leaf_density(const Options& o, Tracer& tracer) {
  PassResult out;
  const int n = o.quick ? 20 : 200;
  const double span_s = o.quick ? 0.25 : 1.0;
  const double slice_s = o.quick ? 0.125 : 0.25;

  auto s = timed_setup(out, tracer, [&](Scenario& sc) {
    FarmSystemConfig cfg;
    cfg.topology = {.spines = 1, .leaves = 1, .hosts_per_leaf = 2};
    cfg.switch_config.tcam_capacity = 4096 + n;
    cfg.switch_config.tcam_monitoring_reserved = 2048 + n;
    sc.farm = std::make_unique<FarmSystem>(cfg);
    sc.seeds_per_task = sc.farm->topology().switches().size();
    farm::util::Rng rng(farm::util::derive_seed(o.seed, 1));
    std::unordered_set<std::string> used;
    while (static_cast<int>(sc.tasks.size()) < n) {
      const std::string addr =
          "10." + std::to_string(rng.next_int(50, 249)) + "." +
          std::to_string(rng.next_int(0, 249)) + "." +
          std::to_string(rng.next_int(1, 250));
      if (!used.insert(addr).second) continue;
      const std::string name = "fm" + std::to_string(sc.tasks.size());
      sc.tasks.push_back({name, kFlowMon, {"FlowMon"}, {{"watched", Value(addr)}}});
      sc.attach<farm::core::CollectingHarvester>(name);
    }
  });

  LayerProbe probe(*s->farm, tracer, o.trace, o.quick ? 2 : 10);
  for (int half = 0; half < 2; ++half) {
    {
      ScopedSpan span(tracer, "intake");
      for (int i = half * n / 2; i < (half + 1) * n / 2; ++i) {
        const double ms = install(*s, s->tasks[static_cast<std::size_t>(i)],
                                  out, probe, tracer, "intake/install");
        out.add_install(ms);
        out.add_intake(ms / 1e3);
      }
    }
    monitor(*s, out, tracer, span_s, slice_s, half);
  }
  farm::util::Rng rng(farm::util::derive_seed(o.seed, 2));
  churn(*s, out, probe, tracer, rng, o.quick ? 4 : 20, Duration::ms(10));
  finish_pass(*s, out, probe);
  return out;
}

// --- Fabric churn -------------------------------------------------------------

PassResult pass_fabric_churn(const Options& o, Tracer& tracer) {
  PassResult out;
  const int copies = o.quick ? 1 : 3;
  auto s = timed_setup(out, tracer, [&](Scenario& sc) {
    sc.farm = std::make_unique<FarmSystem>(fabric_config(o.quick));
    sc.tasks = use_case_tasks(copies);
    sc.seeds_per_task = sc.farm->topology().switches().size();
    attach_use_case_harvesters(sc);
  });

  LayerProbe probe(*s->farm, tracer, o.trace, o.quick ? 2 : 10);
  {
    ScopedSpan span(tracer, "intake");
    for (const auto& spec : s->tasks) {
      const double ms = install(*s, spec, out, probe, tracer, "intake/install");
      out.add_install(ms);
      out.add_intake(ms / 1e3);
    }
  }
  farm::util::Rng rng(farm::util::derive_seed(o.seed, 2));
  churn(*s, out, probe, tracer, rng, o.quick ? 10 : 100, Duration::ms(10));
  finish_pass(*s, out, probe);
  return out;
}

}  // namespace

PassFn find_workload(const std::string& name) {
  if (name == "usecase_mix") return pass_usecase_mix;
  if (name == "leaf_density") return pass_leaf_density;
  if (name == "fabric_churn") return pass_fabric_churn;
  return nullptr;
}

}  // namespace e2e
