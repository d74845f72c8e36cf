#include "layers.h"

#include <algorithm>
#include <memory>
#include <sstream>

#include "almanac/analysis.h"
#include "almanac/interp.h"
#include "almanac/parser.h"
#include "almanac/verify/verify.h"
#include "placement/heuristic.h"
#include "runtime/machine_image.h"
#include "sim/cost_model.h"

namespace e2e {

namespace {

using farm::core::FarmSystem;
using farm::core::TaskSpec;
namespace almanac = farm::almanac;
namespace prof = farm::telemetry::prof;

class Stopwatch {
 public:
  double us() const { return (wall_s() - t0_) * 1e6; }

 private:
  double t0_ = wall_s();
};

std::uint64_t delta(const prof::Snapshot& a, const prof::Snapshot& b,
                    const char* name) {
  return b.counter(name) - a.counter(name);
}

// Inclusive wall time of a Furrow path such as {"scarecrow", "evaluate"}.
std::uint64_t furrow_total_ns(const prof::Snapshot& s,
                              std::initializer_list<const char*> path) {
  const prof::ProfNode* node = &s.root;
  for (const char* seg : path) {
    auto it = std::find_if(node->children.begin(), node->children.end(),
                           [seg](const prof::ProfNode& c) { return c.name == seg; });
    if (it == node->children.end()) return 0;
    node = &*it;
  }
  return node->total_ns;
}

// The machine environment the seeder's elaboration evaluates statically:
// externals override initializers; triggers and uninitialized variables get
// defaults.
almanac::Env machine_env(const almanac::CompiledMachine& cm,
                         const TaskSpec& spec) {
  almanac::Env env;
  almanac::Interpreter interp(cm, nullptr);
  for (const auto* v : cm.vars) {
    auto it = spec.externals.find(v->name);
    if (v->external && it != spec.externals.end()) {
      env.define(v->name, it->second);
    } else if (v->init && !v->trigger) {
      try {
        env.define(v->name, interp.eval(*v->init, env));
      } catch (const almanac::EvalError&) {
        env.define(v->name, almanac::Interpreter::default_value(v->type));
      }
    } else if (!v->trigger) {
      env.define(v->name, almanac::Interpreter::default_value(v->type));
    }
  }
  return env;
}

std::vector<std::string> machines_of(const TaskSpec& spec,
                                     const almanac::Program& program) {
  std::vector<std::string> out = spec.machines;
  if (out.empty())
    for (const auto& m : program.machines) out.push_back(m.name);
  return out;
}

// Counter values a soil would deliver for `what` on `chassis` (the soil's
// own resolution is private; this reads the same public counters).
farm::almanac::StatsValue stats_from(farm::asic::SwitchChassis& chassis,
                                     const farm::net::Filter& what) {
  farm::almanac::StatsValue sv;
  auto add_port = [&](int i) {
    const auto& p = chassis.port_stats(i);
    sv.entries->push_back({"port:" + std::to_string(i), i,
                           farm::asic::kInvalidRule, p.tx_packets, p.tx_bytes});
  };
  const int fp = what.iface_footprint();
  if (fp == farm::net::Filter::kAllIfaces) {
    for (int i = 0; i < chassis.n_ifaces(); ++i) add_port(i);
  } else if (fp > 0) {
    for (std::int32_t i : what.iface_atoms())
      if (i >= 0 && i < chassis.n_ifaces()) add_port(i);
  } else if (const auto* rule = chassis.tcam().find(
                 what, farm::asic::TcamRegion::kMonitoring)) {
    sv.entries->push_back({what.canonical_key(), -1, rule->id,
                           rule->hit_packets, rule->hit_bytes});
  }
  return sv;
}

volatile std::size_t g_sink = 0;

}  // namespace

double fleet_polling_accuracy(FarmSystem& farm) {
  double on_time = 0, deliveries = 0;
  for (auto* soil : farm.soils()) {
    const auto d = static_cast<double>(soil->poll_deliveries());
    on_time += soil->polling_accuracy() * d;
    deliveries += d;
  }
  return deliveries > 0 ? on_time / deliveries : 1.0;
}

LayerProbe::LayerProbe(FarmSystem& farm, Tracer& tracer, bool active,
                       int replay_every)
    : farm_(farm),
      tracer_(tracer),
      active_(active),
      replay_every_(std::max(1, replay_every)),
      placer_([] {
        farm::placement::IncrementalOptions io;
        io.max_delta_fraction = farm::core::SeederOptions{}.max_delta_fraction;
        return io;
      }()) {
  if (active_) pass_start_ = prof::Profiler::instance().snapshot();
}

void LayerProbe::begin_op() {
  if (!active_) return;
  op_start_ = prof::Profiler::instance().snapshot();
}

void LayerProbe::end_op(const TaskSpec* spec) {
  if (!active_) return;
  const prof::Snapshot now = prof::Profiler::instance().snapshot();
  pivots_ += delta(op_start_, now, "lp.simplex.pivots");
  memo_hits_ += delta(op_start_, now, "placement.memo.hits");
  memo_misses_ += delta(op_start_, now, "placement.memo.misses");
  pool_tasks_ += delta(op_start_, now, "pool.tasks");
  pool_inline_ += delta(op_start_, now, "pool.tasks_inline");
  {
    ScopedSpan span(tracer_, "replay/incremental");
    placer_.resolve(farm_.seeder().build_problem());
    const auto& inc = placer_.last_stats();
    dirty_switches_ += static_cast<double>(inc.dirty_switches);
    if (inc.fallback_reason == "cold") ++fallbacks_cold_;
    if (inc.fallback_reason == "delta_fraction") ++fallbacks_delta_;
    if (inc.fallback_reason == "validation") ++fallbacks_validation_;
  }
  if (ops_++ % replay_every_ != 0) return;
  if (spec) replay_almanac(*spec);
  replay_solve();
}

void LayerProbe::replay_almanac(const TaskSpec& spec) {
  ++replays_;
  almanac::Program program;
  {
    ScopedSpan span(tracer_, "replay/parse");
    Stopwatch sw;
    program = almanac::parse_program(spec.source);
    parse_us_ += sw.us();
  }
  const std::vector<std::string> names = machines_of(spec, program);
  std::vector<almanac::CompiledMachine> machines;
  {
    ScopedSpan span(tracer_, "replay/compile");
    Stopwatch sw;
    for (const auto& m : names)
      machines.push_back(almanac::compile_machine(program, m));
    compile_us_ += sw.us();
  }
  {
    // The seeder's Sickle + Winnow intake options (Seeder::lint_intake).
    ScopedSpan span(tracer_, "replay/lint");
    almanac::verify::VerifyOptions vopts;
    vopts.controller = &farm_.controller();
    vopts.externals = spec.externals;
    vopts.pcie_budget_mbps = farm::sim::cost::kPciePollBandwidthBps / 1e6;
    bool first = true;
    for (auto* soil : farm_.soils()) {
      const auto& sc = soil->chassis().config();
      vopts.tcam_monitoring_capacity =
          first ? sc.tcam_monitoring_reserved
                : std::min(vopts.tcam_monitoring_capacity,
                           sc.tcam_monitoring_reserved);
      vopts.max_ifaces = std::max(vopts.max_ifaces, sc.n_ifaces);
      first = false;
    }
    Stopwatch sw;
    auto diags = almanac::verify::verify_program(program, spec.machines, vopts);
    lint_us_ += sw.us();
    g_sink = g_sink + diags.size();
  }
  {
    ScopedSpan span(tracer_, "replay/analysis");
    Stopwatch sw;
    const almanac::ResourcesValue reference{1, 128, 32, 1};
    for (const auto& cm : machines) {
      almanac::Env env = machine_env(cm, spec);
      auto places = almanac::resolve_places(cm, env, farm_.controller());
      const almanac::CompiledState* init = cm.state(cm.initial_state);
      auto ua = init && init->util ? almanac::analyze_utility(*init->util)
                                   : almanac::default_utility();
      auto polls = almanac::analyze_polls(cm, env, reference);
      g_sink = g_sink + places.size() + ua.variants.size() + polls.size();
    }
    analysis_us_ += sw.us();
  }
}

void LayerProbe::replay_solve() {
  ScopedSpan span(tracer_, "replay/solve");
  ++solves_;
  const auto problem = farm_.seeder().build_problem();
  Stopwatch sw;
  auto result = farm::placement::solve_heuristic(problem);
  solve_ms_ += sw.us() / 1e3;
  g_sink = g_sink + result.placements.size();
}

void LayerProbe::time_data_plane(PassResult& out,
                                 const std::vector<farm::net::FlowSpec>& flows) {
  std::vector<farm::asic::SwitchChassis*> chassis;
  for (auto sw : farm_.topology().switches()) chassis.push_back(&farm_.chassis(sw));

  std::vector<const farm::net::Filter*> monitoring, all_patterns;
  for (auto* c : chassis)
    for (const auto& r : c->tcam().rules()) {
      all_patterns.push_back(&r.pattern);
      if (r.region == farm::asic::TcamRegion::kMonitoring)
        monitoring.push_back(&r.pattern);
    }

  // Repeat each sweep until it covers ~20k calls so the per-call figure is
  // not dominated by the clock read.
  auto reps_for = [](std::size_t calls) {
    return calls == 0 ? 0 : std::max<std::size_t>(1, 20000 / calls);
  };

  {
    ScopedSpan span(tracer_, "layer/tcam_find");
    std::size_t calls = 0;
    Stopwatch sw;
    for (std::size_t rep = 0, n = reps_for(monitoring.size()); rep < n; ++rep)
      for (auto* c : chassis)
        for (const auto& r : c->tcam().rules()) {
          if (r.region != farm::asic::TcamRegion::kMonitoring) continue;
          g_sink = g_sink + (c->tcam().find(r.pattern,
                                            farm::asic::TcamRegion::kMonitoring)
                                 ? 1
                                 : 0);
          ++calls;
        }
    out.layer["asic.tcam_find_ns"] =
        calls ? sw.us() * 1e3 / static_cast<double>(calls) : 0;
  }
  {
    ScopedSpan span(tracer_, "layer/canonical_key");
    std::size_t calls = 0;
    Stopwatch sw;
    for (std::size_t rep = 0, n = reps_for(all_patterns.size()); rep < n; ++rep)
      for (const auto* p : all_patterns) {
        g_sink = g_sink + p->canonical_key().size();
        ++calls;
      }
    out.layer["net.canonical_key_ns"] =
        calls ? sw.us() * 1e3 / static_cast<double>(calls) : 0;
  }
  {
    // Headers of the loaded flows; a workload without traffic gets one
    // header per host pair (up to 64) so the lookup is still exercised.
    std::vector<farm::net::PacketHeader> headers;
    for (const auto& f : flows)
      headers.push_back({f.key.src_ip, f.key.dst_ip, f.key.src_port,
                         f.key.dst_port, f.key.proto, f.flags, f.packet_bytes});
    if (headers.empty()) {
      auto hosts = farm_.topology().hosts();
      for (auto a : hosts)
        for (auto b : hosts)
          if (a != b && headers.size() < 64)
            headers.push_back({*farm_.topology().node(a).address,
                               *farm_.topology().node(b).address, 40000, 80,
                               farm::net::Proto::kTcp, {}, 1000});
    }
    ScopedSpan span(tracer_, "layer/tcam_match");
    std::size_t calls = 0;
    Stopwatch sw;
    for (std::size_t rep = 0, n = reps_for(headers.size() * chassis.size());
         rep < n; ++rep)
      for (auto* c : chassis)
        for (const auto& h : headers) {
          g_sink = g_sink + c->tcam().matching(h).size();
          ++calls;
        }
    out.layer["asic.tcam_match_ns"] =
        calls ? sw.us() * 1e3 / static_cast<double>(calls) : 0;
  }
}

void LayerProbe::time_on_poll(PassResult& out,
                              const std::vector<TaskSpec>& tasks) {
  ScopedSpan span(tracer_, "layer/seed_on_poll");
  // A benchmark-owned switch and soil; the seeds on it get stats recorded
  // from the live fabric's counters, one snapshot per live switch.
  farm::sim::Engine engine;
  farm::asic::SwitchChassis chassis(engine, 0, "e2e-probe",
                                    farm::asic::SwitchConfig{}, 1);
  farm::runtime::Soil soil(engine, chassis, farm::runtime::SoilConfig{});
  std::vector<farm::asic::SwitchChassis*> live;
  for (auto sw : farm_.topology().switches())
    if (live.size() < 8) live.push_back(&farm_.chassis(sw));

  const almanac::ResourcesValue reference{1, 128, 32, 1};
  std::vector<std::string> seen;
  double total_us = 0;
  std::size_t calls = 0;
  int index = 0;
  for (const auto& spec : tasks) {
    auto program = std::make_shared<const almanac::Program>(
        almanac::parse_program(spec.source));
    for (const auto& m : machines_of(spec, *program)) {
      if (std::find(seen.begin(), seen.end(), m) != seen.end()) continue;
      seen.push_back(m);
      auto image = farm::runtime::MachineImage::from_program(program, m);
      almanac::Env env = machine_env(image->machine, spec);
      std::vector<std::pair<std::string, std::vector<almanac::StatsValue>>> polls;
      for (const auto& pa : almanac::analyze_polls(image->machine, env, reference)) {
        if (pa.ttype != almanac::TriggerType::kPoll) continue;
        std::vector<almanac::StatsValue> recorded;
        for (auto* c : live) recorded.push_back(stats_from(*c, pa.what));
        polls.emplace_back(pa.var, std::move(recorded));
      }
      if (polls.empty()) continue;
      auto* seed = soil.deploy({"e2e-probe", m, index++}, image, spec.externals);
      constexpr int kRounds = 200;
      Stopwatch sw;
      for (int r = 0; r < kRounds; ++r)
        for (const auto& [var, recorded] : polls) {
          try {
            seed->on_poll(var, recorded[static_cast<std::size_t>(r) %
                                        recorded.size()]);
          } catch (const std::exception&) {
          }
          ++calls;
        }
      total_us += sw.us();
    }
  }
  out.layer["seed.on_poll_us"] = calls ? total_us / static_cast<double>(calls) : 0;
}

void LayerProbe::finish(PassResult& out,
                        const std::vector<farm::net::FlowSpec>& flows,
                        const std::vector<TaskSpec>& tasks,
                        std::uint64_t harvester_msgs) {
  if (!active_) return;
  auto& L = out.layer;
  const double replays = std::max(1, replays_);
  const double ops = std::max(1, ops_);
  L["almanac.parse_us"] = parse_us_ / replays;
  L["almanac.compile_us"] = compile_us_ / replays;
  L["almanac.lint_us"] = lint_us_ / replays;
  L["almanac.analysis_us"] = analysis_us_ / replays;
  L["placement.solve_ms"] = solve_ms_ / std::max(1, solves_);
  L["placement.dirty_switches"] = dirty_switches_ / ops;
  L["placement.fallbacks"] =
      fallbacks_cold_ + fallbacks_delta_ + fallbacks_validation_;
  L["placement.fallbacks.cold"] = fallbacks_cold_;
  L["placement.fallbacks.delta_fraction"] = fallbacks_delta_;
  L["placement.fallbacks.validation"] = fallbacks_validation_;
  L["placement.memo_hit_ratio"] =
      memo_hits_ + memo_misses_
          ? static_cast<double>(memo_hits_) /
                static_cast<double>(memo_hits_ + memo_misses_)
          : 0;
  L["lp.pivots"] = static_cast<double>(pivots_) / ops;
  L["pool.tasks"] = static_cast<double>(pool_tasks_);
  L["pool.inline_frac"] =
      pool_tasks_ ? static_cast<double>(pool_inline_) /
                        static_cast<double>(pool_tasks_)
                  : 0;

  auto& seeder = farm_.seeder();
  L["seeder.deployments"] = static_cast<double>(seeder.deployments());
  L["seeder.migrations"] = static_cast<double>(seeder.migrations_performed());
  L["seeder.deferred_reoptimizes"] =
      static_cast<double>(seeder.deferred_reoptimizes());

  // Sim: events and wall time over the monitored phase; growth compares the
  // last slice (or span) with the first.
  const auto slices = out.sim_slices();
  std::uint64_t events = 0;
  double wall = 0;
  for (const auto& s : slices) {
    events += s.events;
    wall += s.wall_s;
  }
  L["sim.events"] = static_cast<double>(events);
  L["sim.ns_per_event"] = events ? wall * 1e9 / static_cast<double>(events) : 0;
  if (!slices.empty()) {
    const auto& first = slices.front();
    const auto& last = slices.back();
    L["sim.slice_growth"] = first.wall_s > 0 ? last.wall_s / first.wall_s : 0;
    auto span_cost = [&](int span) {
      std::uint64_t ev = 0;
      double w = 0;
      for (const auto& s : slices)
        if (s.span == span) {
          ev += s.events;
          w += s.wall_s;
        }
      return ev ? w / static_cast<double>(ev) : 0.0;
    };
    const bool spans = last.span != first.span;
    const double c0 = spans ? span_cost(first.span)
                            : (first.events ? first.wall_s / static_cast<double>(first.events) : 0);
    const double c1 = spans ? span_cost(last.span)
                            : (last.events ? last.wall_s / static_cast<double>(last.events) : 0);
    L["sim.event_cost_growth"] = c0 > 0 ? c1 / c0 : 0;
  }

  time_data_plane(out, flows);
  time_on_poll(out, tasks);

  std::uint64_t requests = 0, deliveries = 0, abandoned = 0;
  for (auto* soil : farm_.soils()) {
    requests += soil->poll_requests_issued();
    deliveries += soil->poll_deliveries();
    abandoned += soil->polls_abandoned();
  }
  L["soil.poll_requests"] = static_cast<double>(requests);
  L["soil.poll_deliveries"] = static_cast<double>(deliveries);
  L["soil.agg_ratio"] =
      requests ? static_cast<double>(deliveries) / static_cast<double>(requests) : 0;
  L["soil.polling_accuracy"] = fleet_polling_accuracy(farm_);
  L["soil.polls_abandoned"] = static_cast<double>(abandoned);
  L["bus.harvester_msgs"] = static_cast<double>(harvester_msgs);
  L["telemetry.events_appended"] =
      static_cast<double>(farm_.telemetry().events().total_appended());

  const prof::Snapshot end = prof::Profiler::instance().snapshot();
  L["scarecrow.evaluate_ms"] =
      static_cast<double>(furrow_total_ns(end, {"scarecrow", "evaluate"}) -
                          furrow_total_ns(pass_start_, {"scarecrow", "evaluate"})) /
      1e6;

  ScopedSpan span(tracer_, "report");
  std::ostringstream report;
  Stopwatch sw;
  farm_.write_farm_report_json(report);
  L["telemetry.report_ms"] = sw.us() / 1e3;
}

}  // namespace e2e
