// Component microbenchmarks (google-benchmark): the hot paths whose cost
// assumptions the simulation rests on — Almanac front-end, the seed VM,
// filter matching, TCAM lookup, the soil's poll path, the DES engine, and
// the simplex solver. The /N benches sweep seeds (rules) per switch: their
// per-iteration time should stay flat in N.
#include <benchmark/benchmark.h>

#include "almanac/interp.h"
#include "almanac/parser.h"
#include "asic/switch.h"
#include "asic/tcam.h"
#include "bench_json.h"
#include "farm/scarecrow.h"
#include "farm/usecases.h"
#include "lp/simplex.h"
#include "runtime/soil.h"
#include "sim/engine.h"
#include "telemetry/alert.h"
#include "telemetry/hub.h"

namespace {

using namespace farm;

void BM_ParseHeavyHitter(benchmark::State& state) {
  const auto& src = core::use_case("Heavy hitter (HH)").source;
  for (auto _ : state) {
    auto program = almanac::parse_program(src);
    benchmark::DoNotOptimize(program);
  }
}
BENCHMARK(BM_ParseHeavyHitter);

void BM_CompileMachine(benchmark::State& state) {
  const auto& uc = core::use_case("Hier. HH");
  auto program = almanac::parse_program(uc.source);
  for (auto _ : state) {
    auto cm = almanac::compile_machine(program, "HHH");
    benchmark::DoNotOptimize(cm);
  }
}
BENCHMARK(BM_CompileMachine);

void BM_SeedVmPollHandler(benchmark::State& state) {
  // Executes the HH observe handler over a 48-entry stats snapshot.
  const auto& uc = core::use_case("Heavy hitter (HH)");
  auto program = almanac::parse_program(uc.source);
  auto cm = almanac::compile_machine(program, "HH");
  almanac::Interpreter interp(cm, nullptr);
  almanac::Env env;
  for (const auto* v : cm.vars) {
    if (v->init && !v->trigger)
      env.define(v->name, interp.eval(*v->init, env));
    else if (!v->trigger)
      env.define(v->name, almanac::Interpreter::default_value(v->type));
  }
  almanac::StatsValue stats;
  for (int i = 0; i < 48; ++i)
    stats.entries->push_back(
        {"port:" + std::to_string(i), i, 0, 1000, 1'000'00});
  const auto* observe = cm.state("observe");
  const auto& actions = observe->events[0]->actions;
  // Bound by the handler's `as` symbol, as runtime::Seed binds it.
  const almanac::Symbol bind = observe->events[0]->as_sym;
  for (auto _ : state) {
    almanac::Env scope(&env);
    scope.define(bind, almanac::Value(stats));
    try {
      interp.exec(actions, scope);
    } catch (const almanac::EvalError&) {
    }
  }
}
BENCHMARK(BM_SeedVmPollHandler);

// Host with no effects: probes read a fixed allocation and every TCAM
// query finds a rule, so a handler's steady state has no installs.
class QuietHost : public almanac::SeedHost {
 public:
  almanac::ResourcesValue resources() override { return {2, 512, 128, 4}; }
  void add_tcam_rule(const asic::TcamRule&) override {}
  void remove_tcam_rule(const net::Filter&) override {}
  std::optional<asic::TcamRule> get_tcam_rule(const net::Filter&) override {
    return asic::TcamRule{};
  }
  void send(const almanac::Value&, const almanac::SendTarget&) override {}
  void exec(const std::string&) override {}
  void request_transit(const std::string&) override {}
  void trigger_updated(const std::string&) override {}
  std::int64_t switch_id() override { return 1; }
  std::int64_t now_ms() override { return 0; }
  void log(const std::string&) override {}
};

void BM_SeedVmProbeHandler(benchmark::State& state) {
  // Executes the SYN-flood tcpProbe handler for SYN packets to 32 known
  // victims, each already over threshold: the full path of bump(), list
  // scans, the report to the harvester and the TCAM query.
  const auto& uc = core::use_case("TCP SYN flood");
  auto program = almanac::parse_program(uc.source);
  auto cm = almanac::compile_machine(program, "SynFlood");
  QuietHost host;
  almanac::Interpreter interp(cm, &host);
  almanac::Env env;
  for (const auto* v : cm.vars) {
    if (v->init && !v->trigger)
      env.define(v->name, interp.eval(*v->init, env));
    else if (!v->trigger)
      env.define(v->name, almanac::Interpreter::default_value(v->type));
  }
  constexpr int kVictims = 32;
  std::vector<net::PacketHeader> packets;
  auto victims = almanac::Value::empty_list();
  auto syn_counts = almanac::Value::empty_list();
  auto ack_counts = almanac::Value::empty_list();
  for (int i = 0; i < kVictims; ++i) {
    net::PacketHeader p{*net::Ipv4::parse("10.9.0.1"),
                        *net::Ipv4::parse("10.20.0." + std::to_string(i + 1)),
                        40000,
                        80,
                        net::Proto::kTcp,
                        {},
                        64};
    p.flags.syn = true;
    packets.push_back(p);
    victims.as_list()->push_back(almanac::Value(p.dst_ip.to_string()));
    syn_counts.as_list()->push_back(almanac::Value(std::int64_t{1000}));
    ack_counts.as_list()->push_back(almanac::Value(std::int64_t{0}));
  }
  env.define("victims", victims);
  env.define("synCounts", syn_counts);
  env.define("ackCounts", ack_counts);
  const auto* observe = cm.state("observe");
  const almanac::EventDecl* probe = nullptr;
  for (const auto* ev : observe->events)
    if (ev->var == "tcpProbe") probe = ev;
  std::size_t i = 0;
  for (auto _ : state) {
    almanac::Env scope(&env);
    scope.define(probe->as_sym, almanac::Value(packets[i]));
    try {
      interp.exec(probe->actions, scope);
    } catch (const almanac::EvalError& e) {
      state.SkipWithError(e.what());
      break;
    }
    if (++i == packets.size()) i = 0;
  }
}
BENCHMARK(BM_SeedVmProbeHandler);

void BM_FilterMatch(benchmark::State& state) {
  auto f = net::Filter::conj(
      net::Filter::src_ip(*net::Prefix::parse("10.0.0.0/8")),
      net::Filter::disj(net::Filter::l4_port(443), net::Filter::l4_port(80)));
  net::PacketHeader h{*net::Ipv4::parse("10.1.2.3"),
                      *net::Ipv4::parse("11.0.0.1"),
                      40000,
                      443,
                      net::Proto::kTcp,
                      {},
                      1400};
  for (auto _ : state) benchmark::DoNotOptimize(f.matches(h));
}
BENCHMARK(BM_FilterMatch);

void BM_TcamLookup256Rules(benchmark::State& state) {
  asic::Tcam tcam(512, 512);
  for (int i = 0; i < 256; ++i) {
    asic::TcamRule r;
    r.pattern = net::Filter::l4_port(static_cast<std::uint16_t>(i + 1));
    r.priority = i;
    tcam.add_rule(r);
  }
  net::PacketHeader h{*net::Ipv4::parse("10.1.2.3"),
                      *net::Ipv4::parse("11.0.0.1"),
                      40000,
                      128,
                      net::Proto::kTcp,
                      {},
                      1400};
  for (auto _ : state) benchmark::DoNotOptimize(tcam.match(h));
}
BENCHMARK(BM_TcamLookup256Rules);

// The address a density bench's i-th seed or rule watches.
std::string density_addr(int i) {
  return "10.50." + std::to_string(i / 250) + "." + std::to_string(i % 250 + 1);
}

void BM_TcamFindPattern(benchmark::State& state) {
  // Poll-subject lookup among N single-address monitoring rules, probed with
  // equal but separately built filters (as a seed's poll subject is).
  const int n = static_cast<int>(state.range(0));
  asic::Tcam tcam(2 * n, n);
  std::vector<net::Filter> probes;
  for (int i = 0; i < n; ++i) {
    const auto prefix = *net::Prefix::parse(density_addr(i) + "/32");
    asic::TcamRule r;
    r.pattern = net::Filter::dst_ip(prefix);
    tcam.add_rule(r);
    probes.push_back(net::Filter::dst_ip(prefix));
    benchmark::DoNotOptimize(probes.back().canonical_key());
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tcam.find(probes[i], asic::TcamRegion::kMonitoring));
    if (++i == probes.size()) i = 0;
  }
}
BENCHMARK(BM_TcamFindPattern)->Arg(100)->Arg(200)->Arg(400);

void BM_SoilPollGroupFire(benchmark::State& state) {
  // N FlowMon-shaped seeds on one switch, each polling its own address
  // every 100 ms (one poll group each; slow enough that 400 groups keep the
  // modelled PCIe channel under 15% busy, so no queue builds). Seeds deploy
  // period/N apart, so one iteration — period/N of virtual time — is one
  // group firing: the PCIe transfer, the TCAM counter read and the handler
  // delivery.
  constexpr const char* kSource = R"(
    machine FlowMon {
      place all;
      external string watched = "10.0.1.1";
      poll flowStats = Poll { .ival = 0.1, .what = dstIP watched };
      long last = 0;
      state watch {
        when (flowStats as s) do { last = stats_bytes(s, 0); }
      }
    }
  )";
  const int n = static_cast<int>(state.range(0));
  sim::Engine engine;
  asic::SwitchConfig cfg;
  cfg.tcam_monitoring_reserved = std::max(cfg.tcam_monitoring_reserved, n);
  asic::SwitchChassis chassis(engine, 0, "leaf", cfg, 0);
  runtime::Soil soil(engine, chassis, {});
  auto image = runtime::MachineImage::from_source(kSource, "FlowMon");
  const sim::Duration period = sim::Duration::ms(100);
  const sim::Duration step = period / n;
  for (int i = 0; i < n; ++i) {
    soil.deploy({"fm" + std::to_string(i), "FlowMon", 0}, image,
                {{"watched", almanac::Value(density_addr(i))}});
    engine.run_for(step);
  }
  engine.run_for(period);  // every group has fired and installed its rule
  for (auto _ : state) engine.run_for(step);
  benchmark::DoNotOptimize(soil.poll_deliveries());
}
BENCHMARK(BM_SoilPollGroupFire)->Arg(100)->Arg(200)->Arg(400);

void BM_EngineEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    for (int i = 0; i < 10'000; ++i)
      engine.schedule_after(sim::Duration::us(i), [] {});
    engine.run();
    benchmark::DoNotOptimize(engine.executed_events());
  }
}
BENCHMARK(BM_EngineEventThroughput)->Unit(benchmark::kMillisecond);

void BM_SimplexRedistributionLp(benchmark::State& state) {
  // Representative per-switch redistribution LP: 10 seeds × 4 resources.
  for (auto _ : state) {
    lp::Model m;
    std::vector<lp::VarId> t(10);
    for (int s = 0; s < 10; ++s) {
      lp::VarId r0 = m.add_continuous("r", 0, 8, 0);
      lp::VarId r3 = m.add_continuous("p", 0, 8, 0);
      t[static_cast<std::size_t>(s)] = m.add_continuous("t", 0, 100, 1);
      m.add_constraint("epi1", {{t[static_cast<std::size_t>(s)], 1}, {r0, -1}},
                       lp::Sense::kLe, 0);
      m.add_constraint("epi2", {{t[static_cast<std::size_t>(s)], 1}, {r3, -1}},
                       lp::Sense::kLe, 0);
    }
    std::vector<lp::Term> cap;
    for (int s = 0; s < 10; ++s) cap.push_back({s * 3, 1.0});
    m.add_constraint("cap", cap, lp::Sense::kLe, 8);
    auto sol = lp::solve_lp(m);
    benchmark::DoNotOptimize(sol);
  }
}
BENCHMARK(BM_SimplexRedistributionLp);

void BM_AlertEvaluate128Metrics(benchmark::State& state) {
  // One Scarecrow evaluator tick over a 128-metric registry with the six
  // default SLO rules installed. This is the entire per-period cost the
  // alerting layer adds to a run — it reads live aggregates only, never the
  // event store. With -DFARM_TELEMETRY=OFF the registry stays empty and the
  // tick is a no-op.
  sim::Engine engine;
  telemetry::Hub& tel = engine.telemetry();
  std::vector<telemetry::MetricId> gauges;
  for (int i = 0; i < 128; ++i) {
    gauges.push_back(tel.gauge("soil.sw" + std::to_string(i) +
                               ".poll_deliveries"));
  }
  telemetry::AlertManager mgr(tel);
  for (const auto& spec : core::Scarecrow::default_rules()) {
    mgr.add_rule(spec);
  }
  std::uint64_t tick = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < gauges.size(); i += 7)
      tel.level(gauges[i], static_cast<double>(tick));
    engine.schedule_after(sim::Duration::ms(100), [] {});
    engine.run();
    ++tick;
    mgr.evaluate(engine.now());
    benchmark::DoNotOptimize(mgr.firing_count());
  }
}
BENCHMARK(BM_AlertEvaluate128Metrics);

// Console output stays byte-identical to BENCHMARK_MAIN(); each reported run
// is additionally recorded into BENCH_micro.json for the bench trajectory.
class JsonTeeReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonTeeReporter(farm::bench::BenchJson& out) : out_(out) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      out_.record(run.benchmark_name(), run.GetAdjustedRealTime(),
                  benchmark::GetTimeUnitString(run.time_unit),
                  {farm::bench::param("iterations",
                                      static_cast<double>(run.iterations))});
    }
  }

 private:
  farm::bench::BenchJson& out_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  farm::bench::BenchJson out("micro");
  JsonTeeReporter reporter(out);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}
