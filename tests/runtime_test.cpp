// Integration tests for the seed runtime: soil polling & aggregation, event
// delivery, local reactions on real simulated traffic, messaging, and
// migration snapshots.
#include <gtest/gtest.h>

#include <memory>

#include "asic/driver.h"
#include "runtime/bus.h"
#include "runtime/soil.h"
#include "sim/cost_model.h"

namespace farm::runtime {
namespace {

using almanac::TriggerSpec;
using net::Ipv4;
using sim::Duration;
using sim::Engine;
using sim::TimePoint;

// HH seed with a constant 1 ms poll — the configuration §VI-B measures.
constexpr const char* kHhSource = R"ALM(
func list getHH(stats cur, list prev, long threshold) {
  list hitters;
  long i = 0;
  while (i < stats_size(cur)) {
    long before = 0;
    if (i < list_size(prev)) then { before = to_long(list_get(prev, i)); }
    if (stats_bytes(cur, i) - before >= threshold) then {
      list_append(hitters, stats_iface(cur, i));
    }
    i = i + 1;
  }
  return hitters;
}
func list snapshotBytes(stats cur) {
  list out;
  long i = 0;
  while (i < stats_size(cur)) {
    list_append(out, stats_bytes(cur, i));
    i = i + 1;
  }
  return out;
}
func void setHitterRules(list hitters, action act) {
  long i = 0;
  while (i < list_size(hitters)) {
    addTCAMRule(iface_filter(to_long(list_get(hitters, i))), act);
    i = i + 1;
  }
}
machine HH {
  place all;
  poll pollStats = Poll { .ival = 0.001, .what = port ANY };
  external long threshold = 1000000;
  external action hitterAction;
  list hitters;
  list prevBytes;
  state observe {
    util (res) {
      if (res.vCPU >= 0.1 and res.RAM >= 10) then {
        return min(res.vCPU, res.PCIe);
      }
    }
    when (pollStats as stats) do {
      hitters = getHH(stats, prevBytes, threshold);
      prevBytes = snapshotBytes(stats);
      if (not is_list_empty(hitters)) then { transit HHdetected; }
    }
  }
  state HHdetected {
    util (res) { return 100; }
    when (enter) do {
      send hitters to harvester;
      setHitterRules(hitters, hitterAction);
      transit observe;
    }
  }
  when (recv long newTh from harvester) do { threshold = newTh; }
  when (recv action hitAct from harvester) do { hitterAction = hitAct; }
}
)ALM";

class RecordingHarvester : public Harvester {
 public:
  using Harvester::Harvester;
  std::vector<std::pair<SeedId, Value>> reports;
  std::vector<TimePoint> report_times;

  void on_seed_message(const SeedId& from, net::NodeId,
                       const Value& payload) override {
    reports.emplace_back(from, payload);
    report_times.push_back(engine().now());
  }
};

// A full single-switch (plus topology) test rig.
struct Rig {
  Engine engine;
  net::SpineLeaf sl =
      net::build_spine_leaf({.spines = 1, .leaves = 2, .hosts_per_leaf = 2});
  std::vector<std::unique_ptr<asic::SwitchChassis>> chassis;
  std::vector<asic::SwitchChassis*> by_node;
  std::vector<std::unique_ptr<Soil>> soils;
  MessageBus bus{engine};
  std::shared_ptr<MachineImage> hh = MachineImage::from_source(kHhSource, "HH");

  explicit Rig(SoilConfig soil_cfg = {}) {
    by_node.assign(sl.topo.node_count(), nullptr);
    for (auto n : sl.topo.switches()) {
      asic::SwitchConfig cfg;
      cfg.n_ifaces =
          std::max<int>(4, static_cast<int>(sl.topo.neighbors(n).size()));
      chassis.push_back(std::make_unique<asic::SwitchChassis>(
          engine, n, sl.topo.node(n).name, cfg, n));
      by_node[n] = chassis.back().get();
      soils.push_back(
          std::make_unique<Soil>(engine, *chassis.back(), soil_cfg, &bus));
      bus.attach_soil(*soils.back());
    }
  }

  Soil& soil_of(net::NodeId n) {
    for (auto& s : soils)
      if (s->node() == n) return *s;
    FARM_CHECK(false);
  }

  net::FlowSchedule hh_flow(double rate_bps, Duration duration) {
    net::FlowSchedule sched;
    net::FlowSpec f;
    f.key = {*sl.topo.node(sl.hosts_by_leaf[0][0]).address,
             *sl.topo.node(sl.hosts_by_leaf[1][0]).address, 4000, 443,
             net::Proto::kTcp};
    f.rate_bps = rate_bps;
    f.packet_bytes = 1400;
    sched.add(TimePoint::origin(), TimePoint::origin() + duration, f);
    return sched;
  }
};

TEST(SoilTest, DeployStartsSeedInInitialState) {
  Rig rig;
  auto& soil = rig.soil_of(rig.sl.leaf_switches[0]);
  Seed* seed = soil.deploy({"t1", "HH", 0}, rig.hh, {});
  ASSERT_TRUE(seed);
  EXPECT_EQ(seed->current_state(), "observe");
  EXPECT_TRUE(seed->started());
  EXPECT_EQ(soil.seed_count(), 1u);
}

TEST(SoilTest, ExternalBindingOverridesDefault) {
  Rig rig;
  auto& soil = rig.soil_of(rig.sl.leaf_switches[0]);
  Seed* seed = soil.deploy({"t1", "HH", 0}, rig.hh,
                           {{"threshold", Value(std::int64_t{77})}});
  auto snap = seed->snapshot();
  EXPECT_EQ(snap.machine_vars.at("threshold").as_int(), 77);
}

TEST(SoilTest, UndeployStopsEvents) {
  Rig rig;
  auto& soil = rig.soil_of(rig.sl.leaf_switches[0]);
  soil.deploy({"t1", "HH", 0}, rig.hh, {});
  EXPECT_TRUE(soil.undeploy({"t1", "HH", 0}));
  EXPECT_EQ(soil.seed_count(), 0u);
  EXPECT_FALSE(soil.undeploy({"t1", "HH", 0}));
  rig.engine.run_for(Duration::ms(50));  // no crash from stale events
}

TEST(SoilTest, PollsAreDelivered) {
  Rig rig;
  auto& soil = rig.soil_of(rig.sl.leaf_switches[0]);
  soil.deploy({"t1", "HH", 0}, rig.hh, {});
  rig.engine.run_for(Duration::ms(100));
  EXPECT_GT(soil.poll_deliveries(), 50u);  // ~1 per ms minus bus/CPU time
}

TEST(SoilTest, AggregationSharesPcieRequests) {
  // Two seeds polling the same subject: aggregated mode must issue about
  // half the PCIe requests of unaggregated mode.
  auto run = [](bool aggregate) {
    SoilConfig cfg;
    cfg.aggregate_polls = aggregate;
    Rig rig(cfg);
    auto& soil = rig.soil_of(rig.sl.leaf_switches[0]);
    soil.deploy({"t1", "HH", 0}, rig.hh, {});
    soil.deploy({"t2", "HH", 0}, rig.hh, {});
    rig.engine.run_for(Duration::ms(200));
    return soil.poll_requests_issued();
  };
  auto agg = run(true);
  auto noagg = run(false);
  EXPECT_GT(agg, 0u);
  EXPECT_GE(noagg, agg * 3 / 2);  // ≥1.5× more bus transactions
}

TEST(SoilTest, HeavyHitterDetectedAndReactedLocally) {
  Rig rig;
  auto leaf0 = rig.sl.leaf_switches[0];
  auto& soil = rig.soil_of(leaf0);
  RecordingHarvester harv(rig.engine, "t1");
  rig.bus.attach_harvester("t1", harv);

  // 800 Mbps elephant: 100 KB per 1 ms poll ≫ 50 KB threshold.
  soil.deploy({"t1", "HH", 0}, rig.hh,
              {{"threshold", Value(std::int64_t{50'000})},
               {"hitterAction",
                Value(almanac::ActionValue{asic::RuleAction::kRateLimit,
                                           1e6})}});
  asic::TrafficDriver driver(rig.engine, rig.sl.topo, rig.by_node,
                             rig.hh_flow(800e6, Duration::sec(2)),
                             Duration::ms(1));
  driver.start();
  rig.engine.run_for(Duration::sec(1));

  // The harvester heard about the hitter…
  ASSERT_FALSE(harv.reports.empty());
  EXPECT_EQ(harv.reports[0].first.task, "t1");
  EXPECT_TRUE(harv.reports[0].second.is_list());
  // …and the seed reacted locally: a rate-limit rule in the monitoring
  // region now caps the flow.
  bool found_limit = false;
  for (const auto& r : rig.by_node[leaf0]->tcam().rules())
    if (r.action == asic::RuleAction::kRateLimit) found_limit = true;
  EXPECT_TRUE(found_limit);
  // Detection was fast (≪ collector-based approaches): first report within
  // a handful of milliseconds of traffic start.
  EXPECT_LT(harv.report_times[0].seconds(), 0.050);
}

TEST(SoilTest, HarvesterPushUpdatesSeedThreshold) {
  Rig rig;
  auto& soil = rig.soil_of(rig.sl.leaf_switches[0]);
  RecordingHarvester harv(rig.engine, "t1");
  rig.bus.attach_harvester("t1", harv);
  Seed* seed = soil.deploy({"t1", "HH", 0}, rig.hh, {});
  harv.send_to_seed(seed->id(), Value(std::int64_t{123456}));
  rig.engine.run_for(Duration::ms(10));
  EXPECT_EQ(seed->snapshot().machine_vars.at("threshold").as_int(), 123456);
}

TEST(SoilTest, RecvPatternMatchingByType) {
  Rig rig;
  auto& soil = rig.soil_of(rig.sl.leaf_switches[0]);
  RecordingHarvester harv(rig.engine, "t1");
  rig.bus.attach_harvester("t1", harv);
  Seed* seed = soil.deploy({"t1", "HH", 0}, rig.hh, {});
  // An action-typed message must bind the action handler, not the long one.
  harv.send_to_seed(seed->id(),
                    Value(almanac::ActionValue{asic::RuleAction::kDrop, 0}));
  rig.engine.run_for(Duration::ms(10));
  auto snap = seed->snapshot();
  EXPECT_EQ(snap.machine_vars.at("hitterAction").as_action().action,
            asic::RuleAction::kDrop);
  EXPECT_EQ(snap.machine_vars.at("threshold").as_int(), 1000000);  // untouched
}

TEST(SoilTest, MigrationSnapshotPreservesState) {
  Rig rig;
  auto& soil0 = rig.soil_of(rig.sl.leaf_switches[0]);
  auto& soil1 = rig.soil_of(rig.sl.leaf_switches[1]);
  Seed* seed = soil0.deploy({"t1", "HH", 0}, rig.hh,
                            {{"threshold", Value(std::int64_t{42})}});
  // Nudge internal state.
  seed->snapshot();
  SeedSnapshot snap = seed->snapshot();
  EXPECT_GT(snap.wire_bytes(), 0u);
  soil0.undeploy(seed->id());
  Seed* moved = soil1.deploy({"t1", "HH", 0}, rig.hh, {}, std::nullopt, &snap);
  EXPECT_EQ(moved->current_state(), "observe");
  EXPECT_EQ(moved->snapshot().machine_vars.at("threshold").as_int(), 42);
  rig.engine.run_for(Duration::ms(20));
  EXPECT_GT(soil1.poll_deliveries(), 0u);  // triggers re-registered
}

TEST(SoilTest, ReallocFiresAndReportsNewResources) {
  Rig rig;
  auto src = R"(
    machine M {
      place all;
      float seen = 0;
      state s {
        when (realloc) do { seen = res().vCPU; }
      }
    }
  )";
  auto image = MachineImage::from_source(src, "M");
  auto& soil = rig.soil_of(rig.sl.leaf_switches[0]);
  Seed* seed = soil.deploy({"t", "M", 0}, image, {});
  soil.set_allocation(seed->id(), ResourcesValue{3.5, 64, 8, 2});
  EXPECT_DOUBLE_EQ(seed->snapshot().machine_vars.at("seen").as_float(), 3.5);
}

TEST(SoilTest, TimeTriggerFiresPeriodically) {
  Rig rig;
  auto src = R"(
    machine M {
      place all;
      time tick = 0.01;
      long fired = 0;
      state s {
        when (tick as t) do { fired = fired + 1; }
      }
    }
  )";
  auto image = MachineImage::from_source(src, "M");
  auto& soil = rig.soil_of(rig.sl.leaf_switches[0]);
  Seed* seed = soil.deploy({"t", "M", 0}, image, {});
  rig.engine.run_for(Duration::ms(105));
  auto fired = seed->snapshot().machine_vars.at("fired").as_int();
  EXPECT_GE(fired, 9);
  EXPECT_LE(fired, 11);
}

TEST(SoilTest, MistypedBuiltinArgumentIsAHandlerErrorNotAnAbort) {
  // list_size of a long used to hit a FARM_CHECK in Value::as_list and
  // abort the process; it is an EvalError the soil logs, and the seed keeps
  // reacting to its timer.
  Rig rig;
  auto src = R"(
    machine M {
      place all;
      time tick = 0.01;
      long fired = 0;
      long n = 3;
      state s {
        when (tick as t) do {
          fired = fired + 1;
          n = list_size(n);
        }
      }
    }
  )";
  auto image = MachineImage::from_source(src, "M");
  auto& soil = rig.soil_of(rig.sl.leaf_switches[0]);
  Seed* seed = soil.deploy({"t", "M", 0}, image, {});
  rig.engine.run_for(Duration::ms(105));
  EXPECT_GE(seed->snapshot().machine_vars.at("fired").as_int(), 9);
  EXPECT_EQ(seed->snapshot().machine_vars.at("n").as_int(), 3);
}

TEST(SoilTest, ProbeDeliversOnlyMatchingPackets) {
  Rig rig;
  auto src = R"(
    machine M {
      place all;
      probe pr = Probe { .ival = 0.001, .what = dstPort 22 };
      long ssh = 0;
      state s {
        when (pr as pkt) do {
          if (pkt.dstPort == 22) then { ssh = ssh + 1; }
          if (pkt.dstPort <> 22) then { ssh = ssh - 100; }
        }
      }
    }
  )";
  auto image = MachineImage::from_source(src, "M");
  auto leaf0 = rig.sl.leaf_switches[0];
  auto& soil = rig.soil_of(leaf0);
  Seed* seed = soil.deploy({"t", "M", 0}, image, {});

  net::FlowSchedule sched;
  net::FlowSpec ssh;
  ssh.key = {*rig.sl.topo.node(rig.sl.hosts_by_leaf[0][0]).address,
             *rig.sl.topo.node(rig.sl.hosts_by_leaf[1][0]).address, 4000, 22,
             net::Proto::kTcp};
  ssh.rate_bps = 10e6;
  ssh.packet_bytes = 200;
  sched.add_forever(TimePoint::origin(), ssh);
  net::FlowSpec web = ssh;
  web.key.dst_port = 80;
  sched.add_forever(TimePoint::origin(), web);
  asic::TrafficDriver driver(rig.engine, rig.sl.topo, rig.by_node, sched,
                             Duration::ms(1));
  driver.start();
  rig.engine.run_for(Duration::ms(200));
  auto count = seed->snapshot().machine_vars.at("ssh").as_int();
  EXPECT_GT(count, 0);  // matched SSH probes only; any port-80 delivery
                        // would have subtracted 100
}

TEST(SoilTest, ProcessModeHasHigherDeliveryLatency) {
  auto mean_latency = [](bool threads) {
    SoilConfig cfg;
    cfg.seeds_as_threads = threads;
    Rig rig(cfg);
    auto& soil = rig.soil_of(rig.sl.leaf_switches[0]);
    for (int i = 0; i < 20; ++i)
      soil.deploy({"t", "HH", i}, rig.hh, {});
    rig.engine.run_for(Duration::ms(100));
    return soil.delivery_latency().mean();
  };
  double thread_lat = mean_latency(true);
  double process_lat = mean_latency(false);
  EXPECT_GT(process_lat, thread_lat * 5);
}

TEST(SoilTest, DepletionCallbackFires) {
  Rig rig;
  auto& soil = rig.soil_of(rig.sl.leaf_switches[0]);
  bool depleted = false;
  soil.set_depletion_callback([&](Soil&) { depleted = true; });
  // Default capacity: 4 vCPU. Allocate 2 seeds × 2 vCPU = 100% > 90%.
  ResourcesValue big{2, 128, 8, 1};
  soil.deploy({"t", "HH", 0}, rig.hh, {}, big);
  EXPECT_FALSE(depleted);
  soil.deploy({"t", "HH", 1}, rig.hh, {}, big);
  EXPECT_TRUE(depleted);
}

TEST(SoilTest, SeedToSeedMessaging) {
  Rig rig;
  auto src = R"(
    machine Ping {
      place all;
      time tick = 0.01;
      state s {
        when (tick as t) do {
          send 42 to Pong;
          tick = 0;
        }
      }
    }
    machine Pong {
      place all;
      long got = 0;
      state s {
        when (recv long v from Ping) do { got = v; }
      }
    }
  )";
  auto program =
      std::make_shared<almanac::Program>(almanac::parse_program(src));
  auto ping = MachineImage::from_program(program, "Ping");
  auto pong = MachineImage::from_program(program, "Pong");
  auto& soil0 = rig.soil_of(rig.sl.leaf_switches[0]);
  auto& soil1 = rig.soil_of(rig.sl.leaf_switches[1]);
  soil0.deploy({"t", "Ping", 0}, ping, {});
  Seed* receiver = soil1.deploy({"t", "Pong", 0}, pong, {});
  rig.engine.run_for(Duration::ms(50));
  EXPECT_EQ(receiver->snapshot().machine_vars.at("got").as_int(), 42);
}

TEST(SoilTest, FlowSubjectInstallsCountRule) {
  Rig rig;
  auto src = R"(
    machine M {
      place all;
      poll p = Poll { .ival = 0.005, .what = dstIP "10.1.0.0/16" };
      long seen = 0;
      state s {
        when (p as stats) do { seen = stats_bytes(stats, 0); }
      }
    }
  )";
  auto image = MachineImage::from_source(src, "M");
  auto leaf0 = rig.sl.leaf_switches[0];
  auto& soil = rig.soil_of(leaf0);
  Seed* seed = soil.deploy({"t", "M", 0}, image, {});
  asic::TrafficDriver driver(rig.engine, rig.sl.topo, rig.by_node,
                             rig.hh_flow(80e6, Duration::sec(1)),
                             Duration::ms(1));
  driver.start();
  rig.engine.run_for(Duration::ms(500));
  // The soil installed a monitoring count rule for the flow subject…
  bool count_rule = false;
  for (const auto& r : rig.by_node[leaf0]->tcam().rules())
    if (r.action == asic::RuleAction::kCount && r.note == "soil-poll")
      count_rule = true;
  EXPECT_TRUE(count_rule);
  // …and the seed observed its counters climbing.
  EXPECT_GT(seed->snapshot().machine_vars.at("seen").as_int(), 0);
}

// A seed polling dstIP 10.1.0.0/16, and a reaction rule on that pattern.
constexpr const char* kFlowPollSource = R"(
  machine M {
    place all;
    poll p = Poll { .ival = 0.005, .what = dstIP "10.1.0.0/16" };
    state s { when (p as stats) do { } }
  }
)";
constexpr const char* kIdleSource = "machine Idle { place all; state s { } }";

asic::TcamRule reaction_rule() {
  asic::TcamRule r;
  r.pattern = net::Filter::dst_ip(*net::Prefix::parse("10.1.0.0/16"));
  r.action = asic::RuleAction::kDrop;
  return r;
}

std::vector<std::string> monitoring_notes(const asic::Tcam& tcam) {
  std::vector<std::string> notes;
  for (const auto& r : tcam.rules())
    if (r.region == asic::TcamRegion::kMonitoring) notes.push_back(r.note);
  return notes;
}

TEST(SoilTest, UndeployRemovesOnlyTheSoilPollRuleWhenItIsOlder) {
  Rig rig;
  auto leaf0 = rig.sl.leaf_switches[0];
  auto& soil = rig.soil_of(leaf0);
  auto& tcam = rig.by_node[leaf0]->tcam();
  soil.deploy({"poller", "M", 0}, MachineImage::from_source(kFlowPollSource, "M"),
              {});
  rig.engine.run_for(Duration::ms(20));  // first poll installs soil-poll
  ASSERT_EQ(monitoring_notes(tcam), std::vector<std::string>{"soil-poll"});
  Seed* holder = soil.deploy({"holder", "Idle", 0},
                             MachineImage::from_source(kIdleSource, "Idle"), {});
  soil.add_monitor_rule(*holder, reaction_rule());
  ASSERT_EQ(monitoring_notes(tcam),
            (std::vector<std::string>{"soil-poll", "holder/Idle#0"}));
  ASSERT_TRUE(soil.undeploy({"poller", "M", 0}));
  // The reaction rule with the same pattern is another seed's state.
  EXPECT_EQ(monitoring_notes(tcam), std::vector<std::string>{"holder/Idle#0"});
}

TEST(SoilTest, UndeployRemovesTheSoilPollRuleBehindAnOlderSeedRule) {
  Rig rig;
  auto leaf0 = rig.sl.leaf_switches[0];
  auto& soil = rig.soil_of(leaf0);
  auto& tcam = rig.by_node[leaf0]->tcam();
  Seed* holder = soil.deploy({"holder", "Idle", 0},
                             MachineImage::from_source(kIdleSource, "Idle"), {});
  soil.add_monitor_rule(*holder, reaction_rule());
  soil.deploy({"poller", "M", 0}, MachineImage::from_source(kFlowPollSource, "M"),
              {});
  rig.engine.run_for(Duration::ms(20));
  // The poll reads the existing rule; the soil installs nothing of its own.
  ASSERT_EQ(monitoring_notes(tcam), std::vector<std::string>{"holder/Idle#0"});
  // A soil-poll rule younger than the seed's rule (e.g. left by an earlier
  // deployment) must still go once nobody polls the pattern.
  asic::TcamRule poll_rule = reaction_rule();
  poll_rule.action = asic::RuleAction::kCount;
  poll_rule.note = "soil-poll";
  ASSERT_TRUE(tcam.add_rule(poll_rule));
  ASSERT_TRUE(soil.undeploy({"poller", "M", 0}));
  EXPECT_EQ(monitoring_notes(tcam), std::vector<std::string>{"holder/Idle#0"});
}

TEST(SoilTest, PollGroupServesMembersInRegistrationOrder) {
  // Four seeds share one poll subject; each reports on every poll. The
  // indices are deployed out of order so registration order is not id
  // order, and a realloc re-registers one seed at the back.
  auto first_round = [](bool realloc_index0) {
    Rig rig;
    RecordingHarvester harv(rig.engine, "t");
    rig.bus.attach_harvester("t", harv);
    auto image = MachineImage::from_source(R"(
      machine P {
        place all;
        poll p = Poll { .ival = 0.005, .what = port ANY };
        state s { when (p as stats) do { send 1 to harvester; } }
      }
    )",
                                           "P");
    auto& soil = rig.soil_of(rig.sl.leaf_switches[0]);
    for (int index : {3, 0, 2, 1}) soil.deploy({"t", "P", index}, image, {});
    if (realloc_index0)
      soil.set_allocation({"t", "P", 0}, ResourcesValue{1, 128, 32, 1});
    rig.engine.run_for(Duration::ms(7));  // one group round
    std::vector<int> order;
    for (const auto& [from, payload] : harv.reports) order.push_back(from.index);
    return order;
  };
  EXPECT_EQ(first_round(false), (std::vector<int>{3, 0, 2, 1}));
  EXPECT_EQ(first_round(true), (std::vector<int>{3, 2, 1, 0}));
}

TEST(SoilTest, SeedLookupAfterUndeployAndCrash) {
  Rig rig;
  auto& soil = rig.soil_of(rig.sl.leaf_switches[0]);
  const SeedId a{"t", "HH", 0}, b{"t", "HH", 1}, c{"u", "HH", 0};
  Seed* sa = soil.deploy(a, rig.hh, {});
  soil.deploy(b, rig.hh, {});
  Seed* sc = soil.deploy(c, rig.hh, {});
  ASSERT_TRUE(soil.undeploy(b));
  EXPECT_EQ(soil.find(b), nullptr);
  EXPECT_EQ(soil.find(a), sa);
  EXPECT_EQ(soil.find(c), sc);
  EXPECT_EQ(soil.seeds(), (std::vector<Seed*>{sa, sc}));
  // Redeploying under the freed id yields a fresh, findable seed.
  Seed* sb = soil.deploy(b, rig.hh, {});
  EXPECT_EQ(soil.find(b), sb);
  EXPECT_EQ(soil.seeds(), (std::vector<Seed*>{sa, sc, sb}));
  rig.engine.run_for(Duration::ms(10));
  soil.crash();
  EXPECT_EQ(soil.seed_count(), 0u);
  for (const SeedId& id : {a, b, c}) EXPECT_EQ(soil.find(id), nullptr);
  Seed* again = soil.deploy(a, rig.hh, {});
  EXPECT_EQ(soil.find(a), again);
  EXPECT_EQ(soil.find(c), nullptr);
  rig.engine.run_for(Duration::ms(10));
  EXPECT_GT(soil.poll_deliveries(), 0u);
}

TEST(BusTest, UpstreamBytesMetered) {
  Rig rig;
  RecordingHarvester harv(rig.engine, "t1");
  rig.bus.attach_harvester("t1", harv);
  auto& soil = rig.soil_of(rig.sl.leaf_switches[0]);
  soil.deploy({"t1", "HH", 0}, rig.hh,
              {{"threshold", Value(std::int64_t{1})}});
  asic::TrafficDriver driver(rig.engine, rig.sl.topo, rig.by_node,
                             rig.hh_flow(100e6, Duration::sec(1)),
                             Duration::ms(1));
  driver.start();
  rig.engine.run_for(Duration::ms(300));
  EXPECT_GT(rig.bus.upstream().bytes, 0u);
  EXPECT_GT(rig.bus.upstream().messages, 0u);
}

}  // namespace
}  // namespace farm::runtime
