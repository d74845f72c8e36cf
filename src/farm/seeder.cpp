#include "farm/seeder.h"

#include <algorithm>

#include "almanac/analysis.h"
#include "runtime/wire.h"
#include "sim/cost_model.h"
#include "telemetry/prof.h"
#include "util/log.h"

namespace farm::core {

namespace {

placement::IncrementalOptions placer_options(const SeederOptions& o) {
  placement::IncrementalOptions io;
  io.heuristic = o.heuristic;
  io.max_delta_fraction = o.max_delta_fraction;
  io.pod_of = o.pod_of;
  return io;
}

}  // namespace

Seeder::Seeder(sim::Engine& engine, const net::SdnController& controller,
               MessageBus& bus, std::vector<Soil*> soils,
               SeederOptions options)
    : engine_(engine),
      controller_(controller),
      bus_(bus),
      soils_(std::move(soils)),
      options_(options),
      placer_(placer_options(options_)) {
  tel_ = &engine_.telemetry();
  track_ = tel_->track("seeder");
  m_heartbeats_ = tel_->counter("seeder.heartbeats");
  m_failures_ = tel_->counter("seeder.failures_detected");
  m_recoveries_ = tel_->counter("seeder.recoveries");
  m_reseeds_ = tel_->counter("seeder.reseeds");
  m_deployments_ = tel_->counter("seeder.deployments");
  m_migrations_ = tel_->counter("seeder.migrations");
  m_reoptimizes_ = tel_->counter("seeder.reoptimizes");
  m_reopt_deferred_ = tel_->counter("seeder.reoptimizes_deferred");
  m_miss_ = tel_->counter("seeder.heartbeat_miss");
  m_transient_ = tel_->counter("seeder.transients");
  m_downtime_gauge_ = tel_->gauge("seeder.last_downtime_ms");
  m_downtime_hist_ = tel_->histogram("seeder.reseed_downtime_ms");
  m_transfer_hist_ = tel_->histogram("seeder.migration_transfer_ms");
  m_lint_rejected_ = tel_->counter("seed.lint.rejected");
  for (Soil* soil : soils_) {
    bus_.attach_soil(*soil);
    soil->set_depletion_callback([this](Soil&) {
      // Placement inputs changed (a soil's resources are depleting): the
      // seeder re-optimizes. Depletions raised while a reoptimize is in
      // flight used to be dropped on the floor on the assumption they were
      // self-caused by the ongoing realization; a depletion caused by a
      // concurrent event (failure mid-realize, a seed growing its own
      // allocation) vanished with them. reoptimize() now defers re-entrant
      // requests via a pending flag instead, and realize() skips no-op
      // set_allocation calls so a self-caused depletion cannot re-arm the
      // flag forever.
      reoptimize();
    });
    health_[soil->node()] = NodeHealth{engine_.now(), false};
  }
  if (options_.heartbeat_period.is_positive() && !soils_.empty()) {
    heartbeat_task_ = std::make_unique<sim::PeriodicTask>(
        engine_, options_.heartbeat_period, [this] { heartbeat_tick(); });
    heartbeat_task_->start();
  }
}

void Seeder::heartbeat_tick() {
  const sim::Duration limit =
      options_.heartbeat_period *
      static_cast<std::int64_t>(options_.heartbeat_miss_limit);
  const sim::TimePoint now = engine_.now();
  for (Soil* soil : soils_) {
    NodeHealth& h = health_[soil->node()];
    if (h.failed) continue;
    // Whole silent periods beyond the expected one: a switch that answered
    // the previous probe sits at exactly one period since last_seen, so it
    // scores 0; each further silent period bumps the streak by one until
    // the miss limit declares it dead.
    const int streak =
        std::max<int>(0, static_cast<int>(
                             (now - h.last_seen).count_ns() /
                             options_.heartbeat_period.count_ns()) -
                             1);
    if (streak > h.miss_streak) {
      h.miss_streak = streak;
      tel_->mark(m_miss_, static_cast<double>(streak));
    }
    if (now - h.last_seen > limit) on_node_failed(*soil);
  }
  // Probe everyone — failed switches included, to notice reboots.
  for (Soil* soil : soils_) {
    tel_->add(m_heartbeats_);
    net::NodeId node = soil->node();
    bus_.ping(*soil, [this, node](bool alive) {
      if (!alive) return;
      auto it = health_.find(node);
      if (it == health_.end()) return;
      NodeHealth& h = it->second;
      // A positive streak on a live answer is a transient: the switch
      // died (or went unreachable) and came back between probes, inside
      // the dead-switch window. Before the streak existed these episodes
      // left no trace at all; now they are counted and marked with the
      // streak length so flight dumps show the near-miss.
      if (!h.failed && h.miss_streak > 0) {
        ++transients_;
        // Aggregate counts the transients; the mark row carries how deep
        // into the dead-switch window the streak got.
        tel_->count(m_transient_);
        tel_->mark(m_transient_, static_cast<double>(h.miss_streak));
      }
      h.miss_streak = 0;
      h.last_seen = engine_.now();
      if (h.failed) on_node_recovered(node);
    });
  }
}

void Seeder::on_node_failed(Soil& soil) {
  NodeHealth& h = health_[soil.node()];
  h.failed = true;
  detection_latency_.record((engine_.now() - h.last_seen).seconds());
  tel_->add(m_failures_);
  // Stop routing seed/harvester traffic through the dead switch. The soil
  // stays in soils_ so heartbeats keep probing it for a reboot.
  bus_.detach_soil(soil.node());
  // Re-place over the survivors; deployments made here replace the seeds the
  // failure displaced. The dead switch is a topology-change hint for the
  // incremental placer (its seeds' candidate switches get dirtied by the
  // problem diff itself).
  placer_.mark_dirty(soil.node());
  std::uint64_t before = deployments_;
  reoptimize();
  reseed_count_.add(deployments_ - before);
  tel_->add(m_reseeds_, static_cast<double>(deployments_ - before));
  if (deployments_ > before) {
    // Monitoring downtime for the displaced seeds: dark from the last
    // heartbeat answer until the replacements deployed (now, in virtual
    // time — deploys are immediate; the PCIe/bus costs are simulated by
    // the soils). Scarecrow's reseed-downtime SLO watches the gauge.
    const double down_ms = (engine_.now() - h.last_seen).millis();
    tel_->level(m_downtime_gauge_, down_ms);
    tel_->observe(m_downtime_hist_, down_ms);
  }
}

void Seeder::on_node_recovered(net::NodeId node) {
  tel_->add(m_recoveries_);
  NodeHealth& h = health_[node];
  h.failed = false;
  h.last_seen = engine_.now();
  Soil* soil = soil_at(node);
  if (soil) bus_.attach_soil(*soil);
  placer_.mark_dirty(node);
  reoptimize();
}

void Seeder::on_topology_change(net::NodeId node) { placer_.mark_dirty(node); }

std::vector<net::NodeId> Seeder::failed_nodes() const {
  std::vector<net::NodeId> out;
  for (Soil* soil : soils_) {
    auto it = health_.find(soil->node());
    if (it != health_.end() && it->second.failed) out.push_back(soil->node());
  }
  return out;
}

bool Seeder::node_failed(net::NodeId node) const {
  auto it = health_.find(node);
  return it != health_.end() && it->second.failed;
}

double Seeder::health_grade(net::NodeId node) const {
  auto it = health_.find(node);
  if (it == health_.end()) return 1;
  if (it->second.failed) return 0;
  const int limit = std::max(1, options_.heartbeat_miss_limit);
  return 1.0 - static_cast<double>(std::min(it->second.miss_streak, limit)) /
                   static_cast<double>(limit);
}

int Seeder::miss_streak(net::NodeId node) const {
  auto it = health_.find(node);
  return it == health_.end() ? 0 : it->second.miss_streak;
}

Soil* Seeder::soil_at(net::NodeId node) const {
  for (Soil* s : soils_)
    if (s->node() == node) return s;
  return nullptr;
}

std::optional<net::NodeId> Seeder::deployed_at(const SeedId& id) const {
  for (Soil* s : soils_)
    if (const_cast<Soil*>(s)->find(id)) return s->node();
  return std::nullopt;
}

std::vector<Seeder::PlannedSeed> Seeder::elaborate(const TaskSpec& spec) {
  auto program =
      std::make_shared<const almanac::Program>(almanac::parse_program(spec.source));
  std::vector<std::string> machines = spec.machines;
  if (machines.empty())
    for (const auto& m : program->machines) machines.push_back(m.name);

  std::vector<PlannedSeed> out;
  for (const auto& mname : machines) {
    auto image = runtime::MachineImage::from_program(program, mname);
    const auto& cm = image->machine;

    // Machine environment for static evaluation: externals override
    // initializers; triggers and uninitialized vars get defaults.
    almanac::Env env;
    almanac::Interpreter interp(cm, nullptr);
    std::unordered_map<std::string, Value> externals;
    for (const auto* v : cm.vars) {
      auto it = spec.externals.find(v->name);
      if (v->external && it != spec.externals.end()) {
        env.define(v->sym, it->second);
        externals.emplace(v->name, it->second);
        continue;
      }
      if (v->init && !v->trigger) {
        try {
          env.define(v->sym, interp.eval(*v->init, env));
        } catch (const almanac::EvalError&) {
          env.define(v->sym, almanac::Interpreter::default_value(v->type));
        }
      } else if (!v->trigger) {
        env.define(v->sym, almanac::Interpreter::default_value(v->type));
      }
    }

    // Step 1: placement resolution.
    auto resolved = almanac::resolve_places(cm, env, controller_);
    // Step 2: utility analysis of the initial state.
    const almanac::CompiledState* init = cm.state(cm.initial_state);
    almanac::UtilityAnalysis ua = init ? image->utilities.get(cm, *init)
                                       : almanac::default_utility();
    // Step 3: polling analysis. The optimizer's polling resource is the
    // PCIe budget in Mbps, so the poll-rate polynomial 1/ival (polls/s) is
    // scaled by the per-poll transfer size: entries × 64 B × 8 bit.
    almanac::ResourcesValue reference{1, 128, 32, 1};
    auto polls = almanac::analyze_polls(cm, env, reference);
    int max_ifaces = 1;
    for (const Soil* soil : soils_)
      max_ifaces = std::max(
          max_ifaces, const_cast<Soil*>(soil)->chassis().n_ifaces());

    int index = 0;
    for (const auto& rs : resolved) {
      PlannedSeed ps;
      ps.id = SeedId{spec.name, mname, index++};
      ps.image = image;
      ps.externals = externals;
      ps.candidates = rs.candidates;
      ps.variants = ua.variants;
      for (const auto& pa : polls) {
        int fp = pa.what.iface_footprint();
        int entries = fp == net::Filter::kAllIfaces ? max_ifaces
                      : fp > 0                      ? fp
                                                    : 1;
        double mbps_per_poll =
            entries * sim::cost::kStatEntryBytes * 8.0 / 1e6;
        ps.polls.push_back(placement::PollModel{
            pa.subjects.empty() ? "none" : pa.subjects.front(),
            pa.inv_ival.scaled(mbps_per_poll)});
      }
      out.push_back(std::move(ps));
    }
  }
  return out;
}

placement::PlacementProblem Seeder::build_problem() const {
  placement::PlacementProblem p;
  for (Soil* soil : soils_) {
    // Dead switches are not placement candidates until they come back.
    if (node_failed(soil->node())) continue;
    // Graded health gate: with min_health_grade > 0 a switch mid
    // miss-streak (suspected but not yet declared dead) is also excluded,
    // so re-placement stops choosing flapping switches.
    if (health_grade(soil->node()) < options_.min_health_grade) continue;
    placement::SwitchModel sw;
    sw.node = soil->node();
    sw.capacity = soil->total_capacity();
    p.switches.push_back(sw);
  }
  for (const auto& [name, task] : tasks_) {
    for (const auto& ps : task.seeds) {
      // A seed whose every candidate switch is currently dead cannot exist;
      // leaving it in the problem would fail the whole task under C1. Omit
      // it instead — the task degrades to its surviving seeds, and the next
      // reoptimize after a recovery brings the seed back.
      bool any_alive = std::any_of(
          ps.candidates.begin(), ps.candidates.end(),
          [this](net::NodeId n) { return !node_failed(n); });
      if (!any_alive && !ps.candidates.empty()) continue;
      placement::SeedModel sm;
      sm.id = ps.id.to_string();
      sm.task = name;
      sm.candidates = ps.candidates;
      sm.polls = ps.polls;
      // Live seeds contribute their *current* state's utility; fresh ones
      // the initial state's.
      sm.variants = ps.variants;
      if (auto node = deployed_at(ps.id)) {
        p.current_placement[sm.id] = *node;
        Soil* soil = soil_at(*node);
        if (Seed* seed = soil->find(ps.id)) {
          p.current_alloc[sm.id] = soil->allocation(*seed);
          const auto* st = ps.image->machine.state(seed->current_state());
          if (st && st->util)
            if (const auto* ua = ps.image->utility(*st))
              sm.variants = ua->variants;
        }
      }
      p.seeds.push_back(std::move(sm));
    }
  }
  return p;
}

void Seeder::realize(const placement::PlacementResult& result) {
  // Index entries by seed id string.
  std::unordered_map<std::string, const placement::PlacementEntry*> by_id;
  for (const auto& e : result.placements) by_id[e.seed] = &e;

  for (auto& [name, task] : tasks_) {
    for (auto& ps : task.seeds) {
      const std::string key = ps.id.to_string();
      auto current = deployed_at(ps.id);
      auto it = by_id.find(key);
      if (it == by_id.end()) {
        // Unplaced: remove if running.
        if (current) soil_at(*current)->undeploy(ps.id);
        continue;
      }
      const placement::PlacementEntry& e = *it->second;
      Soil* target = soil_at(e.node);
      FARM_CHECK_MSG(target != nullptr, "placement chose unmanaged switch");
      if (!current) {
        target->deploy(ps.id, ps.image, ps.externals, e.alloc);
        ++deployments_;
        tel_->add(m_deployments_);
        continue;
      }
      if (*current == e.node) {
        // Skip byte-identical re-allocations. Beyond saving the soil
        // round-trip, this is what lets the deferred-reoptimize loop
        // terminate: set_allocation on a >90%-utilized soil re-fires the
        // depletion callback, so a realization that changes nothing must
        // not touch the soil or it would re-arm the pending flag forever.
        Seed* running = target->find(ps.id);
        if (!running || !(target->allocation(*running) == e.alloc))
          target->set_allocation(ps.id, e.alloc);
        continue;
      }
      // Live migration: ship the description + state to the target; the
      // source keeps running until the transfer completes, then execution
      // resumes at the target (§V-B). Resources are doubled meanwhile —
      // the placement already budgeted for that.
      Soil* source = soil_at(*current);
      Seed* running = source->find(ps.id);
      runtime::SeedSnapshot snap = running->snapshot();
      sim::Duration transfer =
          sim::cost::kControlPathLatency +
          sim::Duration::from_seconds(
              static_cast<double>(snap.wire_bytes()) * 8.0 /
              sim::cost::kControlLinkBandwidthBps);
      ++migrations_;
      tel_->add(m_migrations_);
      tel_->observe(m_transfer_hist_, transfer.millis());
      SeedId id = ps.id;
      auto image = ps.image;
      auto externals = ps.externals;
      auto alloc = e.alloc;
      engine_.schedule_after(
          transfer, [this, id, image, externals, alloc, source, target] {
            // The source seed's latest state travels; re-snapshot at
            // completion time for fidelity.
            Seed* still = source->find(id);
            if (!still) return;  // undeployed meanwhile
            // The target died mid-transfer: keep the seed at the source and
            // let the next reoptimize find it a new home.
            if (!target->online()) return;
            runtime::SeedSnapshot latest = still->snapshot();
            source->undeploy(id);
            target->deploy(id, image, externals, alloc, &latest);
          });
    }
  }
}

void Seeder::reoptimize_once() {
  tel_->add(m_reoptimizes_);
  // The solve itself is host computation (zero virtual time); the span marks
  // *when* placement ran so traces correlate it with the triggering fault.
  telemetry::ScopedSpan span(*tel_, track_, "reoptimize");
  FARM_PROF_SCOPE("reoptimize");
  auto problem = build_problem();
  if (options_.use_milp) {
    placement::MilpPlacementOptions mo;
    mo.timeout_seconds = options_.milp_timeout_seconds;
    last_ = placement::solve_milp_placement(problem, mo);
  } else if (options_.incremental) {
    last_ = placer_.resolve(problem);
  } else {
    last_ = placement::solve_heuristic(problem, options_.heuristic);
  }
  realize(last_);
}

void Seeder::reoptimize() {
  if (reoptimizing_) {
    // A re-placement request landed while one is already in flight (e.g. a
    // switch failed during realize, or a deploy pushed a soil into
    // depletion). Dropping it here — the old behavior — lost the request
    // for good; recursing would corrupt the in-flight realization. Defer:
    // every such request coalesces into one pass after the current one.
    reoptimize_pending_ = true;
    tel_->add(m_reopt_deferred_);
    return;
  }
  reoptimizing_ = true;
  // Bounded drain: the first iteration serves this call, later ones serve
  // requests deferred during it. Each deferred pass re-solves against the
  // post-realization fabric, so a quiescent system reaches the solver's
  // fixed point and realize() (which skips no-op allocations) raises no
  // further depletions. The cap is a safety net against a pathological
  // non-converging solve; a request still pending at the cap stays
  // recorded and is served by the next trigger.
  constexpr int kMaxPasses = 4;
  int passes = 0;
  do {
    reoptimize_pending_ = false;
    if (passes > 0) ++deferred_reoptimizes_;
    reoptimize_once();
  } while (reoptimize_pending_ && ++passes < kMaxPasses);
  reoptimizing_ = false;
  if (reoptimize_pending_) {
    FARM_LOG(kWarn) << "seeder: reoptimize still pending after " << kMaxPasses
                    << " passes; deferring to the next trigger";
  }
}

bool Seeder::lint_intake(const TaskSpec& spec) {
  FARM_PROF_SCOPE("lint");
  last_lint_.clear();
  if (!options_.lint_gate) return true;

  // Score resource estimates against the *tightest* deployed switch: the
  // smallest monitoring TCAM bank and the widest interface fan-out any
  // soil exposes (kAllIfaces polls pay for the widest chassis).
  almanac::verify::VerifyOptions vopts;
  vopts.controller = &controller_;
  vopts.externals = spec.externals;
  vopts.pcie_budget_mbps = sim::cost::kPciePollBandwidthBps / 1e6;
  for (const Soil* soil : soils_) {
    const asic::SwitchConfig& sc =
        const_cast<Soil*>(soil)->chassis().config();
    vopts.tcam_monitoring_capacity =
        soil == soils_.front()
            ? sc.tcam_monitoring_reserved
            : std::min(vopts.tcam_monitoring_capacity,
                       sc.tcam_monitoring_reserved);
    vopts.max_ifaces = std::max(vopts.max_ifaces, sc.n_ifaces);
  }

  almanac::Program program;
  try {
    program = almanac::parse_program(spec.source);
  } catch (const std::exception& e) {
    // A parse error will throw again in elaborate(); report it here as a
    // single diagnostic so the rejection path is uniform.
    last_lint_.push_back(almanac::verify::Diagnostic{
        "PARSE", almanac::verify::Severity::kError, {}, e.what(), {}});
    tel_->add(m_lint_rejected_);
    ++lint_rejections_;
    FARM_LOG(kWarn) << "seeder: task '" << spec.name
                   << "' rejected by Sickle: parse error: " << e.what();
    return false;
  }
  last_lint_ = almanac::verify::verify_program(program, spec.machines, vopts);
  if (almanac::verify::count_errors(last_lint_) == 0) return true;
  tel_->add(m_lint_rejected_);
  ++lint_rejections_;
  FARM_LOG(kWarn) << "seeder: task '" << spec.name << "' rejected by Sickle: "
                 << almanac::verify::count_errors(last_lint_)
                 << " error(s), first: " << last_lint_.front().code << " "
                 << last_lint_.front().message;
  return false;
}

std::vector<SeedId> Seeder::install_task(const TaskSpec& spec) {
  FARM_PROF_SCOPE("seeder/intake");
  FARM_PROF_COUNT("seeder.intake.tasks", 1);
  FARM_CHECK_MSG(!tasks_.count(spec.name), "task already installed");
  // Step 0 (Sickle): reject ill-formed seeds before any elaboration or
  // placement work happens — a rejected task installs nothing.
  if (!lint_intake(spec)) return {};
  InstalledTask task;
  task.spec = spec;
  task.seeds = elaborate(spec);
  tasks_.emplace(spec.name, std::move(task));
  reoptimize();
  return seeds_of_task(spec.name);
}

void Seeder::remove_task(const std::string& name) {
  FARM_PROF_SCOPE("seeder/remove");
  auto it = tasks_.find(name);
  if (it == tasks_.end()) return;
  for (const auto& ps : it->second.seeds)
    if (auto node = deployed_at(ps.id)) soil_at(*node)->undeploy(ps.id);
  tasks_.erase(it);
  reoptimize();
}

std::vector<SeedId> Seeder::seeds_of_task(const std::string& name) const {
  std::vector<SeedId> out;
  auto it = tasks_.find(name);
  if (it == tasks_.end()) return out;
  for (const auto& ps : it->second.seeds)
    if (deployed_at(ps.id)) out.push_back(ps.id);
  return out;
}

}  // namespace farm::core
