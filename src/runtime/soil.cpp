#include "runtime/soil.h"

#include <algorithm>

#include "util/log.h"

namespace farm::runtime {

namespace {
constexpr sim::TaskId kSoilTask = 1;  // the soil's own CPU identity
// Lost poll transfers are re-issued at most this many times per round; a
// round that exhausts the budget is abandoned (the next periodic firing
// starts fresh).
constexpr int kMaxPollRetries = 3;
}

Soil::Soil(sim::Engine& engine, asic::SwitchChassis& chassis,
           SoilConfig config, SoilNetwork* network)
    : engine_(engine),
      chassis_(chassis),
      config_(config),
      network_(network),
      exec_cost_([](const std::string&) { return sim::Duration::ms(10); }),
      rng_(0x501Cull ^ chassis.node()) {
  tel_ = &engine_.telemetry();
  const std::string p = "soil." + chassis_.name();
  track_ = tel_->track(p);
  m_poll_requests_ = tel_->counter(p + ".poll_requests");
  m_poll_timeouts_ = tel_->counter(p + ".poll_timeouts");
  m_poll_retries_ = tel_->counter(p + ".poll_retries");
  m_polls_abandoned_ = tel_->counter(p + ".polls_abandoned");
  m_poll_deliveries_ = tel_->counter(p + ".poll_deliveries");
  m_poll_lateness_ms_ = tel_->histogram(
      p + ".poll_lateness_ms",
      telemetry::HistogramSpec::exponential(0.01, 4.0, 12));
  m_tcam_mon_frac_ = tel_->gauge("tcam." + chassis_.name() + ".mon_frac");
  publish_tcam_occupancy();
}

void Soil::publish_tcam_occupancy() {
  const int cap = chassis_.tcam().capacity(asic::TcamRegion::kMonitoring);
  if (cap <= 0) return;
  tel_->level(m_tcam_mon_frac_,
              static_cast<double>(chassis_.tcam().used(
                  asic::TcamRegion::kMonitoring)) /
                  static_cast<double>(cap));
}

Soil::~Soil() {
  for (auto& seed : seeds_) seed->stop();
  for (auto& reg : regs_) {
    engine_.cancel(reg->timer);
    if (reg->sampler) chassis_.remove_sampler(reg->sampler);
  }
}

void Soil::crash() {
  for (auto& seed : seeds_) seed->stop();
  for (auto& reg : regs_) {
    engine_.cancel(reg->timer);
    if (reg->sampler) chassis_.remove_sampler(reg->sampler);
  }
  regs_.clear();
  groups_.clear();  // periodic group tasks stop in their destructors
  by_id_.clear();
  seeds_.clear();
  allocations_.clear();
}

Seed* Soil::deploy(SeedId id, std::shared_ptr<MachineImage> image,
                   std::unordered_map<std::string, Value> externals,
                   std::optional<ResourcesValue> allocation,
                   const SeedSnapshot* snapshot) {
  FARM_CHECK_MSG(find(id) == nullptr, "seed already deployed");
  auto seed = std::make_unique<Seed>(std::move(id), std::move(image), *this,
                                     std::move(externals));
  Seed* raw = seed.get();
  raw->cpu_task_ = std::hash<std::string>{}(raw->id().to_string()) | 0x8000;
  seeds_.push_back(std::move(seed));
  by_id_.emplace(raw->id(), raw);
  allocations_[raw->id().to_string()] =
      allocation.value_or(config_.default_alloc);
  if (snapshot)
    raw->start_from(*snapshot);
  else
    raw->start();
  check_depletion();
  return raw;
}

bool Soil::undeploy(const SeedId& id) {
  Seed* seed = find(id);
  if (!seed) return false;
  seed->stop();
  clear_registrations(*seed, /*drop_orphaned_poll_rules=*/true);
  allocations_.erase(id.to_string());
  by_id_.erase(id);
  std::erase_if(seeds_, [seed](const auto& s) { return s.get() == seed; });
  return true;
}

Seed* Soil::find(const SeedId& id) {
  auto it = by_id_.find(id);
  return it == by_id_.end() ? nullptr : it->second;
}

std::vector<Seed*> Soil::seeds() {
  std::vector<Seed*> out;
  out.reserve(seeds_.size());
  for (auto& s : seeds_) out.push_back(s.get());
  return out;
}

// --- Resources ---------------------------------------------------------------

ResourcesValue Soil::allocation(const Seed& seed) const {
  auto it = allocations_.find(seed.id().to_string());
  return it == allocations_.end() ? config_.default_alloc : it->second;
}

void Soil::set_allocation(const SeedId& id, const ResourcesValue& alloc) {
  Seed* seed = find(id);
  if (!seed) return;
  allocations_[id.to_string()] = alloc;
  seed->on_realloc(alloc);
  // Poll intervals may depend on the allocation (ival = f(res)); seeds
  // whose trigger specs were initialized from res() re-arm via the realloc
  // handler; independent of that, group periods get refreshed.
  refresh_triggers(*seed);
  check_depletion();
}

ResourcesValue Soil::total_capacity() const {
  const auto& c = chassis_.config();
  return ResourcesValue{
      static_cast<double>(c.cpu_cores), static_cast<double>(c.ram_mb),
      static_cast<double>(c.tcam_monitoring_reserved),
      c.pcie_bandwidth_bps / 1e6};
}

ResourcesValue Soil::used_resources() const {
  ResourcesValue used{};
  for (const auto& [_, a] : allocations_) {
    used.vCPU += a.vCPU;
    used.RAM += a.RAM;
    used.TCAM += a.TCAM;
    used.PCIe += a.PCIe;
  }
  return used;
}

void Soil::check_depletion() {
  if (!depletion_cb_) return;
  ResourcesValue used = used_resources(), cap = total_capacity();
  auto low = [](double u, double c) { return c > 0 && u > 0.9 * c; };
  if (low(used.vCPU, cap.vCPU) || low(used.RAM, cap.RAM) ||
      low(used.TCAM, cap.TCAM) || low(used.PCIe, cap.PCIe))
    depletion_cb_(*this);
}

// --- Seed-facing services -------------------------------------------------------

sim::Duration Soil::comm_latency() const {
  using namespace sim::cost;
  if (config_.seeds_as_threads) return kSharedBufferMsgLatency;
  return kRpcMsgBaseLatency +
         kRpcPerSeedDispatch * static_cast<std::int64_t>(seeds_.size());
}

sim::TaskId Soil::cpu_task_of(const Seed& seed) const {
  return seed.cpu_task_;
}

void Soil::seed_send(Seed& seed, const Value& payload,
                     const SendTarget& target) {
  chassis_.cpu().submit(cpu_task_of(seed), sim::cost::kPollWakeupCpu);
  if (!network_) return;
  if (target.to_harvester) {
    network_->to_harvester(seed.id(), node(), payload);
  } else {
    network_->to_machine(seed.id(), node(), target.machine, target.dst,
                         payload);
  }
}

void Soil::seed_exec(Seed& seed, const std::string& command) {
  chassis_.cpu().submit(cpu_task_of(seed), exec_cost_(command));
}

void Soil::add_monitor_rule(Seed& seed, asic::TcamRule rule) {
  rule.region = asic::TcamRegion::kMonitoring;
  if (rule.note.empty()) rule.note = seed.id().to_string();
  if (!chassis_.tcam().add_rule(rule)) {
    FARM_LOG(kWarn) << seed.id().to_string()
                    << ": monitoring TCAM region full, rule dropped";
  }
  publish_tcam_occupancy();
}

void Soil::remove_monitor_rule(const net::Filter& pattern) {
  chassis_.tcam().remove_rules(pattern, asic::TcamRegion::kMonitoring);
  publish_tcam_occupancy();
}

std::optional<asic::TcamRule> Soil::get_monitor_rule(
    const net::Filter& pattern) {
  const asic::TcamRule* r =
      chassis_.tcam().find(pattern, asic::TcamRegion::kMonitoring);
  return r ? std::optional(*r) : std::nullopt;
}

void Soil::deliver_to_seed(const SeedId& id, const Value& payload,
                           bool from_harvester,
                           const std::string& from_machine,
                           std::int64_t from_switch) {
  engine_.schedule_after(
      comm_latency(),
      [this, id, payload, from_harvester, from_machine, from_switch] {
        Seed* seed = find(id);
        if (!seed) return;  // undeployed while in flight
        chassis_.cpu().submit(
            cpu_task_of(*seed), sim::cost::kPollWakeupCpu,
            [this, id, payload, from_harvester, from_machine, from_switch] {
              if (Seed* s = find(id))
                s->on_message(payload, from_harvester, from_machine,
                              from_switch);
            });
      });
}

// --- Trigger registration ---------------------------------------------------

void Soil::clear_registrations(Seed& seed, bool drop_orphaned_poll_rules) {
  // Flow-level poll subjects this seed was reading; candidates for
  // auto-installed count-rule cleanup below.
  std::vector<net::Filter> flow_subjects;
  for (auto& reg : regs_) {
    if (reg->seed != &seed) continue;
    engine_.cancel(reg->timer);
    if (reg->sampler) {
      chassis_.remove_sampler(reg->sampler);
      reg->sampler = 0;
    }
    if (reg->type != almanac::TriggerType::kPoll) continue;
    std::erase(groups_.at(reg->subject_key).members, reg.get());
    if (reg->what.iface_footprint() == 0) flow_subjects.push_back(reg->what);
  }
  std::erase_if(regs_, [&](const auto& reg) { return reg->seed == &seed; });
  // Remove "soil-poll" count rules nobody polls anymore — undeploy churn
  // must not leak monitoring TCAM entries. Seed-installed rules (different
  // note) are reaction state and stay. State transitions keep the rules:
  // a seed re-entering a polling state expects its counts to have kept
  // accumulating (e.g. the hierarchical-HH drill loop).
  if (!drop_orphaned_poll_rules) return;
  asic::Tcam& tcam = chassis_.tcam();
  for (const net::Filter& what : flow_subjects) {
    if (!groups_.at(what.canonical_key()).members.empty()) continue;
    std::vector<asic::RuleId> orphans;
    for (asic::RuleId id : tcam.rule_ids(what, asic::TcamRegion::kMonitoring))
      if (tcam.find(id)->note == "soil-poll") orphans.push_back(id);
    for (asic::RuleId id : orphans) tcam.remove_rule(id);
  }
  publish_tcam_occupancy();
}

void Soil::refresh_triggers(Seed& seed) {
  clear_registrations(seed, /*drop_orphaned_poll_rules=*/false);
  for (const auto& trig : seed.active_triggers()) register_trigger(seed, trig);

  // Rebuild aggregated poll groups: group period = min member interval.
  std::unordered_map<std::string, double> wanted;
  for (const auto& reg : regs_) {
    if (reg->type != almanac::TriggerType::kPoll || !config_.aggregate_polls)
      continue;
    auto [it, inserted] = wanted.try_emplace(reg->subject_key,
                                             reg->ival_seconds);
    if (!inserted) it->second = std::min(it->second, reg->ival_seconds);
  }
  // Drop the groups nobody polls any more: with aggregation on, exactly
  // the keys missing from `wanted`; with it off, no group has a task.
  std::erase_if(groups_,
                [](const auto& g) { return g.second.members.empty(); });
  for (const auto& [key, period] : wanted) {
    PollGroup& g = groups_.at(key);
    if (!g.task) {
      g.period_seconds = period;
      // Map nodes are stable, and the task dies with its group.
      g.task = std::make_unique<sim::PeriodicTask>(
          engine_, sim::Duration::from_seconds(period),
          [this, &g] { fire_poll_group(g); });
      g.task->start();
    } else if (g.period_seconds != period) {
      g.period_seconds = period;
      g.task->set_period(sim::Duration::from_seconds(period));
    }
  }
}

void Soil::register_trigger(Seed& seed, const Seed::ActiveTrigger& trig) {
  auto reg = std::make_unique<Registration>();
  reg->seed = &seed;
  reg->var = trig.sym;
  reg->type = trig.type;
  reg->ival_seconds = trig.spec.ival_seconds;
  reg->what = trig.spec.what;
  reg->subject_key = trig.spec.what.canonical_key();
  reg->next_due =
      engine_.now() + sim::Duration::from_seconds(trig.spec.ival_seconds);
  Registration* raw = reg.get();
  regs_.push_back(std::move(reg));
  if (raw->type == almanac::TriggerType::kPoll)
    groups_[raw->subject_key].members.push_back(raw);

  switch (trig.type) {
    case almanac::TriggerType::kTime:
      schedule_poll(*raw);  // shares the self-re-arming timer plumbing
      break;
    case almanac::TriggerType::kPoll:
      if (!config_.aggregate_polls) schedule_poll(*raw);
      // Aggregated polls are driven by their group task (refresh_triggers).
      break;
    case almanac::TriggerType::kProbe: {
      raw->sampler = chassis_.add_sampler(
          1.0, [this, raw](const net::PacketHeader& h, std::uint64_t) {
            if (!raw->what.matches(h)) return;
            // Reservoir-sample within the gating interval so the delivered
            // packet is uniform over matching arrivals, not merely the
            // first flow the traffic driver happened to tick.
            ++raw->reservoir_seen;
            if (rng_.next_below(raw->reservoir_seen) == 0) raw->reservoir = h;
            if (engine_.now() < raw->next_due) return;  // rate lower bound
            raw->next_due = engine_.now() +
                            sim::Duration::from_seconds(raw->ival_seconds);
            net::PacketHeader sample = raw->reservoir;
            raw->reservoir_seen = 0;
            // The sample crosses the PCIe bus before the seed sees it.
            SeedId id = raw->seed->id();
            almanac::Symbol var = raw->var;
            chassis_.pcie().request(1, [this, id, var, sample] {
              engine_.schedule_after(
                  comm_latency(), [this, id, var, sample] {
                    if (Seed* s = find(id))
                      chassis_.cpu().submit(
                          cpu_task_of(*s), sim::cost::kPollWakeupCpu,
                          [this, id, var, sample] {
                            if (Seed* s2 = find(id)) s2->on_probe(var, sample);
                          });
                  });
            });
          });
      break;
    }
  }
}

// Arms a per-registration timer used by time triggers and unaggregated
// polls. Fires at next_due, performs the action, then re-arms.
void Soil::schedule_poll(Registration& reg) {
  Registration* raw = &reg;
  sim::Duration delay = raw->next_due - engine_.now();
  if (!delay.is_positive()) delay = sim::Duration::ns(1);
  raw->timer = engine_.schedule_after(delay, [this, raw] {
    // The registration is alive: clear_registrations cancels this event
    // before destroying it.
    sim::TimePoint due = raw->next_due;
    raw->next_due = due + sim::Duration::from_seconds(raw->ival_seconds);
    if (raw->type == almanac::TriggerType::kTime) {
      SeedId id = raw->seed->id();
      almanac::Symbol var = raw->var;
      engine_.schedule_after(comm_latency(), [this, id, var, due] {
        if (Seed* s = find(id))
          chassis_.cpu().submit(cpu_task_of(*s), sim::cost::kPollWakeupCpu,
                                [this, id, var, due] {
                                  if (Seed* s2 = find(id)) {
                                    poll_lateness_.record(
                                        (engine_.now() - due).seconds());
                                    s2->on_time(var);
                                  }
                                });
      });
    } else {
      // Unaggregated poll: a dedicated PCIe request for this seed alone.
      ++poll_requests_;
      tel_->add(m_poll_requests_);
      int entries = subject_entry_count(raw->what);
      net::Filter what = raw->what;
      SeedId id = raw->seed->id();
      almanac::Symbol var = raw->var;
      pcie_poll_request(
          entries,
          [this, what, id, var, due] {
            StatsValue stats;
            *stats.entries = resolve_subject(what);
            // Per-request soil bookkeeping happens even without aggregation.
            chassis_.cpu().submit(kSoilTask, sim::cost::kAggregatePerSeedCpu);
            deliver_poll_to(id, var, stats, due);
          },
          kMaxPollRetries, tel_->begin_span(track_, "poll"));
    }
    schedule_poll(*raw);
  });
}

void Soil::pcie_poll_request(int entries, std::function<void()> on_complete,
                             int retries_left, telemetry::SpanId span) {
  // `done` disambiguates completion vs timeout: whichever fires first wins;
  // a completion arriving after its timeout is treated as lost (the retry
  // already owns this round).
  auto done = std::make_shared<bool>(false);
  auto timeout_ev = std::make_shared<sim::EventId>(sim::kInvalidEvent);
  chassis_.pcie().request(
      entries, [this, done, timeout_ev, on_complete, span] {
        if (*done) return;
        *done = true;
        engine_.cancel(*timeout_ev);
        tel_->end_span(track_, span);
        on_complete();
      });
  // The deadline adapts to congestion: twice the channel's current backlog
  // (which includes this request) plus fixed slack.
  sim::Duration wait = chassis_.pcie().backlog() * 2 + sim::Duration::ms(1);
  *timeout_ev = engine_.schedule_after(
      wait, [this, done, entries, on_complete, retries_left, span] {
        if (*done) return;
        *done = true;
        poll_timeouts_.add();
        tel_->add(m_poll_timeouts_);
        if (retries_left > 0) {
          poll_retries_.add();
          tel_->add(m_poll_retries_);
          pcie_poll_request(entries, on_complete, retries_left - 1, span);
        } else {
          polls_abandoned_.add();
          tel_->add(m_polls_abandoned_);
          tel_->end_span(track_, span);
        }
      });
}

void Soil::fire_poll_group(const PollGroup& group) {
  const std::vector<Registration*>& members = group.members;
  if (members.empty()) return;
  const net::Filter what = members.back()->what;

  // Which members are due by now (group fires at min period)?
  std::vector<std::pair<SeedId, almanac::Symbol>> due_targets;
  std::vector<sim::TimePoint> due_times;
  sim::TimePoint now = engine_.now();
  for (Registration* m : members) {
    if (m->next_due > now) continue;
    due_targets.emplace_back(m->seed->id(), m->var);
    due_times.push_back(m->next_due);
    // Catch up without bursting.
    m->next_due =
        std::max(m->next_due + sim::Duration::from_seconds(m->ival_seconds),
                 now);
  }
  if (due_targets.empty()) return;

  // One PCIe transfer serves the whole group — the aggregation benefit.
  ++poll_requests_;
  tel_->add(m_poll_requests_);
  int entries = subject_entry_count(what);
  bool as_threads = config_.seeds_as_threads;
  pcie_poll_request(
      entries,
      [this, what, due_targets, due_times, as_threads] {
        StatsValue stats;
        *stats.entries = resolve_subject(what);
        // Soil-side aggregation cost: per served seed, plus an extra
        // fan-out copy for process-seeds (Fig. 9).
        sim::Duration agg_cpu =
            sim::cost::kAggregatePerSeedCpu *
            static_cast<std::int64_t>(due_targets.size());
        if (!as_threads)
          agg_cpu += sim::cost::kProcessFanoutCpu *
                     static_cast<std::int64_t>(due_targets.size());
        chassis_.cpu().submit(kSoilTask, agg_cpu);
        for (std::size_t i = 0; i < due_targets.size(); ++i)
          deliver_poll_to(due_targets[i].first, due_targets[i].second, stats,
                          due_times[i]);
      },
      kMaxPollRetries, tel_->begin_span(track_, "poll_group"));
}

void Soil::deliver_poll(Registration& reg, const StatsValue& stats,
                        sim::TimePoint due) {
  deliver_poll_to(reg.seed->id(), reg.var, stats, due);
}

void Soil::deliver_poll_to(const SeedId& id, almanac::Symbol var,
                           const StatsValue& stats, sim::TimePoint due) {
  sim::TimePoint available = engine_.now();
  std::size_t n_entries = stats.entries->size();
  engine_.schedule_after(
      comm_latency(), [this, id, var, stats, due, available, n_entries] {
        Seed* seed = find(id);
        if (!seed) return;
        // Communication latency is measured here — at IPC arrival, before
        // the handler queues for CPU (what Fig. 10 plots); handler-side
        // queueing shows up in poll lateness instead.
        delivery_latency_.record((engine_.now() - available).seconds());
        sim::Duration handler_cpu =
            sim::cost::kPollWakeupCpu +
            sim::cost::kPollEntryCpu * static_cast<std::int64_t>(n_entries);
        chassis_.cpu().submit(
            cpu_task_of(*seed), handler_cpu,
            [this, id, var, stats, due] {
              Seed* s = find(id);
              if (!s) return;
              ++poll_deliveries_;
              tel_->add(m_poll_deliveries_);
              poll_lateness_.record((engine_.now() - due).seconds());
              tel_->observe(m_poll_lateness_ms_, (engine_.now() - due).millis());
              s->on_poll(var, stats);
            });
      });
}

std::vector<almanac::StatEntry> Soil::resolve_subject(
    const net::Filter& what) {
  std::vector<almanac::StatEntry> out;
  int fp = what.iface_footprint();
  if (fp == net::Filter::kAllIfaces) {
    for (int i = 0; i < chassis_.n_ifaces(); ++i) {
      const auto& p = chassis_.port_stats(i);
      out.push_back({"port:" + std::to_string(i), i, asic::kInvalidRule,
                     p.tx_packets, p.tx_bytes});
    }
    return out;
  }
  if (fp > 0) {
    for (std::int32_t i : what.iface_atoms()) {
      if (i < 0 || i >= chassis_.n_ifaces()) continue;
      const auto& p = chassis_.port_stats(i);
      out.push_back({"port:" + std::to_string(i), i, asic::kInvalidRule,
                     p.tx_packets, p.tx_bytes});
    }
    return out;
  }
  // Flow-level subject: read (or install) a monitoring count rule.
  const asic::TcamRule* rule =
      chassis_.tcam().find(what, asic::TcamRegion::kMonitoring);
  if (!rule) {
    asic::TcamRule r;
    r.pattern = what;
    r.action = asic::RuleAction::kCount;
    r.note = "soil-poll";
    auto id = chassis_.tcam().add_rule(r);
    if (!id) return out;  // monitoring region full
    rule = chassis_.tcam().find(*id);
    publish_tcam_occupancy();
  }
  out.push_back({what.canonical_key(), -1, rule->id, rule->hit_packets,
                 rule->hit_bytes});
  return out;
}

int Soil::subject_entry_count(const net::Filter& what) {
  int fp = what.iface_footprint();
  if (fp == net::Filter::kAllIfaces) return chassis_.n_ifaces();
  if (fp > 0) return fp;
  return 1;
}

double Soil::polling_accuracy() const {
  if (poll_lateness_.empty()) return 1.0;
  // A delivery is accurate when its lateness stays within 10 ms — one
  // polling interval of the paper's coarse setting. Under CPU saturation
  // the handler queue grows and this fraction collapses (Fig. 6).
  return static_cast<double>(poll_lateness_.count_below(0.010)) /
         static_cast<double>(poll_lateness_.count());
}

}  // namespace farm::runtime
