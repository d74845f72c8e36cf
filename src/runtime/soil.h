// Soil: the per-switch M&M foundation layer (§II-B b).
//
// The soil manages seed execution, tracks switch resources, and owns all
// communication between seeds and the ASIC (PCIe polling, packet probes)
// as well as with remote components. Its two headline optimizations are
// modeled faithfully because the evaluation measures them:
//   - Polling aggregation: registrations sharing a polling subject are
//     served by one PCIe transfer per group period instead of one each
//     (Fig. 8/9). Aggregation costs soil CPU, which is only significant
//     when seeds run as processes (fan-out copies) rather than threads.
//   - Seed communication: thread-seeds receive events over a shared buffer
//     (flat ~2 µs); process-seeds over a gRPC-like channel whose dispatch
//     cost grows with the number of deployed seeds (Fig. 10).
//
// Polled statistics are resolved against the chassis: interface subjects
// read port counters; flow subjects read TCAM rule counters, installing a
// monitoring-region count rule on demand (the iSTAMP-style TCAM split).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "asic/switch.h"
#include "runtime/seed.h"
#include "sim/cost_model.h"
#include "sim/engine.h"
#include "sim/metrics.h"
#include "util/rng.h"

namespace farm::runtime {

struct SoilConfig {
  // Threads in the soil process (shared buffer) vs separate processes
  // (RPC); §V-A b / §VI-E.
  bool seeds_as_threads = true;
  bool aggregate_polls = true;
  // Allocation granted to a seed when the seeder does not specify one.
  ResourcesValue default_alloc{1, 128, 32, 1};
};

// Messaging fabric the soil hands remote sends to; implemented by the FARM
// system (seeder/harvester side).
class SoilNetwork {
 public:
  virtual ~SoilNetwork() = default;
  virtual void to_harvester(const SeedId& from, net::NodeId from_switch,
                            const Value& payload) = 0;
  virtual void to_machine(const SeedId& from, net::NodeId from_switch,
                          const std::string& machine,
                          std::optional<std::int64_t> dst_switch,
                          const Value& payload) = 0;
};

class Soil {
 public:
  Soil(sim::Engine& engine, asic::SwitchChassis& chassis, SoilConfig config,
       SoilNetwork* network = nullptr);
  ~Soil();
  Soil(const Soil&) = delete;
  Soil& operator=(const Soil&) = delete;

  sim::Engine& engine() { return engine_; }
  asic::SwitchChassis& chassis() { return chassis_; }
  const SoilConfig& config() const { return config_; }
  net::NodeId node() const { return chassis_.node(); }

  // Whether the underlying switch is powered (heartbeat probes read this).
  bool online() const { return chassis_.powered(); }
  // Switch power failure: every seed, registration, poll group, and
  // allocation vanishes — the process state is gone. The soil object itself
  // survives and accepts deploys again after the chassis reboots.
  void crash();

  // --- Seed lifecycle ------------------------------------------------------
  Seed* deploy(SeedId id, std::shared_ptr<MachineImage> image,
               std::unordered_map<std::string, Value> externals,
               std::optional<ResourcesValue> allocation = std::nullopt,
               const SeedSnapshot* snapshot = nullptr);
  bool undeploy(const SeedId& id);
  Seed* find(const SeedId& id);
  std::vector<Seed*> seeds();
  std::size_t seed_count() const { return seeds_.size(); }

  // --- Resources -----------------------------------------------------------
  ResourcesValue allocation(const Seed& seed) const;
  // Reallocates and fires the seed's realloc event (placement optimizer).
  void set_allocation(const SeedId& id, const ResourcesValue& alloc);
  ResourcesValue total_capacity() const;
  ResourcesValue used_resources() const;
  using DepletionCallback = std::function<void(Soil&)>;
  void set_depletion_callback(DepletionCallback cb) {
    depletion_cb_ = std::move(cb);
  }

  // --- Called by seeds -----------------------------------------------------
  void seed_send(Seed& seed, const Value& payload, const SendTarget& target);
  void seed_exec(Seed& seed, const std::string& command);
  void refresh_triggers(Seed& seed);
  void add_monitor_rule(Seed& seed, asic::TcamRule rule);
  void remove_monitor_rule(const net::Filter& pattern);
  std::optional<asic::TcamRule> get_monitor_rule(const net::Filter& pattern);

  // --- Inbound messages (from the message bus) ------------------------------
  void deliver_to_seed(const SeedId& id, const Value& payload,
                       bool from_harvester, const std::string& from_machine,
                       std::int64_t from_switch);

  // Cost of one exec() invocation (the ML task); replaceable per workload.
  void set_exec_cost(std::function<sim::Duration(const std::string&)> fn) {
    exec_cost_ = std::move(fn);
  }

  // --- Metrics -------------------------------------------------------------
  // Latency from event availability to handler start (comm + queueing).
  const sim::Stats& delivery_latency() const { return delivery_latency_; }
  // Lateness of poll deliveries vs their nominal due time; the polling
  // accuracy of Fig. 6 is the fraction delivered within one interval.
  const sim::Stats& poll_lateness() const { return poll_lateness_; }
  std::uint64_t poll_requests_issued() const { return poll_requests_; }
  std::uint64_t poll_deliveries() const { return poll_deliveries_; }
  double polling_accuracy() const;
  // Poll transfers that timed out on a lossy/saturated PCIe channel, the
  // retries issued for them, and the polls abandoned after the retry budget.
  std::uint64_t poll_timeouts() const { return poll_timeouts_.value; }
  std::uint64_t poll_retries() const { return poll_retries_.value; }
  std::uint64_t polls_abandoned() const { return polls_abandoned_.value; }

 private:
  struct Registration {
    Seed* seed;
    almanac::Symbol var;  // the trigger variable
    almanac::TriggerType type;
    double ival_seconds;
    net::Filter what;
    std::string subject_key;          // canonical aggregation key
    sim::TimePoint next_due;
    asic::SamplerId sampler = 0;      // probe registrations
    sim::EventId timer = sim::kInvalidEvent;  // time + unaggregated polls
    // Probe reservoir: uniform choice among the packets that arrived during
    // the current gating interval (the probe period is only a lower bound,
    // §III-A a — sampling must stay unbiased across flows).
    net::PacketHeader reservoir;
    std::uint64_t reservoir_seen = 0;
  };

  // drop_orphaned_poll_rules: also remove auto-installed "soil-poll" count
  // rules left without any polling registration (undeploy path only; state
  // transitions keep them so counts accumulate across visits).
  void clear_registrations(Seed& seed, bool drop_orphaned_poll_rules);
  void register_trigger(Seed& seed, const Seed::ActiveTrigger& trig);
  // Resolves the counters a filter polls; may install count rules.
  std::vector<almanac::StatEntry> resolve_subject(const net::Filter& what);
  int subject_entry_count(const net::Filter& what);
  void schedule_poll(Registration& reg);
  struct PollGroup;
  void fire_poll_group(const PollGroup& group);
  void deliver_poll(Registration& reg, const StatsValue& stats,
                    sim::TimePoint due);
  void deliver_poll_to(const SeedId& id, almanac::Symbol var,
                       const StatsValue& stats, sim::TimePoint due);
  // PCIe poll transfer with timeout-and-retry: a lost completion (injected
  // message loss, or a crashed chassis) re-issues the request up to
  // kMaxPollRetries times before abandoning this round. `span` is the
  // telemetry poll-round span, closed on final completion or abandonment.
  void pcie_poll_request(int entries, std::function<void()> on_complete,
                         int retries_left,
                         telemetry::SpanId span = telemetry::kInvalidSpan);
  sim::Duration comm_latency() const;
  sim::TaskId cpu_task_of(const Seed& seed) const;
  void check_depletion();
  // Re-publishes the monitoring-region TCAM fill fraction gauge; called
  // wherever monitoring rules are installed or removed.
  void publish_tcam_occupancy();

  sim::Engine& engine_;
  asic::SwitchChassis& chassis_;
  SoilConfig config_;
  SoilNetwork* network_;
  std::function<sim::Duration(const std::string&)> exec_cost_;

  // Deployed seeds in deployment order, and the same seeds by id.
  std::vector<std::unique_ptr<Seed>> seeds_;
  std::unordered_map<SeedId, Seed*, SeedIdHash> by_id_;
  std::unordered_map<std::string, ResourcesValue> allocations_;  // by SeedId string
  // Registrations keyed by owning seed (raw pointer identity).
  std::vector<std::unique_ptr<Registration>> regs_;
  // Poll registrations by subject key, each group's members in regs_
  // order. With aggregation on, the group also owns the periodic task that
  // serves its members; a group outlives its last member until the next
  // refresh_triggers, as its task does.
  struct PollGroup {
    std::vector<Registration*> members;
    std::unique_ptr<sim::PeriodicTask> task;
    double period_seconds = 0;
  };
  std::unordered_map<std::string, PollGroup> groups_;

  DepletionCallback depletion_cb_;
  util::Rng rng_;
  // Granary: per-soil metrics under "soil.<switch>.*" and poll-round spans
  // (PCIe issue → stats resolved) on the "soil.<switch>" track.
  telemetry::Hub* tel_ = nullptr;
  telemetry::TrackId track_ = 0;
  telemetry::MetricId m_poll_requests_ = telemetry::kInvalidMetric;
  telemetry::MetricId m_poll_timeouts_ = telemetry::kInvalidMetric;
  telemetry::MetricId m_poll_retries_ = telemetry::kInvalidMetric;
  telemetry::MetricId m_polls_abandoned_ = telemetry::kInvalidMetric;
  telemetry::MetricId m_poll_deliveries_ = telemetry::kInvalidMetric;
  telemetry::MetricId m_poll_lateness_ms_ = telemetry::kInvalidMetric;
  // "tcam.<switch>.mon_frac": monitoring-partition occupancy in [0, 1],
  // updated on rule install/remove so Scarecrow can alert before the
  // region fills and rules start dropping.
  telemetry::MetricId m_tcam_mon_frac_ = telemetry::kInvalidMetric;
  sim::Stats delivery_latency_;
  sim::Stats poll_lateness_;
  std::uint64_t poll_requests_ = 0;
  std::uint64_t poll_deliveries_ = 0;
  sim::Counter poll_timeouts_;
  sim::Counter poll_retries_;
  sim::Counter polls_abandoned_;
};

}  // namespace farm::runtime
