// Seed: a deployed state-machine instance executing on a switch (§II-B a).
//
// The seed owns its Almanac environment (machine variables + external
// bindings), tracks the current state, and reacts to events delivered by
// its soil: poll snapshots, probe samples, timer ticks, messages, and
// resource reallocations. All switch/network effects go through the soil.
// Transitions requested during a handler are deferred until the handler
// finishes (transit-at-end semantics of the HH example), running exit and
// enter handlers in order.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "almanac/interp.h"
#include "runtime/machine_image.h"
#include "sim/cpu.h"
#include "telemetry/hub.h"
#include "util/time.h"

namespace farm::runtime {

class Soil;

using almanac::Env;
using almanac::ResourcesValue;
using almanac::SendTarget;
using almanac::StatsValue;
using almanac::Value;

// Globally unique seed identity.
struct SeedId {
  std::string task;
  std::string machine;
  int index = 0;  // among the machine's seeds in the task

  std::string to_string() const {
    return task + "/" + machine + "#" + std::to_string(index);
  }
  friend bool operator==(const SeedId&, const SeedId&) = default;
};

struct SeedIdHash {
  std::size_t operator()(const SeedId& id) const noexcept {
    std::size_t h = std::hash<std::string>{}(id.task);
    h ^= std::hash<std::string>{}(id.machine) + 0x9e3779b97f4a7c15ull +
         (h << 6) + (h >> 2);
    return h ^ (std::hash<int>{}(id.index) + 0x9e3779b97f4a7c15ull +
                (h << 6) + (h >> 2));
  }
};

// Serializable seed state for migration: the machine env bindings and the
// current state name (the paper transfers exactly this, §V-B).
struct SeedSnapshot {
  std::string current_state;
  std::unordered_map<std::string, Value> machine_vars;
  // Approximate wire size, for migration cost accounting.
  std::size_t wire_bytes() const;
};

class Seed : public almanac::SeedHost {
 public:
  // `externals` binds the machine's external variables (§III-A a).
  Seed(SeedId id, std::shared_ptr<MachineImage> image, Soil& soil,
       std::unordered_map<std::string, Value> externals);
  ~Seed() override;

  const SeedId& id() const { return id_; }
  const almanac::CompiledMachine& machine() const { return image_->machine; }
  const std::string& current_state() const { return current_state_; }
  bool started() const { return started_; }

  // Enters the initial state (or the snapshot's state) and registers
  // triggers with the soil.
  void start();
  void start_from(const SeedSnapshot& snapshot);
  // Unregisters triggers; the seed stops reacting.
  void stop();

  SeedSnapshot snapshot() const;

  // --- Event delivery (called by the soil) --------------------------------
  void on_poll(const std::string& var, const StatsValue& stats);
  void on_probe(const std::string& var, const net::PacketHeader& packet);
  void on_time(const std::string& var);
  void on_message(const Value& payload, bool from_harvester,
                  const std::string& from_machine,
                  std::int64_t from_switch);
  void on_realloc(const ResourcesValue& resources);

  // Trigger variables whose events the *current* state listens to, with
  // their current specs — the soil polls exactly these.
  struct ActiveTrigger {
    std::string var;
    almanac::TriggerType type;
    almanac::TriggerSpec spec;
  };
  std::vector<ActiveTrigger> active_triggers() const;

  // Utility callback of the current state, evaluated at an allocation.
  double utility(const ResourcesValue& r) const;

  // --- SeedHost ------------------------------------------------------------
  ResourcesValue resources() override;
  void add_tcam_rule(const asic::TcamRule& rule) override;
  void remove_tcam_rule(const net::Filter& pattern) override;
  std::optional<asic::TcamRule> get_tcam_rule(
      const net::Filter& pattern) override;
  void send(const Value& payload, const SendTarget& target) override;
  void exec(const std::string& command) override;
  void request_transit(const std::string& state) override;
  void trigger_updated(const std::string& var) override;
  std::int64_t switch_id() override;
  std::int64_t now_ms() override;
  void log(const std::string& message) override;

 private:
  friend class Soil;

  // Runs an event's actions in a fresh scope (with optional binding), then
  // applies any deferred transition.
  void run_handler(const std::vector<almanac::ActionPtr>& actions,
                   const std::string& bind_name, const Value& bind_value);
  void apply_pending_transit();
  void fire_simple(almanac::EventDecl::TriggerKind kind);
  const almanac::CompiledState* state() const {
    return image_->machine.state(current_state_);
  }

  SeedId id_;
  std::shared_ptr<MachineImage> image_;
  Soil& soil_;
  // The soil's CPU identity for this seed, set once by Soil::deploy.
  sim::TaskId cpu_task_ = 0;
  // Granary: fleet-wide seed activity (shared counters — seeds are too
  // numerous for per-instance metric names).
  telemetry::Hub* tel_ = nullptr;
  telemetry::MetricId m_handlers_ = telemetry::kInvalidMetric;
  telemetry::MetricId m_transits_ = telemetry::kInvalidMetric;
  Env env_;  // machine-level environment
  std::string current_state_;
  std::optional<std::string> pending_transit_;
  almanac::Interpreter interp_;
  bool started_ = false;
  int transit_depth_ = 0;
  static constexpr int kMaxTransitChain = 64;
};

}  // namespace farm::runtime
