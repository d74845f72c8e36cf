#include "runtime/seed.h"

#include "almanac/analysis.h"
#include "runtime/soil.h"
#include "runtime/wire.h"
#include "util/log.h"

namespace farm::runtime {

std::size_t SeedSnapshot::wire_bytes() const {
  std::size_t n = 16 + current_state.size();
  for (const auto& [name, v] : machine_vars)
    n += name.size() + value_wire_bytes(v);
  return n;
}

Seed::Seed(SeedId id, std::shared_ptr<MachineImage> image, Soil& soil,
           std::unordered_map<std::string, Value> externals)
    : id_(std::move(id)),
      image_(std::move(image)),
      soil_(soil),
      interp_(image_->machine, this) {
  set_state(image_->machine.initial_state);
  tel_ = &soil_.engine().telemetry();
  m_handlers_ = tel_->counter("seed.handlers");
  m_transits_ = tel_->counter("seed.transits");
  // Initialize machine variables: externals override initializers.
  for (const auto* v : image_->machine.vars) {
    auto ext = externals.find(v->name);
    if (ext != externals.end()) {
      FARM_CHECK_MSG(v->external,
                     "binding supplied for non-external variable");
      env_.define(v->sym, ext->second);
      continue;
    }
    if (v->init) {
      env_.define(v->sym, interp_.eval(*v->init, env_));
    } else if (v->trigger) {
      env_.define(v->sym, Value(almanac::TriggerSpec{}));
    } else {
      env_.define(v->sym, almanac::Interpreter::default_value(v->type));
    }
  }
}

Seed::~Seed() = default;

void Seed::start() {
  FARM_CHECK(!started_);
  started_ = true;
  fire_simple(almanac::EventDecl::TriggerKind::kEnter);
  apply_pending_transit();
  soil_.refresh_triggers(*this);
}

void Seed::start_from(const SeedSnapshot& snapshot) {
  FARM_CHECK(!started_);
  started_ = true;
  set_state(snapshot.current_state);
  FARM_CHECK_MSG(state() != nullptr, "snapshot references unknown state");
  for (const auto& [name, v] : snapshot.machine_vars) {
    // Only known machine variables are restored.
    if (const almanac::VarDecl* vd = image_->machine.var(name))
      env_.define(vd->sym, v);
  }
  // Migration resumes execution without re-running enter handlers — the
  // seed continues exactly where it left off (§V-B).
  soil_.refresh_triggers(*this);
}

void Seed::stop() {
  if (!started_) return;
  started_ = false;
}

SeedSnapshot Seed::snapshot() const {
  SeedSnapshot s;
  s.current_state = current_state_;
  s.machine_vars = env_.own();
  return s;
}

void Seed::run_handler(const std::vector<almanac::ActionPtr>& actions,
                       almanac::Symbol bind, const Value& bind_value) {
  Env scope(&env_);
  if (bind != almanac::kNoSymbol) scope.define(bind, bind_value);
  tel_->count(m_handlers_);  // fleet-hot: keep it off the event ring
  try {
    interp_.exec(actions, scope);
  } catch (const almanac::EvalError& e) {
    FARM_LOG(kWarn) << id_.to_string() << ": handler error: " << e.what();
  }
  apply_pending_transit();
}

void Seed::fire_simple(almanac::EventDecl::TriggerKind kind) {
  const almanac::CompiledState* st = state();
  if (!st) return;
  for (const auto* ev : st->events)
    if (ev->kind == kind) run_handler(ev->actions, almanac::kNoSymbol, Value());
}

void Seed::apply_pending_transit() {
  while (pending_transit_) {
    if (++transit_depth_ > kMaxTransitChain) {
      FARM_LOG(kWarn) << id_.to_string() << ": transit chain too deep";
      pending_transit_.reset();
      break;
    }
    std::string target = *pending_transit_;
    pending_transit_.reset();
    if (target == current_state_) continue;
    // exit handlers of the old state.
    const almanac::CompiledState* st = state();
    if (st)
      for (const auto* ev : st->events)
        if (ev->kind == almanac::EventDecl::TriggerKind::kExit) {
          Env scope(&env_);
          try {
            interp_.exec(ev->actions, scope);
          } catch (const almanac::EvalError& e) {
            FARM_LOG(kWarn) << id_.to_string() << ": exit error: " << e.what();
          }
        }
    set_state(target);
    tel_->add(m_transits_);
    // enter handlers of the new state (may request further transits —
    // handled by the loop).
    st = state();
    if (st)
      for (const auto* ev : st->events)
        if (ev->kind == almanac::EventDecl::TriggerKind::kEnter) {
          Env scope(&env_);
          try {
            interp_.exec(ev->actions, scope);
          } catch (const almanac::EvalError& e) {
            FARM_LOG(kWarn) << id_.to_string()
                            << ": enter error: " << e.what();
          }
        }
    if (started_) soil_.refresh_triggers(*this);
  }
  transit_depth_ = 0;
}

void Seed::fire_var_trigger(almanac::Symbol var, const Value& bound) {
  if (!started_) return;
  const almanac::CompiledState* st = state();
  if (!st) return;
  for (const auto* ev : st->events) {
    if (ev->kind != almanac::EventDecl::TriggerKind::kVarTrigger ||
        ev->var_sym != var)
      continue;
    run_handler(ev->actions, ev->as_sym, bound);
  }
}

void Seed::on_poll(almanac::Symbol var, const StatsValue& stats) {
  fire_var_trigger(var, Value(stats));
}

void Seed::on_probe(almanac::Symbol var, const net::PacketHeader& packet) {
  fire_var_trigger(var, Value(packet));
}

void Seed::on_time(almanac::Symbol var) {
  fire_var_trigger(var, Value(now_ms()));
}

void Seed::on_poll(const std::string& var, const StatsValue& stats) {
  on_poll(almanac::find_symbol(var), stats);
}

void Seed::on_probe(const std::string& var, const net::PacketHeader& packet) {
  on_probe(almanac::find_symbol(var), packet);
}

void Seed::on_time(const std::string& var) {
  on_time(almanac::find_symbol(var));
}

void Seed::on_message(const Value& payload, bool from_harvester,
                      const std::string& from_machine,
                      std::int64_t /*from_switch*/) {
  if (!started_) return;
  const almanac::CompiledState* st = state();
  if (!st) return;
  for (const auto* ev : st->events) {
    if (ev->kind != almanac::EventDecl::TriggerKind::kRecv) continue;
    if (ev->from_harvester != from_harvester) continue;
    if (!from_harvester && !ev->from_machine.empty() &&
        ev->from_machine != from_machine)
      continue;
    // Pattern matching: the payload type must match the declared formal.
    if (!almanac::Interpreter::matches_type(payload, ev->recv_type)) continue;
    run_handler(ev->actions, ev->recv_sym, payload);
    return;  // first matching handler consumes the message
  }
}

void Seed::on_realloc(const ResourcesValue& resources) {
  if (!started_) return;
  const almanac::CompiledState* st = state();
  if (!st) return;
  for (const auto* ev : st->events)
    if (ev->kind == almanac::EventDecl::TriggerKind::kRealloc)
      run_handler(ev->actions, almanac::kNoSymbol, Value(resources));
}

std::vector<Seed::ActiveTrigger> Seed::active_triggers() const {
  std::vector<ActiveTrigger> out;
  const almanac::CompiledState* st = state();
  if (!st) return out;
  for (const auto* ev : st->events) {
    if (ev->kind != almanac::EventDecl::TriggerKind::kVarTrigger) continue;
    const almanac::VarDecl* vd = image_->machine.var(ev->var_sym);
    if (!vd || !vd->trigger) continue;
    const Value* val = env_.find(ev->var_sym);
    if (!val) continue;
    ActiveTrigger t;
    t.var = ev->var;
    t.sym = ev->var_sym;
    t.type = *vd->trigger;
    if (val->is_trigger()) {
      t.spec = val->as_trigger();
    } else if (val->is_numeric()) {
      // `time t = 0.5;` — plain period in seconds.
      t.spec.ival_seconds = val->as_float();
    } else {
      continue;
    }
    if (t.spec.ival_seconds <= 0) continue;  // disarmed
    out.push_back(std::move(t));
  }
  return out;
}

double Seed::utility(const ResourcesValue& r) const {
  const almanac::CompiledState* st = state();
  if (!st) return almanac::default_utility().utility(r);
  const almanac::UtilityAnalysis* ua = image_->utility(*st);
  return ua ? ua->utility(r) : 0;
}

// --- SeedHost ---------------------------------------------------------------

ResourcesValue Seed::resources() { return soil_.allocation(*this); }

void Seed::add_tcam_rule(const asic::TcamRule& rule) {
  soil_.add_monitor_rule(*this, rule);
}

void Seed::remove_tcam_rule(const net::Filter& pattern) {
  soil_.remove_monitor_rule(pattern);
}

std::optional<asic::TcamRule> Seed::get_tcam_rule(const net::Filter& pattern) {
  return soil_.get_monitor_rule(pattern);
}

void Seed::send(const Value& payload, const SendTarget& target) {
  soil_.seed_send(*this, payload, target);
}

void Seed::exec(const std::string& command) { soil_.seed_exec(*this, command); }

void Seed::request_transit(const std::string& state) {
  pending_transit_ = state;
}

void Seed::trigger_updated(const std::string& /*var*/) {
  if (started_) soil_.refresh_triggers(*this);
}

std::int64_t Seed::switch_id() {
  return static_cast<std::int64_t>(soil_.node());
}

std::int64_t Seed::now_ms() {
  return soil_.engine().now().count_ns() / 1'000'000;
}

void Seed::log(const std::string& message) {
  FARM_LOG(kInfo) << id_.to_string() << ": " << message;
}

}  // namespace farm::runtime
