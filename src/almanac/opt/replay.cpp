#include "almanac/opt/replay.h"

#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <unordered_set>
#include <vector>

#include "almanac/analysis.h"
#include "almanac/interp.h"
#include "util/rng.h"

namespace farm::almanac::opt {

namespace {

using verify::absint::AbsVal;
using verify::absint::Analysis;

std::string rule_key(const asic::TcamRule& r) {
  char buf[64];
  std::snprintf(buf, sizeof buf, " p%d a%d rl%.3f ", r.priority,
                static_cast<int>(r.action), r.rate_limit_bps);
  return r.pattern.canonical_key() + buf + r.note;
}

// A seed runtime clone over a deterministic host. Event dispatch,
// environment construction, and error handling mirror runtime::Seed
// statement for statement (src/runtime/seed.cpp) — the point of the
// harness is to compare machines under the *real* execution semantics —
// with every host effect appended to a transcript instead of hitting a
// soil.
class MiniSeed : public SeedHost {
 public:
  MiniSeed(const CompiledMachine& m,
           const std::unordered_map<std::string, Value>& externals,
           std::vector<std::string>& transcript)
      : m_(m),
        transcript_(transcript),
        utilities_(m),
        interp_(m, this) {
    set_state(m.initial_state);
    for (const auto* v : m_.vars) {
      auto ext = externals.find(v->name);
      if (ext != externals.end() && v->external) {
        env_.define(v->sym, ext->second);
        continue;
      }
      if (v->init) {
        env_.define(v->sym, interp_.eval(*v->init, env_));  // may throw
      } else if (v->trigger) {
        env_.define(v->sym, Value(TriggerSpec{}));
      } else {
        env_.define(v->sym, Interpreter::default_value(v->type));
      }
    }
  }

  const std::string& current_state() const { return current_state_; }
  const Env& env() const { return env_; }

  void start() {
    fire_simple(EventDecl::TriggerKind::kEnter);
    apply_pending_transit();
  }

  void on_poll(const std::string& var, const StatsValue& stats) {
    fire_var_trigger(find_symbol(var), Value(stats));
  }

  void on_probe(const std::string& var, const net::PacketHeader& packet) {
    fire_var_trigger(find_symbol(var), Value(packet));
  }

  void on_time(const std::string& var) {
    fire_var_trigger(find_symbol(var), Value(now_ms()));
  }

  void on_message(const Value& payload, bool from_harvester,
                  const std::string& from_machine) {
    const CompiledState* st = state();
    if (!st) return;
    for (const auto* ev : st->events) {
      if (ev->kind != EventDecl::TriggerKind::kRecv) continue;
      if (ev->from_harvester != from_harvester) continue;
      if (!from_harvester && !ev->from_machine.empty() &&
          ev->from_machine != from_machine)
        continue;
      if (!Interpreter::matches_type(payload, ev->recv_type)) continue;
      run_handler(ev->actions, ev->recv_sym, payload);
      return;  // first matching handler consumes the message
    }
  }

  void on_realloc(const ResourcesValue& resources) {
    alloc_ = resources;
    const CompiledState* st = state();
    if (!st) return;
    for (const auto* ev : st->events)
      if (ev->kind == EventDecl::TriggerKind::kRealloc)
        run_handler(ev->actions, kNoSymbol, Value(resources));
  }

  double utility(const ResourcesValue& r) const {
    const CompiledState* st = state();
    if (!st) return default_utility().utility(r);
    const UtilityAnalysis* ua = utilities_.find(m_, *st);
    return ua ? ua->utility(r) : 0;
  }

  void set_now_ms(std::int64_t now) { now_ms_ = now; }
  void set_alloc(const ResourcesValue& r) { alloc_ = r; }

  // --- SeedHost -------------------------------------------------------------
  ResourcesValue resources() override { return alloc_; }
  void add_tcam_rule(const asic::TcamRule& rule) override {
    transcript_.push_back("tcam+ " + rule_key(rule));
    store_[rule.pattern.canonical_key()] = rule;
  }
  void remove_tcam_rule(const net::Filter& pattern) override {
    transcript_.push_back("tcam- " + pattern.canonical_key());
    store_.erase(pattern.canonical_key());
  }
  std::optional<asic::TcamRule> get_tcam_rule(
      const net::Filter& pattern) override {
    transcript_.push_back("tcam? " + pattern.canonical_key());
    auto it = store_.find(pattern.canonical_key());
    if (it == store_.end()) return std::nullopt;
    return it->second;
  }
  void send(const Value& payload, const SendTarget& target) override {
    std::string to = target.to_harvester ? "harvester" : target.machine;
    if (target.dst) to += "@" + std::to_string(*target.dst);
    transcript_.push_back("send " + to + " " + payload.to_string());
  }
  void exec(const std::string& command) override {
    transcript_.push_back("exec " + command);
  }
  void request_transit(const std::string& state) override {
    transcript_.push_back("transit-req " + state);
    pending_transit_ = state;
  }
  void trigger_updated(const std::string& var) override {
    transcript_.push_back("trig " + var);
  }
  std::int64_t switch_id() override { return 7; }
  std::int64_t now_ms() override { return now_ms_; }
  void log(const std::string& message) override {
    transcript_.push_back("log " + message);
  }

 private:
  const CompiledState* state() const { return state_; }
  void set_state(const std::string& name) {
    current_state_ = name;
    state_ = m_.state(current_state_);
  }

  void fire_var_trigger(Symbol var, const Value& bound) {
    const CompiledState* st = state();
    if (!st) return;
    for (const auto* ev : st->events) {
      if (ev->kind != EventDecl::TriggerKind::kVarTrigger ||
          ev->var_sym != var)
        continue;
      run_handler(ev->actions, ev->as_sym, bound);
    }
  }

  void run_handler(const std::vector<ActionPtr>& actions, Symbol bind,
                   const Value& bind_value) {
    Env scope(&env_);
    if (bind != kNoSymbol) scope.define(bind, bind_value);
    try {
      interp_.exec(actions, scope);
    } catch (const EvalError& e) {
      transcript_.push_back(std::string("handler-err ") + e.what());
    }
    apply_pending_transit();
  }

  void fire_simple(EventDecl::TriggerKind kind) {
    const CompiledState* st = state();
    if (!st) return;
    for (const auto* ev : st->events)
      if (ev->kind == kind) run_handler(ev->actions, kNoSymbol, Value());
  }

  void apply_pending_transit() {
    while (pending_transit_) {
      if (++transit_depth_ > kMaxTransitChain) {
        transcript_.push_back("chain-cut");
        pending_transit_.reset();
        break;
      }
      std::string target = *pending_transit_;
      pending_transit_.reset();
      if (target == current_state_) continue;
      const CompiledState* st = state();
      if (st)
        for (const auto* ev : st->events)
          if (ev->kind == EventDecl::TriggerKind::kExit) {
            Env scope(&env_);
            try {
              interp_.exec(ev->actions, scope);
            } catch (const EvalError& e) {
              transcript_.push_back(std::string("exit-err ") + e.what());
            }
          }
      set_state(target);
      transcript_.push_back("enter " + target);
      st = state();
      if (st)
        for (const auto* ev : st->events)
          if (ev->kind == EventDecl::TriggerKind::kEnter) {
            Env scope(&env_);
            try {
              interp_.exec(ev->actions, scope);
            } catch (const EvalError& e) {
              transcript_.push_back(std::string("enter-err ") + e.what());
            }
          }
    }
    transit_depth_ = 0;
  }

  const CompiledMachine& m_;
  std::vector<std::string>& transcript_;
  StateUtilities utilities_;
  Env env_;
  std::string current_state_;
  const CompiledState* state_ = nullptr;
  std::optional<std::string> pending_transit_;
  Interpreter interp_;
  std::unordered_map<std::string, asic::TcamRule> store_;
  ResourcesValue alloc_{2, 512, 128, 4};
  std::int64_t now_ms_ = 1000;
  int transit_depth_ = 0;
  static constexpr int kMaxTransitChain = 64;
};

// Event menu drawn from the machine declaration (identical for original
// and optimized: the optimizer never touches trigger registers or recv
// signatures of surviving handlers, and only unreachable states' handlers
// disappear — which no event stream can steer either machine into).
struct EventMenu {
  std::vector<std::string> poll_vars;
  std::vector<std::string> probe_vars;
  std::vector<std::string> time_vars;
  struct RecvSpec {
    bool from_harvester;
    std::string from_machine;
  };
  std::vector<RecvSpec> recvs;
};

EventMenu build_menu(const CompiledMachine& m) {
  EventMenu menu;
  for (const auto* v : m.vars) {
    if (!v->trigger) continue;
    switch (*v->trigger) {
      case TriggerType::kPoll:
        menu.poll_vars.push_back(v->name);
        break;
      case TriggerType::kProbe:
        menu.probe_vars.push_back(v->name);
        break;
      case TriggerType::kTime:
        menu.time_vars.push_back(v->name);
        break;
    }
  }
  std::unordered_set<const EventDecl*> seen;
  for (const auto& s : m.states)
    for (const auto* ev : s.events) {
      if (!seen.insert(ev).second) continue;
      if (ev->kind != EventDecl::TriggerKind::kRecv) continue;
      menu.recvs.push_back({ev->from_harvester, ev->from_machine});
    }
  return menu;
}

Value random_payload(util::Rng& rng) {
  switch (rng.next_below(4)) {
    case 0:
      return Value(rng.next_int(-100, 1000));
    case 1:
      return Value(rng.next_double(-10.0, 10.0));
    case 2:
      return Value("msg" + std::to_string(rng.next_below(8)));
    default:
      return Value(rng.next_bool(0.5));
  }
}

StatsValue random_stats(util::Rng& rng, int max_ifaces) {
  StatsValue sv;
  int n = static_cast<int>(rng.next_below(
      static_cast<std::uint64_t>(max_ifaces) + 1));
  for (int i = 0; i < n; ++i) {
    StatEntry e;
    e.subject = "eth" + std::to_string(i);
    e.iface = i;
    e.rule = rng.next_below(4) == 0 ? asic::kInvalidRule
                                    : static_cast<asic::RuleId>(i + 1);
    e.packets = static_cast<std::uint64_t>(rng.next_int(0, 1'000'000));
    e.bytes = e.packets * static_cast<std::uint64_t>(rng.next_int(64, 1500));
    sv.entries->push_back(std::move(e));
  }
  return sv;
}

net::PacketHeader random_packet(util::Rng& rng) {
  net::PacketHeader p;
  p.src_ip = net::Ipv4(static_cast<std::uint32_t>(rng.next_u64()));
  p.dst_ip = net::Ipv4(static_cast<std::uint32_t>(rng.next_u64()));
  p.src_port = static_cast<std::uint16_t>(rng.next_below(65536));
  p.dst_port = static_cast<std::uint16_t>(rng.next_below(1024));
  p.proto = rng.next_bool(0.7) ? net::Proto::kTcp : net::Proto::kUdp;
  p.flags.syn = rng.next_bool(0.3);
  p.flags.ack = rng.next_bool(0.5);
  p.flags.fin = rng.next_bool(0.1);
  p.size_bytes = static_cast<std::uint32_t>(rng.next_int(64, 1500));
  return p;
}

// One event of the seeded script, drawn once and delivered to every
// machine under comparison.
struct ScriptEvent {
  enum Kind { kPoll, kProbe, kTime, kRecv, kRealloc } kind = kRealloc;
  std::string var;
  StatsValue stats;
  net::PacketHeader packet;
  Value payload;
  bool from_harvester = false;
  std::string from;
  ResourcesValue resources;
};

// Advances `now` and draws the next event the machine can actually
// receive; realloc is always deliverable.
ScriptEvent draw_event(util::Rng& rng, const EventMenu& menu,
                       const ReplayOptions& opts, std::int64_t& now) {
  now += rng.next_int(1, 500);
  ScriptEvent ev;
  for (int tries = 0; tries < 8; ++tries) {
    switch (rng.next_below(5)) {
      case 0:
        if (menu.poll_vars.empty()) continue;
        ev.kind = ScriptEvent::kPoll;
        break;
      case 1:
        if (menu.probe_vars.empty()) continue;
        ev.kind = ScriptEvent::kProbe;
        break;
      case 2:
        if (menu.time_vars.empty()) continue;
        ev.kind = ScriptEvent::kTime;
        break;
      case 3:
        if (menu.recvs.empty()) continue;
        ev.kind = ScriptEvent::kRecv;
        break;
      default:
        ev.kind = ScriptEvent::kRealloc;
        break;
    }
    break;
  }
  switch (ev.kind) {
    case ScriptEvent::kPoll:
      ev.var = menu.poll_vars[rng.next_below(menu.poll_vars.size())];
      ev.stats = random_stats(rng, opts.max_ifaces);
      break;
    case ScriptEvent::kProbe:
      ev.var = menu.probe_vars[rng.next_below(menu.probe_vars.size())];
      ev.packet = random_packet(rng);
      break;
    case ScriptEvent::kTime:
      ev.var = menu.time_vars[rng.next_below(menu.time_vars.size())];
      break;
    case ScriptEvent::kRecv: {
      const auto& spec = menu.recvs[rng.next_below(menu.recvs.size())];
      ev.from_harvester = spec.from_harvester;
      ev.from = spec.from_machine.empty()
                    ? "peer" + std::to_string(rng.next_below(3))
                    : spec.from_machine;
      ev.payload = random_payload(rng);
      break;
    }
    case ScriptEvent::kRealloc:
      ev.resources.vCPU = rng.next_double(0.5, 8.0);
      ev.resources.RAM = rng.next_double(64, 4096);
      ev.resources.TCAM = static_cast<double>(rng.next_int(8, 1024));
      ev.resources.PCIe = rng.next_double(0.5, 8.0);
      break;
  }
  return ev;
}

void deliver(MiniSeed& s, const ScriptEvent& ev) {
  switch (ev.kind) {
    case ScriptEvent::kPoll:
      s.on_poll(ev.var, ev.stats);
      break;
    case ScriptEvent::kProbe:
      s.on_probe(ev.var, ev.packet);
      break;
    case ScriptEvent::kTime:
      s.on_time(ev.var);
      break;
    case ScriptEvent::kRecv:
      s.on_message(ev.payload, ev.from_harvester, ev.from);
      break;
    case ScriptEvent::kRealloc:
      s.on_realloc(ev.resources);
      break;
  }
}

// Exact rendering for transcripts: floats keep every digit (Value's own
// %g rendering rounds to six), lists recurse.
std::string exact_string(const Value& v) {
  if (v.is_float()) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v.as_float());
    return buf;
  }
  if (v.is_list()) {
    std::string s = "[";
    for (const auto& e : *v.as_list()) {
      if (s.size() > 1) s += ", ";
      s += exact_string(e);
    }
    return s + "]";
  }
  return v.to_string();
}

// Long renderings (grown lists) are pinned by length and a stable hash so
// a transcript stays readable without losing any difference.
std::string register_line(const std::string& name, const Value& v) {
  std::string s = exact_string(v);
  if (s.size() > 160) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "<%zu chars, hash %016llx>", s.size(),
                  static_cast<unsigned long long>(util::stable_hash64(s, 0)));
    s = buf;
  }
  return "reg " + name + " = " + s;
}

}  // namespace

std::vector<std::string> replay_transcript(const CompiledMachine& m,
                                           const ReplayOptions& opts) {
  std::vector<std::string> out;
  EventMenu menu = build_menu(m);
  for (int stream = 0; stream < opts.streams; ++stream) {
    out.push_back("stream " + std::to_string(stream));
    util::Rng rng(util::derive_seed(opts.seed, stream));
    std::vector<std::string> t;
    std::unique_ptr<MiniSeed> s;
    try {
      s = std::make_unique<MiniSeed>(m, opts.externals, t);
    } catch (const EvalError& e) {
      out.push_back(std::string("ctor-err ") + e.what());
      continue;
    }
    // Registers are printed when their rendering changes, in name order.
    std::map<std::string, std::string> last;
    std::string last_util;
    auto settle = [&](const std::string& label) {
      out.push_back(label + " -> " + s->current_state());
      for (auto& line : t) out.push_back("  " + line);
      t.clear();
      const auto own = s->env().own();
      const std::map<std::string, Value> regs(own.begin(), own.end());
      for (const auto& [name, val] : regs) {
        std::string line = register_line(name, val);
        auto& prev = last[name];
        if (prev != line) out.push_back("  " + line);
        prev = std::move(line);
      }
      ResourcesValue probe{1, 256, 64, 2};
      char buf[48];
      std::snprintf(buf, sizeof buf, "  util %.17g", s->utility(probe));
      if (last_util != buf) out.push_back(buf);
      last_util = buf;
    };
    settle("ctor");
    s->start();
    settle("start");
    std::int64_t now = 1000;
    for (int i = 0; i < opts.events_per_stream; ++i) {
      ScriptEvent ev = draw_event(rng, menu, opts, now);
      s->set_now_ms(now);
      deliver(*s, ev);
      static const char* kNames[] = {"poll", "probe", "time", "recv",
                                     "realloc"};
      std::string label = "t=" + std::to_string(now) + " " + kNames[ev.kind];
      if (!ev.var.empty()) label += " " + ev.var;
      if (ev.kind == ScriptEvent::kRecv)
        label += std::string(ev.from_harvester ? " harvester " : " ") +
                 ev.from + " " + exact_string(ev.payload);
      settle(label);
    }
  }
  return out;
}

ReplayReport replay_compare(const CompiledMachine& original,
                            const CompiledMachine& optimized,
                            const Analysis& analysis,
                            const ReplayOptions& opts) {
  ReplayReport rep;

  auto fail = [&](const std::string& why) {
    if (rep.divergence.empty()) rep.divergence = why;
  };

  // Envelope check on the original run: every register value must be
  // admitted by the analysis' residency abstraction of the current state.
  auto check_intervals = [&](const MiniSeed& a, const char* when) {
    if (!rep.intervals_ok) return;
    auto it = analysis.state_entry.find(a.current_state());
    if (it == analysis.state_entry.end()) {
      rep.intervals_ok = false;
      fail(std::string("resident in state '") + a.current_state() +
           "' which the analysis proved unreachable (" + when + ")");
      return;
    }
    for (const auto& [name, val] : a.env().own()) {
      auto ft = it->second.find(name);
      if (ft == it->second.end()) continue;
      if (!ft->second.admits(val)) {
        rep.intervals_ok = false;
        fail("register '" + name + "' = " + val.to_string() +
             " escapes " + ft->second.to_string() + " in state '" +
             a.current_state() + "' (" + when + ")");
        return;
      }
    }
  };

  EventMenu menu = build_menu(original);

  for (int stream = 0; stream < opts.streams; ++stream) {
    util::Rng rng(util::derive_seed(opts.seed, stream));
    std::vector<std::string> ta, tb;
    std::unique_ptr<MiniSeed> a, b;
    try {
      a = std::make_unique<MiniSeed>(original, opts.externals, ta);
    } catch (const EvalError& e) {
      ta.push_back(std::string("ctor-err ") + e.what());
    }
    try {
      b = std::make_unique<MiniSeed>(optimized, opts.externals, tb);
    } catch (const EvalError& e) {
      tb.push_back(std::string("ctor-err ") + e.what());
    }

    auto compare = [&](const char* when) {
      if (!rep.identical) return false;
      if (ta != tb) {
        rep.identical = false;
        std::size_t i = 0;
        while (i < ta.size() && i < tb.size() && ta[i] == tb[i]) ++i;
        std::string orig = i < ta.size() ? ta[i] : "<nothing>";
        std::string opt = i < tb.size() ? tb[i] : "<nothing>";
        fail(std::string("transcripts diverge (") + when + ", stream " +
             std::to_string(stream) + "): original '" + orig +
             "' vs optimized '" + opt + "'");
        return false;
      }
      if (!!a != !!b) {
        rep.identical = false;
        fail(std::string("only one machine failed construction (") + when +
             ")");
        return false;
      }
      if (a && b) {
        if (a->current_state() != b->current_state()) {
          rep.identical = false;
          fail(std::string("state diverges (") + when + "): '" +
               a->current_state() + "' vs '" + b->current_state() + "'");
          return false;
        }
        ResourcesValue probe{1, 256, 64, 2};
        ResourcesValue rich{8, 4096, 1024, 8};
        if (a->utility(probe) != b->utility(probe) ||
            a->utility(rich) != b->utility(rich)) {
          rep.identical = false;
          fail(std::string("utility diverges (") + when + ") in state '" +
               a->current_state() + "'");
          return false;
        }
      }
      return true;
    };

    if (!compare("ctor")) return rep;
    if (!a || !b) continue;  // both failed identically: nothing to drive
    check_intervals(*a, "ctor");

    a->start();
    b->start();
    if (!compare("start")) return rep;
    check_intervals(*a, "start");

    std::int64_t now = 1000;
    for (int i = 0; i < opts.events_per_stream; ++i) {
      ScriptEvent ev = draw_event(rng, menu, opts, now);
      a->set_now_ms(now);
      b->set_now_ms(now);
      deliver(*a, ev);
      deliver(*b, ev);
      ++rep.events_run;
      if (!compare("event")) return rep;
      check_intervals(*a, "event");
    }
  }
  return rep;
}

}  // namespace farm::almanac::opt
