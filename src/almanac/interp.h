// Tree-walking interpreter for Almanac — the seed VM.
//
// The interpreter is host-agnostic: everything that touches the switch or
// the network goes through the SeedHost interface (List. 1's runtime
// library: res(), TCAM API, exec(), plus message sending and state
// transitions). The runtime module implements SeedHost on top of the soil;
// tests implement it with fakes; static analyses evaluate expressions with
// a null host (host-dependent calls then fail, which those analyses treat
// as "not statically evaluable").
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "almanac/compile.h"
#include "almanac/value.h"

namespace farm::almanac {

class EvalError : public std::runtime_error {
 public:
  EvalError(std::string message, SourceLoc loc)
      : std::runtime_error(loc.to_string() + ": " + message), loc_(loc) {}
  SourceLoc loc() const { return loc_; }

 private:
  SourceLoc loc_;
};

// Chained variable environment, keyed by interned symbol. The machine
// environment is the root; state locals, handler bindings, block scopes
// and function scopes chain onto it, and lookups take the innermost
// binding (scoping is dynamic: a function scope chains to the machine
// root, not to its caller). Each scope is a flat vector of (symbol, value)
// pairs scanned linearly — scopes hold a handful of names — and allocates
// nothing until its first define.
class Env {
 public:
  explicit Env(Env* parent = nullptr) : parent_(parent) {}

  // Binds `s` in this scope, replacing this scope's binding of it if any.
  void define(Symbol s, Value v);
  void define(const std::string& name, Value v) {
    define(intern(name), std::move(v));
  }
  // Innermost binding, or nullptr.
  Value* find(Symbol s) {
    for (Env* e = this; e; e = e->parent_)
      for (auto& b : e->vars_)
        if (b.sym == s) return &b.value;
    return nullptr;
  }
  const Value* find(Symbol s) const { return const_cast<Env*>(this)->find(s); }
  Value* find(const std::string& name);
  const Value* find(const std::string& name) const;
  // Assigns the innermost existing binding; false if none exists.
  bool assign(Symbol s, Value v) {
    if (Value* slot = find(s)) {
      *slot = std::move(v);
      return true;
    }
    return false;
  }
  bool assign(const std::string& name, Value v);
  Env* parent() { return parent_; }
  // Drops this scope's own bindings, keeping its storage (loop bodies
  // reuse one scope across iterations).
  void clear() { vars_.clear(); }
  void reserve(std::size_t n) { vars_.reserve(n); }
  // Own (non-inherited) bindings by name; used for state snapshot and
  // migration, which are keyed by variable name.
  std::unordered_map<std::string, Value> own() const;

 private:
  struct Binding {
    Symbol sym;
    Value value;
  };
  Env* parent_;
  std::vector<Binding> vars_;
};

// Destination of a send action.
struct SendTarget {
  bool to_harvester = false;
  std::string machine;               // when !to_harvester
  std::optional<std::int64_t> dst;   // switch id; nullopt = broadcast
};

class SeedHost {
 public:
  virtual ~SeedHost() = default;
  virtual ResourcesValue resources() = 0;
  // TCAM API (List. 1). Rules installed by seeds go to the monitoring
  // region unless the rule value says otherwise.
  virtual void add_tcam_rule(const asic::TcamRule& rule) = 0;
  virtual void remove_tcam_rule(const net::Filter& pattern) = 0;
  virtual std::optional<asic::TcamRule> get_tcam_rule(
      const net::Filter& pattern) = 0;
  virtual void send(const Value& payload, const SendTarget& target) = 0;
  // Runs external code (the ML use case); cost accounting is host-side.
  virtual void exec(const std::string& command) = 0;
  // Deferred state transition: takes effect after the current handler.
  virtual void request_transit(const std::string& state) = 0;
  // A trigger variable was (re)assigned; the host re-arms its timer.
  virtual void trigger_updated(const std::string& var) = 0;
  virtual std::int64_t switch_id() = 0;
  virtual std::int64_t now_ms() = 0;
  virtual void log(const std::string& message) = 0;
};

// Outcome of running an action list.
struct ExecResult {
  bool returned = false;
  Value return_value;
};

class Interpreter {
 public:
  // `machine` (and its Program) must outlive the interpreter. `host` may be
  // null: host-dependent operations then raise EvalError, which static
  // analyses interpret as "not statically evaluable".
  Interpreter(const CompiledMachine& machine, SeedHost* host)
      : machine_(machine), host_(host) {}

  Value eval(const Expr& e, Env& env);
  ExecResult exec(const std::vector<ActionPtr>& actions, Env& env);

  // Default value for a declared (non-trigger) variable type.
  static Value default_value(TypeName t);
  // Does `v` match a recv pattern of declared type `t`?
  static bool matches_type(const Value& v, TypeName t);

 private:
  // A call's evaluated arguments: a window of arg_stack_.
  using Args = std::span<Value>;

  SeedHost* host(SourceLoc loc) const {
    if (!host_) throw EvalError("operation requires a runtime host", loc);
    return host_;
  }
  Value eval_binary(const Expr& e, Env& env);
  Value eval_filter_atom(const Expr& e, Env& env);
  Value eval_struct_init(const Expr& e, Env& env);
  Value eval_field(const Expr& e, Env& env);
  Value eval_call(const Expr& e, Env& env);
  Value call_function(const Expr& e, Args args, Env& env);
  Value builtin(const Expr& e, Args args);

  const CompiledMachine& machine_;
  SeedHost* host_;
  // Call arguments live here while a call runs, so a call allocates
  // nothing once the stack has grown to the deepest nesting seen. No host
  // callback re-enters its interpreter synchronously (the soil delivers
  // every event through the engine), so a window stays valid while its
  // builtin runs.
  std::vector<Value> arg_stack_;
  int call_depth_ = 0;
  static constexpr int kMaxCallDepth = 128;
  static constexpr std::int64_t kMaxLoopIterations = 10'000'000;
};

}  // namespace farm::almanac
