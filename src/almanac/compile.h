// Machine compilation: inheritance flattening + semantic checks.
//
// Turns a parsed MachineDecl into the form the runtime and the static
// analyses consume:
//   - single inheritance resolved (states overridable; variables must not
//     be overridden or shadowed — §III-A a);
//   - machine-level events merged into each state, with state-level
//     handlers overriding same-signature machine handlers (§III-A b);
//   - util bodies validated against the syntactic restrictions of
//     §III-A f (if/return only; limited operators; only min/max calls).
//
// CompiledMachine borrows AST nodes from the Program, which must outlive it.
#pragma once

#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "almanac/ast.h"
#include "almanac/verify/diagnostics.h"

namespace farm::almanac {

class CompileError : public std::runtime_error {
 public:
  CompileError(std::string message, SourceLoc loc)
      : std::runtime_error(loc.to_string() + ": " + message), loc_(loc) {}
  SourceLoc loc() const { return loc_; }

 private:
  SourceLoc loc_;
};

struct CompiledState {
  std::string name;
  Symbol sym = kNoSymbol;  // interned `name`
  const StateDecl* decl = nullptr;
  const UtilityDecl* util = nullptr;
  std::vector<const VarDecl*> locals;
  // State-level events first, then applicable (non-overridden)
  // machine-level events.
  std::vector<const EventDecl*> events;
};

struct CompiledMachine {
  std::string name;
  const Program* program = nullptr;
  // Machine variables, base-most first (inherited then own).
  std::vector<const VarDecl*> vars;
  std::vector<const PlaceDirective*> places;
  std::vector<CompiledState> states;
  std::string initial_state;  // first state declared by the base-most machine

  const CompiledState* state(const std::string& n) const {
    for (const auto& s : states)
      if (s.name == n) return &s;
    return nullptr;
  }
  const CompiledState* state(Symbol s) const {
    for (const auto& st : states)
      if (st.sym == s) return &st;
    return nullptr;
  }
  const VarDecl* var(const std::string& n) const {
    for (const auto* v : vars)
      if (v->name == n) return v;
    return nullptr;
  }
  const VarDecl* var(Symbol s) const {
    for (const auto* v : vars)
      if (v->sym == s) return v;
    return nullptr;
  }
  // Is `s` one of this machine's trigger variables?
  bool is_trigger(Symbol s) const {
    const VarDecl* v = var(s);
    return v && v->trigger;
  }
  std::vector<const VarDecl*> trigger_vars() const {
    std::vector<const VarDecl*> out;
    for (const auto* v : vars)
      if (v->trigger) out.push_back(v);
    return out;
  }
  std::vector<const VarDecl*> external_vars() const {
    std::vector<const VarDecl*> out;
    for (const auto* v : vars)
      if (v->external) out.push_back(v);
    return out;
  }
};

// Compiles one machine of the program, collecting *all* semantic
// violations into `sink` instead of stopping at the first (diagnostic
// codes CM001..CM007). Recoverable violations (shadowed variables, bad
// util bodies, unknown transit targets, missing poll initializers) leave a
// usable partial machine behind; unrecoverable ones (unknown machine,
// inheritance cycle, no states) return nullopt. Callers that gate on
// correctness should check sink.has_errors() rather than the optional.
std::optional<CompiledMachine> compile_machine_collect(
    const Program& program, const std::string& machine_name,
    verify::DiagnosticSink& sink);

// Throwing wrapper preserved for existing callers: compiles and throws a
// CompileError for the first (source-ordered) error diagnostic.
CompiledMachine compile_machine(const Program& program,
                                const std::string& machine_name);

// Validates a util body against §III-A f. Exposed for direct testing.
// The collecting form reports every violation; the throwing form raises
// the first.
void check_util_restrictions(const UtilityDecl& util);
void check_util_restrictions_collect(const UtilityDecl& util,
                                     verify::DiagnosticSink& sink);

}  // namespace farm::almanac
