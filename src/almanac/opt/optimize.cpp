#include "almanac/opt/optimize.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "almanac/opt/clone.h"
#include "almanac/verify/passes.h"

namespace farm::almanac::opt {

namespace {

using verify::absint::AbsVal;
using verify::absint::Analysis;
using verify::absint::Interval;
using verify::absint::expr_is_pure;
using verify::reachable_functions;
using verify::walk_actions;
using verify::walk_expr;

// Strictly inside the int64 range: magnitudes below this provably do not
// overflow the checked integer arithmetic of the interpreter.
constexpr double kSafeInt = 9.2e18;

double mag(const Interval& iv) {
  return std::max(std::fabs(iv.lo), std::fabs(iv.hi));
}

// --- rewriting --------------------------------------------------------------

struct Rewriter {
  const CompiledMachine& src;
  const Analysis& an;
  // clone -> original node (facts are keyed on originals).
  std::unordered_map<const Expr*, const Expr*> orig_expr;
  std::unordered_map<const Action*, const Action*> orig_action;
  // Registers/locals proven dead (never read, unobservable, no ctor effect).
  std::set<std::string> deletable;
  OptimizeStats stats;

  const AbsVal* fact(const Expr& clone) const {
    auto o = orig_expr.find(&clone);
    if (o == orig_expr.end()) return nullptr;
    auto f = an.expr_facts.find(o->second);
    return f == an.expr_facts.end() ? nullptr : &f->second;
  }

  // Proof that evaluating the (cloned) expression cannot raise an
  // EvalError: every rewrite that *removes* an evaluation is gated on this,
  // because the interpreter's arithmetic is checked and which errors a
  // handler raises is observable behavior.
  bool no_throw(const Expr& e) const {
    switch (e.kind) {
      case Expr::Kind::kLiteral:
        return true;
      case Expr::Kind::kVarRef:
        // Machine registers are always defined; scope proofs for locals are
        // not worth the complexity here.
        return src.var(e.name) != nullptr;
      case Expr::Kind::kNot: {
        if (e.args.empty() || !e.args[0]) return false;
        const AbsVal* a = fact(*e.args[0]);
        return a && a->is_const_bool() && no_throw(*e.args[0]);
      }
      case Expr::Kind::kBinary: {
        if (e.args.size() < 2 || !e.args[0] || !e.args[1]) return false;
        const Expr& le = *e.args[0];
        const Expr& re = *e.args[1];
        if (!no_throw(le) || !no_throw(re)) return false;
        const AbsVal* a = fact(le);
        const AbsVal* b = fact(re);
        if (!a || !b) return false;
        switch (e.op) {
          case BinOp::kAnd:
          case BinOp::kOr:
            return a->is_const_bool() && b->is_const_bool();
          case BinOp::kEq:
          case BinOp::kNe:
            return true;  // structural equality never throws
          case BinOp::kLe:
          case BinOp::kGe:
          case BinOp::kLt:
          case BinOp::kGt:
            return (a->is_num() && b->is_num()) ||
                   (a->is_const_string() && b->is_const_string());
          case BinOp::kAdd:
            // String concatenation stringifies any other operand.
            if (a->is_const_string() || b->is_const_string()) return true;
            if (!a->is_num() || !b->is_num()) return false;
            if (a->is_int() && b->is_int())
              return mag(a->interval()) + mag(b->interval()) < kSafeInt;
            return true;
          case BinOp::kSub:
            if (!a->is_num() || !b->is_num()) return false;
            if (a->is_int() && b->is_int())
              return mag(a->interval()) + mag(b->interval()) < kSafeInt;
            return true;
          case BinOp::kMul:
            if (!a->is_num() || !b->is_num()) return false;
            if (a->is_int() && b->is_int())
              return mag(a->interval()) * mag(b->interval()) < kSafeInt;
            return true;
          case BinOp::kDiv: {
            if (!a->is_num() || !b->is_num()) return false;
            const Interval& d = b->interval();
            if (!(d.lo > 0 || d.hi < 0)) return false;  // divisor may be 0
            if (a->is_int() && b->is_int() && d.hi < 0)
              return a->interval().lo > -kSafeInt;  // INT64_MIN / -1
            return true;
          }
        }
        return false;
      }
      case Expr::Kind::kCall: {
        if (e.builtin == Builtin::kMin || e.builtin == Builtin::kMax) {
          if (e.args.size() < 2) return false;
          for (const auto& arg : e.args) {
            if (!arg || !no_throw(*arg)) return false;
            const AbsVal* f = fact(*arg);
            if (!f || !f->is_num()) return false;
          }
          return true;
        }
        if (e.builtin == Builtin::kAbs && e.args.size() == 1 && e.args[0]) {
          const AbsVal* f = fact(*e.args[0]);
          return f && f->is_num() && no_throw(*e.args[0]) &&
                 (!f->is_int() || f->interval().lo > -kSafeInt);
        }
        return false;
      }
      default:
        return false;
    }
  }

  bool const_cond(const Expr& cond, bool* out) const {
    const AbsVal* f = fact(cond);
    if (!f || !f->is_const_bool()) return false;
    auto o = orig_expr.find(&cond);
    if (o == orig_expr.end() || !expr_is_pure(*o->second)) return false;
    if (!no_throw(cond)) return false;
    *out = f->const_bool();
    return true;
  }

  // Top-down maximal constant folding: a pure, provably-non-throwing
  // expression with a singleton abstract value becomes a literal.
  void fold(ExprPtr& e) {
    if (!e || e->kind == Expr::Kind::kLiteral) return;
    const AbsVal* f = fact(*e);
    Value v;
    if (f && f->singleton(&v)) {
      auto o = orig_expr.find(e.get());
      if (o != orig_expr.end() && expr_is_pure(*o->second) && no_throw(*e)) {
        auto lit = std::make_unique<Expr>();
        lit->kind = Expr::Kind::kLiteral;
        lit->loc = e->loc;
        lit->literal = std::move(v);
        e = std::move(lit);
        ++stats.folded_consts;
        return;
      }
    }
    for (auto& a : e->args) fold(a);
  }

  // A fully-rewritten rhs whose evaluation can be removed outright.
  bool droppable(const Expr& e) const {
    if (e.kind == Expr::Kind::kLiteral) return true;
    return expr_is_pure(e) && no_throw(e);
  }

  std::vector<ActionPtr> rewrite(std::vector<ActionPtr> body) {
    std::vector<ActionPtr> out;
    out.reserve(body.size());
    for (auto& ap : body) {
      if (!ap) continue;
      Action& a = *ap;
      switch (a.kind) {
        case Action::Kind::kIf: {
          bool cv = false;
          if (a.expr && const_cond(*a.expr, &cv)) {
            auto taken = rewrite(std::move(cv ? a.body : a.else_body));
            bool top_decl = false;
            for (const auto& t : taken)
              if (t->kind == Action::Kind::kDeclare) top_decl = true;
            ++stats.pruned_ifs;
            if (!top_decl) {
              // Splice: the branch runs in the surrounding scope, which is
              // only safe when it declares no locals of its own.
              for (auto& t : taken) out.push_back(std::move(t));
            } else {
              auto lit = std::make_unique<Expr>();
              lit->kind = Expr::Kind::kLiteral;
              lit->loc = a.expr->loc;
              lit->literal = Value(cv);
              a.expr = std::move(lit);
              a.body = cv ? std::move(taken) : std::vector<ActionPtr>{};
              a.else_body = cv ? std::vector<ActionPtr>{} : std::move(taken);
              out.push_back(std::move(ap));
            }
            break;
          }
          if (a.expr) fold(a.expr);
          a.body = rewrite(std::move(a.body));
          a.else_body = rewrite(std::move(a.else_body));
          out.push_back(std::move(ap));
          break;
        }
        case Action::Kind::kWhile: {
          bool cv = false;
          if (a.expr && const_cond(*a.expr, &cv) && !cv) {
            ++stats.deleted_loops;
            break;  // loop provably never entered
          }
          if (a.expr) fold(a.expr);
          a.body = rewrite(std::move(a.body));
          out.push_back(std::move(ap));
          break;
        }
        case Action::Kind::kDeclare: {
          if (deletable.count(a.target)) {
            ++stats.removed_vars;
            if (a.expr) {
              fold(a.expr);
              if (!droppable(*a.expr)) {
                // Keep the initializer's effects (and its errors).
                a.kind = Action::Kind::kExprStmt;
                a.target.clear();
                out.push_back(std::move(ap));
              }
            }
            break;
          }
          if (a.expr) fold(a.expr);
          out.push_back(std::move(ap));
          break;
        }
        case Action::Kind::kAssign: {
          if (deletable.count(a.target)) {
            ++stats.removed_stores;
            fold(a.expr);
            if (!droppable(*a.expr)) {
              a.kind = Action::Kind::kExprStmt;
              a.target.clear();
              out.push_back(std::move(ap));
            }
            break;
          }
          fold(a.expr);
          out.push_back(std::move(ap));
          break;
        }
        case Action::Kind::kTransit:
          // Bare state identifiers are dispatched by name, not evaluated.
          if (a.expr && !(a.expr->kind == Expr::Kind::kVarRef &&
                          src.state(a.expr->name)))
            fold(a.expr);
          out.push_back(std::move(ap));
          break;
        case Action::Kind::kSend:
          fold(a.expr);
          fold(a.to_dst);
          out.push_back(std::move(ap));
          break;
        case Action::Kind::kReturn:
        case Action::Kind::kExprStmt:
          fold(a.expr);
          out.push_back(std::move(ap));
          break;
      }
    }
    return out;
  }
};

// Names referenced outside handler/function bodies (variable initializers,
// state locals, placement directives, util bodies, recv @dst filters): the
// observability scan does not cover those contexts, so any register they
// mention must survive.
std::set<std::string> pinned_names(const CompiledMachine& m) {
  std::set<std::string> pinned;
  auto pin = [&](const Expr& e) {
    walk_expr(e, [&](const Expr& x) {
      if (x.kind == Expr::Kind::kVarRef) pinned.insert(x.name);
    });
  };
  for (const auto* v : m.vars)
    if (v->init) pin(*v->init);
  for (const auto& s : m.states) {
    for (const auto* l : s.locals)
      if (l->init) pin(*l->init);
    if (s.util)
      walk_actions(s.util->body, [&](const Action& a) {
        if (a.expr) walk_expr(*a.expr, [&](const Expr& x) {
          if (x.kind == Expr::Kind::kVarRef) pinned.insert(x.name);
        });
      });
    for (const auto* ev : s.events)
      if (ev->from_dst) pin(*ev->from_dst);
  }
  for (const auto* p : m.places) {
    for (const auto& e : p->switch_ids)
      if (e) pin(*e);
    if (p->path_filter) pin(*p->path_filter);
    if (p->range_value) pin(*p->range_value);
  }
  return pinned;
}

std::set<std::string> dead_names(const CompiledMachine& m, const Analysis& an,
                                 const std::set<std::string>& pinned) {
  std::set<std::string> dead;
  auto candidate = [&](const std::string& name) {
    if (an.read_vars.count(name) || an.observable_vars.count(name)) return false;
    if (pinned.count(name)) return false;
    if (const VarDecl* mv = m.var(name); mv && (mv->external || mv->trigger))
      return false;
    return true;
  };
  for (const auto* v : m.vars) {
    if (v->external || v->trigger) continue;
    if (!candidate(v->name)) continue;
    // Constructor-time initializers stay unless trivially effect-free.
    if (v->init && v->init->kind != Expr::Kind::kLiteral) continue;
    dead.insert(v->name);
  }
  // Block-local declares: same conditions, but their initializer can
  // degrade to an expression statement so any initializer is acceptable.
  std::unordered_set<const EventDecl*> seen;
  auto scan = [&](const std::vector<ActionPtr>& actions) {
    walk_actions(actions, [&](const Action& a) {
      if (a.kind == Action::Kind::kDeclare && candidate(a.target))
        dead.insert(a.target);
    });
  };
  for (const auto& s : m.states)
    for (const auto* ev : s.events)
      if (seen.insert(ev).second) scan(ev->actions);
  for (const auto& f : m.program->functions) scan(f.body);
  return dead;
}

// Program functions the flattened machine must carry: those reachable from
// any handler plus anything called from initializers or placement exprs.
std::unordered_set<std::string> needed_functions(const CompiledMachine& m) {
  std::unordered_set<std::string> needed;
  std::unordered_set<const EventDecl*> seen;
  for (const auto& s : m.states)
    for (const auto* ev : s.events)
      if (seen.insert(ev).second) {
        auto r = reachable_functions(*m.program, ev->actions);
        needed.insert(r.begin(), r.end());
      }
  auto add_calls = [&](const Expr& e) {
    walk_expr(e, [&](const Expr& x) {
      if (x.kind != Expr::Kind::kCall) return;
      const FuncDecl* f = m.program->function(x.name);
      if (!f || needed.count(x.name)) return;
      needed.insert(x.name);
      auto r = reachable_functions(*m.program, f->body);
      needed.insert(r.begin(), r.end());
    });
  };
  for (const auto* v : m.vars)
    if (v->init) add_calls(*v->init);
  for (const auto& s : m.states)
    for (const auto* l : s.locals)
      if (l->init) add_calls(*l->init);
  for (const auto* p : m.places) {
    for (const auto& e : p->switch_ids)
      if (e) add_calls(*e);
    if (p->path_filter) add_calls(*p->path_filter);
    if (p->range_value) add_calls(*p->range_value);
  }
  return needed;
}

// Machine-level EventDecls of the source machine's inheritance chain; a
// handler shared by several compiled states must be emitted once at
// machine level or the flattened machine's dispatch (and TCAM weight)
// would duplicate it.
std::unordered_set<const EventDecl*> machine_level_events(
    const CompiledMachine& m) {
  std::unordered_set<const EventDecl*> set;
  const MachineDecl* md = m.program->machine(m.name);
  while (md) {
    for (const auto& ev : md->machine_events) set.insert(&ev);
    if (md->extends.empty()) break;
    md = m.program->machine(md->extends);
  }
  return set;
}

struct Assembled {
  std::unique_ptr<Program> program;
  CloneMap map;
};

Assembled assemble(const CompiledMachine& src,
                   const std::set<std::string>& drop_vars) {
  Assembled out;
  out.program = std::make_unique<Program>();

  auto mlevel = machine_level_events(src);

  MachineDecl md;
  if (const MachineDecl* d = src.program->machine(src.name)) md.loc = d->loc;
  md.name = src.name;

  for (const auto* p : src.places)
    md.places.push_back(clone_place(*p, &out.map));
  for (const auto* v : src.vars) {
    if (drop_vars.count(v->name)) continue;
    md.vars.push_back(clone_var(*v, &out.map));
  }

  // Shared (machine-level) handlers, in first-seen dispatch order.
  std::unordered_set<const EventDecl*> emitted;
  for (const auto& s : src.states)
    for (const auto* ev : s.events)
      if (mlevel.count(ev) && emitted.insert(ev).second)
        md.machine_events.push_back(clone_event(*ev, &out.map));

  // States, initial first so the recompiled machine keeps its entry point.
  std::vector<const CompiledState*> order;
  for (const auto& s : src.states)
    if (s.name == src.initial_state) order.push_back(&s);
  for (const auto& s : src.states)
    if (s.name != src.initial_state) order.push_back(&s);
  for (const auto* s : order) {
    StateDecl sd;
    if (s->decl) sd.loc = s->decl->loc;
    sd.name = s->name;
    for (const auto* l : s->locals) {
      if (drop_vars.count(l->name)) continue;
      sd.locals.push_back(clone_var(*l, &out.map));
    }
    if (s->util) sd.util = clone_util(*s->util, &out.map);
    for (const auto* ev : s->events)
      if (!mlevel.count(ev)) sd.events.push_back(clone_event(*ev, &out.map));
    md.states.push_back(std::move(sd));
  }
  out.program->machines.push_back(std::move(md));

  auto needed = needed_functions(src);
  for (const auto& f : src.program->functions)
    if (needed.count(f.name))
      out.program->functions.push_back(clone_function(f, &out.map));
  return out;
}

}  // namespace

OptimizeResult optimize_machine(const CompiledMachine& src,
                                const verify::absint::AbsintOptions& opts) {
  OptimizeResult res;
  res.analysis = verify::absint::analyze_machine(src, opts);

  auto pinned = pinned_names(src);
  std::set<std::string> drop_vars;
  if (res.analysis.converged()) drop_vars = dead_names(src, res.analysis, pinned);

  Assembled asm_ = assemble(src, drop_vars);
  MachineDecl& md = asm_.program->machines.front();

  if (res.analysis.converged()) {
    Rewriter rw{src, res.analysis, {}, {}, drop_vars, {}};
    for (const auto& [orig, clone] : asm_.map.exprs) rw.orig_expr[clone] = orig;
    for (const auto& [orig, clone] : asm_.map.actions)
      rw.orig_action[clone] = orig;

    for (auto& ev : md.machine_events) ev.actions = rw.rewrite(std::move(ev.actions));
    for (auto& st : md.states)
      for (auto& ev : st.events) ev.actions = rw.rewrite(std::move(ev.actions));
    for (auto& f : asm_.program->functions) f.body = rw.rewrite(std::move(f.body));

    // Drop handlers the rewrites emptied. Message handlers consume their
    // message and var-trigger handlers feed the HD checks, so only the
    // side-effect-free kinds go; a state-level empty handler that overrides
    // a machine-level one must stay or the override would vanish with it.
    auto prunable = [](const EventDecl& ev) {
      return ev.actions.empty() &&
             (ev.kind == EventDecl::TriggerKind::kEnter ||
              ev.kind == EventDecl::TriggerKind::kExit ||
              ev.kind == EventDecl::TriggerKind::kRealloc);
    };
    rw.stats.removed_handlers += static_cast<int>(
        std::erase_if(md.machine_events, prunable));
    for (auto& st : md.states)
      rw.stats.removed_handlers +=
          static_cast<int>(std::erase_if(st.events, [&](const EventDecl& ev) {
            if (!prunable(ev)) return false;
            for (const auto& mev : md.machine_events)
              if (mev.kind == ev.kind) return false;  // would unhide override
            return true;
          }));

    // Delete provably-unreachable states — but only those no surviving
    // transit still names, and none at all if any dynamic transit remains.
    bool dynamic_transit = false;
    std::set<std::string> keep;
    keep.insert(src.initial_state);
    for (const auto& s : res.analysis.reachable_states) keep.insert(s);
    auto scan_transits = [&](const std::vector<ActionPtr>& actions,
                             std::set<std::string>& referenced) {
      walk_actions(actions, [&](const Action& a) {
        if (a.kind != Action::Kind::kTransit || !a.expr) return;
        const Expr& e = *a.expr;
        if (e.kind == Expr::Kind::kVarRef && src.state(e.name))
          referenced.insert(e.name);
        else if (e.kind == Expr::Kind::kLiteral && e.literal.is_string())
          referenced.insert(e.literal.as_string());
        else
          dynamic_transit = true;
      });
    };
    // Grow the keep set until stable: a kept state's body may name another
    // candidate even when the analysis proved the transit never fires.
    std::set<std::string> referenced;
    for (const auto& ev : md.machine_events) scan_transits(ev.actions, referenced);
    for (const auto& f : asm_.program->functions) scan_transits(f.body, referenced);
    for (bool changed = true; changed;) {
      changed = false;
      for (const auto& st : md.states) {
        if (!keep.count(st.name)) continue;
        std::set<std::string> local = referenced;
        for (const auto& ev : st.events) scan_transits(ev.actions, local);
        for (const auto& name : local)
          if (!keep.count(name) && src.state(name)) {
            keep.insert(name);
            changed = true;
          }
      }
    }
    if (!dynamic_transit)
      rw.stats.removed_states += static_cast<int>(std::erase_if(
          md.states,
          [&](const StateDecl& st) { return !keep.count(st.name); }));
    rw.stats.removed_vars += static_cast<int>(
        std::count_if(src.vars.begin(), src.vars.end(), [&](const VarDecl* v) {
          return drop_vars.count(v->name) != 0;
        }));
    res.stats = rw.stats;
  }

  verify::DiagnosticSink sink;
  auto compiled = compile_machine_collect(*asm_.program, src.name, sink);
  if (compiled && !sink.has_errors()) {
    res.stats.applied = true;
    res.program = std::move(asm_.program);
    res.machine = std::move(*compiled);
    return res;
  }

  // A rewrite produced an uncompilable machine — a rewriter bug. Fall back
  // to the unmodified flattened clone so callers still get a usable result.
  Assembled plain = assemble(src, {});
  res.stats = OptimizeStats{};
  res.program = std::move(plain.program);
  res.machine = compile_machine(*res.program, src.name);
  return res;
}

}  // namespace farm::almanac::opt
