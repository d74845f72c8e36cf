#include "almanac/analysis.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace farm::almanac {

Poly Poly::operator+(const Poly& o) const {
  Poly p = *this;
  p.c0 += o.c0;
  for (std::size_t i = 0; i < kNumResources; ++i) p.coeff[i] += o.coeff[i];
  return p;
}

Poly Poly::operator-(const Poly& o) const {
  Poly p = *this;
  p.c0 -= o.c0;
  for (std::size_t i = 0; i < kNumResources; ++i) p.coeff[i] -= o.coeff[i];
  return p;
}

Poly Poly::scaled(double k) const {
  Poly p = *this;
  p.c0 *= k;
  for (auto& c : p.coeff) c *= k;
  return p;
}

std::string Poly::to_string() const {
  std::string s = std::to_string(c0);
  for (std::size_t i = 0; i < kNumResources; ++i)
    if (coeff[i] != 0)
      s += " + " + std::to_string(coeff[i]) + "*" +
           ResourcesValue::field_names()[i];
  return s;
}

namespace {

std::size_t resource_dim(const std::string& field, SourceLoc loc) {
  const auto& names = ResourcesValue::field_names();
  for (std::size_t i = 0; i < names.size(); ++i)
    if (names[i] == field) return i;
  throw CompileError("unknown resource field in util: " + field, loc);
}

// Is `e` an access to a resource field? Accepts `<param>.X` and `res().X`.
bool is_resource_access(const Expr& e, const std::string& param,
                        std::size_t& dim) {
  if (e.kind != Expr::Kind::kFieldAccess) return false;
  const Expr& base = *e.args[0];
  bool is_param =
      base.kind == Expr::Kind::kVarRef && base.name == param;
  bool is_res_call = base.kind == Expr::Kind::kCall &&
                     base.builtin == Builtin::kRes && base.args.empty();
  if (!is_param && !is_res_call) return false;
  dim = resource_dim(e.name, e.loc);
  return true;
}

// Symbolic value during ε/κ interpretation: a set of alternatives (from
// `or` / max splits), each a concave piecewise-linear function given as
// min over linear terms, plus constraints that scope the alternative.
struct SymAlt {
  std::vector<Poly> constraints;
  std::vector<Poly> min_terms;  // utility value = min over these

  bool is_single_linear() const { return min_terms.size() == 1; }
};

struct SymVal {
  std::vector<SymAlt> alts;

  static SymVal linear(Poly p) {
    SymVal v;
    v.alts.push_back({{}, {std::move(p)}});
    return v;
  }
};

class UtilAnalyzer {
 public:
  explicit UtilAnalyzer(const UtilityDecl& util) : util_(util) {}

  UtilityAnalysis run() {
    std::vector<Poly> path;  // constraints accumulated along if-nesting
    walk(util_.body, path);
    if (out_.variants.empty())
      throw CompileError("util has no reachable return", util_.loc);
    return std::move(out_);
  }

 private:
  // ε: expression → symbolic concave-PL alternatives.
  SymVal eval_expr(const Expr& e) {
    std::size_t dim;
    switch (e.kind) {
      case Expr::Kind::kLiteral:
        if (!e.literal.is_numeric())
          throw CompileError("util expressions must be numeric", e.loc);
        return SymVal::linear(Poly::constant(e.literal.as_float()));
      case Expr::Kind::kFieldAccess:
        if (is_resource_access(e, util_.param, dim))
          return SymVal::linear(Poly::var(dim));
        throw CompileError("only resource fields may be read in util", e.loc);
      case Expr::Kind::kVarRef:
        throw CompileError(
            "util may not reference variables (only its resource parameter)",
            e.loc);
      case Expr::Kind::kCall: {
        if (e.builtin != Builtin::kMin && e.builtin != Builtin::kMax)
          throw CompileError("util may only call min/max", e.loc);
        std::vector<SymVal> args;
        for (const auto& a : e.args) args.push_back(eval_expr(*a));
        return e.builtin == Builtin::kMin ? combine_min(args, e.loc)
                                          : combine_max(args, e.loc);
      }
      case Expr::Kind::kBinary:
        return eval_binary(e);
      default:
        throw CompileError("construct not allowed in util expression", e.loc);
    }
  }

  SymVal eval_binary(const Expr& e) {
    SymVal lhs = eval_expr(*e.args[0]);
    SymVal rhs = eval_expr(*e.args[1]);
    SymVal out;
    for (const auto& la : lhs.alts)
      for (const auto& ra : rhs.alts) {
        SymAlt alt;
        alt.constraints = la.constraints;
        alt.constraints.insert(alt.constraints.end(), ra.constraints.begin(),
                               ra.constraints.end());
        switch (e.op) {
          case BinOp::kAdd:
            // min(A)+min(B) is not min(A+B) in general; allow when at least
            // one side is a single linear term (min(A)+c = min(A+c)).
            if (la.is_single_linear()) {
              for (const auto& t : ra.min_terms)
                alt.min_terms.push_back(t + la.min_terms[0]);
            } else if (ra.is_single_linear()) {
              for (const auto& t : la.min_terms)
                alt.min_terms.push_back(t + ra.min_terms[0]);
            } else {
              throw CompileError("cannot add two min() expressions in util",
                                 e.loc);
            }
            break;
          case BinOp::kSub:
            // f - g keeps concavity only when g is linear.
            if (!ra.is_single_linear())
              throw CompileError("cannot subtract a min() expression in util",
                                 e.loc);
            for (const auto& t : la.min_terms)
              alt.min_terms.push_back(t - ra.min_terms[0]);
            break;
          case BinOp::kMul: {
            // One side must be a constant; positive constants preserve
            // min-structure, negative ones only apply to single terms.
            auto apply_scale = [&](const SymAlt& f, double k) {
              if (k >= 0 || f.is_single_linear()) {
                for (const auto& t : f.min_terms)
                  alt.min_terms.push_back(t.scaled(k));
              } else {
                throw CompileError(
                    "negative scaling of min() not allowed in util", e.loc);
              }
            };
            if (la.is_single_linear() && la.min_terms[0].is_constant())
              apply_scale(ra, la.min_terms[0].c0);
            else if (ra.is_single_linear() && ra.min_terms[0].is_constant())
              apply_scale(la, ra.min_terms[0].c0);
            else
              throw CompileError(
                  "util products must have a constant factor (linearity)",
                  e.loc);
            break;
          }
          case BinOp::kDiv: {
            if (!(ra.is_single_linear() && ra.min_terms[0].is_constant()))
              throw CompileError("util division requires a constant divisor",
                                 e.loc);
            double k = ra.min_terms[0].c0;
            if (k == 0) throw CompileError("division by zero in util", e.loc);
            if (k < 0 && !la.is_single_linear())
              throw CompileError(
                  "negative divisor of min() not allowed in util", e.loc);
            for (const auto& t : la.min_terms)
              alt.min_terms.push_back(t.scaled(1.0 / k));
            break;
          }
          default:
            throw CompileError("operator not allowed in util value", e.loc);
        }
        out.alts.push_back(std::move(alt));
      }
    return out;
  }

  static SymVal combine_min(const std::vector<SymVal>& args, SourceLoc loc) {
    if (args.empty()) throw CompileError("min() needs arguments", loc);
    // Cross-product of alternatives; min-terms union (min is associative).
    SymVal acc = args[0];
    for (std::size_t i = 1; i < args.size(); ++i) {
      SymVal next;
      for (const auto& a : acc.alts)
        for (const auto& b : args[i].alts) {
          SymAlt alt;
          alt.constraints = a.constraints;
          alt.constraints.insert(alt.constraints.end(), b.constraints.begin(),
                                 b.constraints.end());
          alt.min_terms = a.min_terms;
          alt.min_terms.insert(alt.min_terms.end(), b.min_terms.begin(),
                               b.min_terms.end());
          next.alts.push_back(std::move(alt));
        }
      acc = std::move(next);
    }
    return acc;
  }

  static SymVal combine_max(const std::vector<SymVal>& args, SourceLoc loc) {
    // max splits into one alternative per argument, scoped by dominance
    // constraints. Arguments must be single linear terms (documented
    // restriction; max of min() would be non-concave anyway).
    for (const auto& a : args)
      for (const auto& alt : a.alts)
        if (!alt.is_single_linear())
          throw CompileError("max() arguments must be linear in util", loc);
    SymVal out;
    for (std::size_t i = 0; i < args.size(); ++i) {
      for (const auto& ai : args[i].alts) {
        SymAlt alt;
        alt.constraints = ai.constraints;
        alt.min_terms = ai.min_terms;
        for (std::size_t j = 0; j < args.size(); ++j) {
          if (j == i) continue;
          for (const auto& aj : args[j].alts)
            alt.constraints.push_back(ai.min_terms[0] - aj.min_terms[0]);
        }
        out.alts.push_back(std::move(alt));
      }
    }
    return out;
  }

  // κ: condition → alternatives of constraint sets (or-splits).
  std::vector<std::vector<Poly>> eval_cond(const Expr& e) {
    if (e.kind == Expr::Kind::kLiteral && e.literal.is_bool())
      return e.literal.as_bool() ? std::vector<std::vector<Poly>>{{}}
                                 : std::vector<std::vector<Poly>>{};
    if (e.kind != Expr::Kind::kBinary)
      throw CompileError("util conditions must be comparisons", e.loc);
    switch (e.op) {
      case BinOp::kAnd: {
        auto l = eval_cond(*e.args[0]);
        auto r = eval_cond(*e.args[1]);
        std::vector<std::vector<Poly>> out;
        for (const auto& a : l)
          for (const auto& b : r) {
            auto c = a;
            c.insert(c.end(), b.begin(), b.end());
            out.push_back(std::move(c));
          }
        return out;
      }
      case BinOp::kOr: {
        auto l = eval_cond(*e.args[0]);
        auto r = eval_cond(*e.args[1]);
        l.insert(l.end(), r.begin(), r.end());
        return l;
      }
      case BinOp::kGe:
      case BinOp::kLe:
      case BinOp::kEq: {
        auto lin = [&](const Expr& x) {
          SymVal v = eval_expr(x);
          if (v.alts.size() != 1 || !v.alts[0].is_single_linear() ||
              !v.alts[0].constraints.empty())
            throw CompileError("util conditions must be linear comparisons",
                               x.loc);
          return v.alts[0].min_terms[0];
        };
        Poly a = lin(*e.args[0]);
        Poly b = lin(*e.args[1]);
        if (e.op == BinOp::kGe) return {{a - b}};
        if (e.op == BinOp::kLe) return {{b - a}};
        return {{a - b, b - a}};  // equality: both directions
      }
      default:
        throw CompileError(
            "operator '" + to_string(e.op) + "' not allowed in util condition",
            e.loc);
    }
  }

  void walk(const std::vector<ActionPtr>& actions, std::vector<Poly>& path) {
    for (const auto& a : actions) {
      if (a->kind == Action::Kind::kReturn) {
        if (!a->expr)
          throw CompileError("util return needs a value", a->loc);
        SymVal v = eval_expr(*a->expr);
        for (const auto& alt : v.alts) {
          UtilityVariant var;
          var.constraints = path;
          var.constraints.insert(var.constraints.end(),
                                 alt.constraints.begin(),
                                 alt.constraints.end());
          var.util_min_terms = alt.min_terms;
          out_.variants.push_back(std::move(var));
        }
        continue;
      }
      FARM_CHECK(a->kind == Action::Kind::kIf);  // guaranteed by compile check
      auto cond_alts = eval_cond(*a->expr);
      for (const auto& alt : cond_alts) {
        std::vector<Poly> sub = path;
        sub.insert(sub.end(), alt.begin(), alt.end());
        walk(a->body, sub);
      }
      // The else branch (per the paper's split semantics): scoped by the
      // path constraints only — the optimizer places at most one variant,
      // so non-disjoint regions are benign.
      if (!a->else_body.empty()) walk(a->else_body, path);
    }
  }

  const UtilityDecl& util_;
  UtilityAnalysis out_;
};

}  // namespace

UtilityAnalysis analyze_utility(const UtilityDecl& util) {
  check_util_restrictions(util);
  return UtilAnalyzer(util).run();
}

UtilityAnalysis default_utility() {
  UtilityAnalysis u;
  UtilityVariant v;
  v.util_min_terms.push_back(Poly::constant(1.0));
  u.variants.push_back(std::move(v));
  return u;
}

StateUtilities::StateUtilities(const CompiledMachine& machine) {
  per_state_.reserve(machine.states.size());
  for (const auto& st : machine.states) {
    if (!st.util) {
      per_state_.emplace_back(default_utility());
      continue;
    }
    try {
      per_state_.emplace_back(analyze_utility(*st.util));
    } catch (const CompileError& e) {
      per_state_.emplace_back(e);
    }
  }
}

const std::variant<UtilityAnalysis, CompileError>& StateUtilities::slot(
    const CompiledMachine& machine, const CompiledState& st) const {
  const auto i = static_cast<std::size_t>(&st - machine.states.data());
  FARM_CHECK_MSG(i < per_state_.size(), "state of another machine");
  return per_state_[i];
}

const UtilityAnalysis* StateUtilities::find(const CompiledMachine& machine,
                                            const CompiledState& st) const {
  return std::get_if<UtilityAnalysis>(&slot(machine, st));
}

const UtilityAnalysis& StateUtilities::get(const CompiledMachine& machine,
                                           const CompiledState& st) const {
  const auto& s = slot(machine, st);
  if (const auto* err = std::get_if<CompileError>(&s)) throw *err;
  return std::get<UtilityAnalysis>(s);
}

// --- Poll analysis -----------------------------------------------------------

namespace {

// Best-effort conversion of an ival expression into inverse-linear form.
// Handles: constant, and  c / <linear in res fields>. Returns false if the
// shape is unsupported.
bool inverse_linear(const Expr& e, Poly& inv) {
  // Constant?
  if (e.kind == Expr::Kind::kLiteral && e.literal.is_numeric()) {
    double v = e.literal.as_float();
    if (v <= 0) return false;
    inv = Poly::constant(1.0 / v);
    return true;
  }
  if (e.kind == Expr::Kind::kBinary && e.op == BinOp::kDiv) {
    const Expr& num = *e.args[0];
    const Expr& den = *e.args[1];
    if (num.kind != Expr::Kind::kLiteral || !num.literal.is_numeric())
      return false;
    double c = num.literal.as_float();
    if (c <= 0) return false;
    // Denominator must be linear in res()-field accesses.
    // Supported: res().X  |  k * res().X  |  res().X * k.
    std::size_t dim;
    if (is_resource_access(den, "", dim)) {
      inv = Poly::var(dim, 1.0 / c);
      return true;
    }
    if (den.kind == Expr::Kind::kBinary && den.op == BinOp::kMul) {
      const Expr* lit = nullptr;
      const Expr* fld = nullptr;
      if (den.args[0]->kind == Expr::Kind::kLiteral) {
        lit = den.args[0].get();
        fld = den.args[1].get();
      } else if (den.args[1]->kind == Expr::Kind::kLiteral) {
        lit = den.args[1].get();
        fld = den.args[0].get();
      }
      if (lit && fld && lit->literal.is_numeric() &&
          is_resource_access(*fld, "", dim)) {
        inv = Poly::var(dim, lit->literal.as_float() / c);
        return true;
      }
    }
  }
  return false;
}

}  // namespace

std::vector<PollAnalysis> analyze_polls(
    const CompiledMachine& machine, Env& machine_env,
    const ResourcesValue& reference_alloc) {
  std::vector<PollAnalysis> out;
  Interpreter interp(machine, nullptr);
  for (const auto* v : machine.trigger_vars()) {
    if (*v->trigger == TriggerType::kTime) continue;  // pure timers
    FARM_CHECK(v->init);
    PollAnalysis pa;
    pa.var = v->name;
    pa.ttype = *v->trigger;

    // Evaluate .what with a host-independent interpreter. A res()-dependent
    // `what` would throw — disallowed by construction of the language.
    if (v->init->kind != Expr::Kind::kStructInit)
      throw CompileError("poll/probe initializer must be Poll{...}/Probe{...}",
                         v->loc);
    const Expr* what_expr = nullptr;
    const Expr* ival_expr = nullptr;
    for (std::size_t i = 0; i < v->init->field_names.size(); ++i) {
      if (v->init->field_ids[i] == Field::kWhat)
        what_expr = v->init->args[i].get();
      if (v->init->field_ids[i] == Field::kIval)
        ival_expr = v->init->args[i].get();
    }
    if (!ival_expr)
      throw CompileError("poll/probe needs .ival", v->loc);
    if (what_expr) {
      Value w = interp.eval(*what_expr, machine_env);
      if (!w.is_filter())
        throw CompileError(".what must evaluate to a filter", v->loc);
      pa.what = w.as_filter();
    }
    pa.subjects = pa.what.polling_subjects();

    if (inverse_linear(*ival_expr, pa.inv_ival)) {
      pa.inv_linear = true;
    } else {
      // Fallback: evaluate numerically at the reference allocation.
      struct RefHost;  // res() via a minimal host
      class MiniHost : public SeedHost {
       public:
        explicit MiniHost(ResourcesValue r) : r_(r) {}
        ResourcesValue resources() override { return r_; }
        void add_tcam_rule(const asic::TcamRule&) override {}
        void remove_tcam_rule(const net::Filter&) override {}
        std::optional<asic::TcamRule> get_tcam_rule(
            const net::Filter&) override {
          return std::nullopt;
        }
        void send(const Value&, const SendTarget&) override {}
        void exec(const std::string&) override {}
        void request_transit(const std::string&) override {}
        void trigger_updated(const std::string&) override {}
        std::int64_t switch_id() override { return -1; }
        std::int64_t now_ms() override { return 0; }
        void log(const std::string&) override {}

       private:
        ResourcesValue r_;
      } host(reference_alloc);
      Interpreter ri(machine, &host);
      Value iv = ri.eval(*ival_expr, machine_env);
      double ival = iv.is_numeric() ? iv.as_float() : 0;
      if (ival <= 0)
        throw CompileError("ival must evaluate to a positive number", v->loc);
      pa.inv_ival = Poly::constant(1.0 / ival);
      pa.inv_linear = false;
    }
    out.push_back(std::move(pa));
  }
  return out;
}

// --- Sketch analysis ---------------------------------------------------------

namespace {

// Evaluates one cms_new/mg_new/hll_new argument to an int without a host;
// returns false when it depends on res() or other runtime state.
bool static_int_arg(Interpreter& interp, const Expr& e, Env& env,
                    std::int64_t& out) {
  try {
    Value v = interp.eval(e, env);
    if (!v.is_int()) return false;
    out = v.as_int();
    return true;
  } catch (const EvalError&) {
    return false;
  }
}

void analyze_sketch_var(Interpreter& interp, const VarDecl& v, Env& env,
                        std::vector<SketchAnalysis>& out) {
  if (v.type != TypeName::kSketch || !v.init) return;
  SketchAnalysis sa;
  sa.var = v.name;
  sa.loc = v.loc;
  const Expr& init = *v.init;
  if (init.kind == Expr::Kind::kCall &&
      (init.builtin == Builtin::kCmsNew || init.builtin == Builtin::kMgNew ||
       init.builtin == Builtin::kHllNew)) {
    std::vector<std::int64_t> args;
    bool all_static = true;
    for (const auto& a : init.args) {
      std::int64_t x = 0;
      all_static &= static_int_arg(interp, *a, env, x);
      args.push_back(x);
    }
    if (all_static) {
      if (init.builtin == Builtin::kCmsNew && args.size() == 2) {
        sa.analyzable = true;
        sa.spec.kind = net::SketchKind::kCountMin;
        sa.spec.width = static_cast<int>(args[0]);
        sa.spec.depth = static_cast<int>(args[1]);
      } else if (init.builtin == Builtin::kMgNew && args.size() == 1) {
        sa.analyzable = true;
        sa.spec.kind = net::SketchKind::kMisraGries;
        sa.spec.capacity = static_cast<int>(args[0]);
        sa.spec.shards = 1;  // seed-local summaries are unsharded
      } else if (init.builtin == Builtin::kHllNew && args.size() == 1) {
        sa.analyzable = true;
        sa.spec.kind = net::SketchKind::kHyperLogLog;
        sa.spec.precision = static_cast<int>(args[0]);
      }
      if (sa.analyzable) sa.problem = sa.spec.validate();
    }
  }
  out.push_back(std::move(sa));
}

}  // namespace

std::vector<SketchAnalysis> analyze_sketches(const CompiledMachine& machine,
                                             Env& machine_env) {
  std::vector<SketchAnalysis> out;
  Interpreter interp(machine, nullptr);
  for (const auto* v : machine.vars)
    analyze_sketch_var(interp, *v, machine_env, out);
  for (const auto& s : machine.states)
    for (const auto* v : s.locals)
      analyze_sketch_var(interp, *v, machine_env, out);
  return out;
}

// --- Placement resolution -----------------------------------------------------

namespace {

bool range_ok(BinOp op, int dist, std::int64_t bound) {
  switch (op) {
    case BinOp::kEq:
      return dist == bound;
    case BinOp::kLe:
      return dist <= bound;
    case BinOp::kGe:
      return dist >= bound;
    case BinOp::kLt:
      return dist < bound;
    case BinOp::kGt:
      return dist > bound;
    case BinOp::kNe:
      return dist != bound;
    default:
      return false;
  }
}

}  // namespace

std::vector<ResolvedSeed> resolve_places(const CompiledMachine& machine,
                                         Env& machine_env,
                                         const net::SdnController& controller) {
  const net::Topology& topo = controller.topology();
  Interpreter interp(machine, nullptr);
  std::vector<ResolvedSeed> out;

  auto push_dedup = [&out](std::vector<net::NodeId> candidates) {
    if (candidates.empty()) return;
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    for (const auto& s : out)
      if (s.candidates == candidates) return;  // dedup identical sets
    out.push_back(ResolvedSeed{std::move(candidates)});
  };

  std::vector<const PlaceDirective*> places = machine.places;
  if (places.empty()) {
    // No directive: default to `place all` (every switch runs one seed).
    static const PlaceDirective kDefault{};
    places.push_back(&kDefault);
  }

  for (const auto* pl : places) {
    switch (pl->mode) {
      case PlaceDirective::Mode::kEverywhere: {
        auto switches = topo.switches();
        if (pl->all) {
          for (auto n : switches) push_dedup({n});
        } else {
          push_dedup(switches);
        }
        break;
      }
      case PlaceDirective::Mode::kSwitchList: {
        std::vector<net::NodeId> ids;
        for (const auto& ex : pl->switch_ids) {
          Value v = interp.eval(*ex, machine_env);
          if (!v.is_int())
            throw CompileError("place: switch ids must be integers", pl->loc);
          auto id = static_cast<net::NodeId>(v.as_int());
          if (id >= topo.node_count() ||
              topo.node(id).kind != net::NodeKind::kSwitch)
            throw CompileError("place: not a switch id: " +
                                   std::to_string(v.as_int()),
                               pl->loc);
          ids.push_back(id);
        }
        if (pl->all) {
          for (auto n : ids) push_dedup({n});
        } else {
          push_dedup(ids);
        }
        break;
      }
      case PlaceDirective::Mode::kRange: {
        net::Prefix src = net::Prefix::any(), dst = net::Prefix::any();
        if (pl->path_filter) {
          Value f = interp.eval(*pl->path_filter, machine_env);
          if (!f.is_filter())
            throw CompileError("place: path expression must be a filter",
                               pl->loc);
          // Only what the filter provably confines narrows the paths.
          src = f.as_filter().prefix_constraint(net::FilterField::kSrcIp);
          dst = f.as_filter().prefix_constraint(net::FilterField::kDstIp);
        }
        Value bound_v = interp.eval(*pl->range_value, machine_env);
        std::int64_t bound = bound_v.as_int();
        auto paths = controller.paths_matching(src, dst);
        for (const auto& path : paths) {
          std::vector<net::NodeId> matching;
          int len = static_cast<int>(path.size());
          for (int i = 0; i < len; ++i) {
            int dist;
            switch (pl->anchor) {
              case PlaceDirective::Anchor::kSender:
                dist = i;
                break;
              case PlaceDirective::Anchor::kReceiver:
                dist = len - 1 - i;
                break;
              case PlaceDirective::Anchor::kMidpoint: {
                // Distance to the nearest center position.
                int lo = (len - 1) / 2, hi = len / 2;
                dist = std::min(std::abs(i - lo), std::abs(i - hi));
                break;
              }
            }
            if (!range_ok(pl->range_op, dist, bound)) continue;
            if (topo.node(path[static_cast<std::size_t>(i)]).kind !=
                net::NodeKind::kSwitch)
              continue;  // seeds are placeable on switches only
            matching.push_back(path[static_cast<std::size_t>(i)]);
          }
          if (matching.empty()) continue;
          if (pl->all) {
            for (auto n : matching) push_dedup({n});
          } else {
            push_dedup(std::move(matching));
          }
        }
        break;
      }
    }
  }
  return out;
}

}  // namespace farm::almanac
