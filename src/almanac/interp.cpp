#include "almanac/interp.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace farm::almanac {

namespace {

double need_num(const Value& v, SourceLoc loc, const char* what) {
  if (!v.is_numeric())
    throw EvalError(std::string(what) + ": expected number, got " +
                        v.type_name(),
                    loc);
  return v.as_float();
}

// int64 range representable without undefined casts: [-2^63, 2^63) — the
// upper bound is exclusive because 2^63 itself rounds to a double that is
// out of range.
constexpr double kI64DblLo = -9223372036854775808.0;
constexpr double kI64DblHi = 9223372036854775808.0;

std::int64_t need_int(const Value& v, SourceLoc loc, const char* what) {
  if (v.is_int()) return v.as_int();
  if (v.is_float()) {
    double f = v.as_float();
    if (f == std::floor(f) && f >= kI64DblLo && f < kI64DblHi)
      return static_cast<std::int64_t>(f);
  }
  throw EvalError(std::string(what) + ": expected integer, got " +
                      v.to_string(),
                  loc);
}

std::int64_t checked_arith(std::int64_t a, std::int64_t b, BinOp op,
                           SourceLoc loc) {
  std::int64_t r = 0;
  bool ovf = op == BinOp::kAdd   ? __builtin_add_overflow(a, b, &r)
             : op == BinOp::kSub ? __builtin_sub_overflow(a, b, &r)
                                 : __builtin_mul_overflow(a, b, &r);
  if (ovf)
    throw EvalError(std::string("integer overflow in '") +
                        (op == BinOp::kAdd   ? "+"
                         : op == BinOp::kSub ? "-"
                                             : "*") +
                        "'",
                    loc);
  return r;
}

const net::Filter& need_filter(const Value& v, SourceLoc loc,
                               const char* what) {
  if (!v.is_filter())
    throw EvalError(std::string(what) + ": expected filter, got " +
                        v.type_name(),
                    loc);
  return v.as_filter();
}

std::vector<Value>& need_list(const Value& v, SourceLoc loc,
                              const std::string& what) {
  if (!v.is_list())
    throw EvalError(what + ": expected list, got " + v.type_name(), loc);
  return *v.as_list();
}

const std::vector<StatEntry>& need_stats(const Value& v, SourceLoc loc,
                                         const std::string& what) {
  if (!v.is_stats())
    throw EvalError(what + ": expected stats, got " + v.type_name(), loc);
  return *v.as_stats().entries;
}

const std::string& need_string(const Value& v, SourceLoc loc,
                               const std::string& what) {
  if (!v.is_string())
    throw EvalError(what + ": expected string, got " + v.type_name(), loc);
  return v.as_string();
}

std::string key_string(const Value& v) {
  return v.is_string() ? v.as_string() : v.to_string();
}

}  // namespace

void Env::define(Symbol s, Value v) {
  for (auto& b : vars_)
    if (b.sym == s) {
      b.value = std::move(v);
      return;
    }
  vars_.push_back({s, std::move(v)});
}

Value* Env::find(const std::string& name) {
  Symbol s = find_symbol(name);
  return s == kNoSymbol ? nullptr : find(s);
}

const Value* Env::find(const std::string& name) const {
  return const_cast<Env*>(this)->find(name);
}

bool Env::assign(const std::string& name, Value v) {
  Symbol s = find_symbol(name);
  return s != kNoSymbol && assign(s, std::move(v));
}

std::unordered_map<std::string, Value> Env::own() const {
  std::unordered_map<std::string, Value> out;
  for (const auto& b : vars_) out.emplace(symbol_name(b.sym), b.value);
  return out;
}

Value Interpreter::default_value(TypeName t) {
  switch (t) {
    case TypeName::kBool:
      return Value(false);
    case TypeName::kInt:
    case TypeName::kLong:
      return Value(std::int64_t{0});
    case TypeName::kFloat:
      return Value(0.0);
    case TypeName::kString:
      return Value(std::string{});
    case TypeName::kList:
      return Value::empty_list();
    case TypeName::kPacket:
      return Value(net::PacketHeader{});
    case TypeName::kAction:
      return Value(ActionValue{});
    case TypeName::kFilter:
      return Value(net::Filter{});
    case TypeName::kStats:
      return Value(StatsValue{});
    case TypeName::kRule:
      return Value(asic::TcamRule{});
    case TypeName::kSketch:
      return Value(SketchValue{});
    case TypeName::kVoid:
      return Value();
  }
  return Value();
}

bool Interpreter::matches_type(const Value& v, TypeName t) {
  switch (t) {
    case TypeName::kBool:
      return v.is_bool();
    case TypeName::kInt:
    case TypeName::kLong:
      return v.is_int();
    case TypeName::kFloat:
      return v.is_numeric();
    case TypeName::kString:
      return v.is_string();
    case TypeName::kList:
      return v.is_list();
    case TypeName::kPacket:
      return v.is_packet();
    case TypeName::kAction:
      return v.is_action();
    case TypeName::kFilter:
      return v.is_filter();
    case TypeName::kStats:
      return v.is_stats();
    case TypeName::kRule:
      return v.is_rule();
    case TypeName::kSketch:
      return v.is_sketch();
    case TypeName::kVoid:
      return v.is_nil();
  }
  return false;
}

Value Interpreter::eval(const Expr& e, Env& env) {
  switch (e.kind) {
    case Expr::Kind::kLiteral:
      return e.literal;
    case Expr::Kind::kVarRef: {
      if (Value* v = env.find(e.sym)) return *v;
      throw EvalError("undefined variable: " + e.name, e.loc);
    }
    case Expr::Kind::kFieldAccess:
      return eval_field(e, env);
    case Expr::Kind::kBinary:
      return eval_binary(e, env);
    case Expr::Kind::kNot: {
      Value v = eval(*e.args[0], env);
      if (v.is_bool()) return Value(!v.as_bool());
      if (v.is_filter()) return Value(net::Filter::negate(v.as_filter()));
      throw EvalError("'not' expects bool or filter, got " + v.type_name(),
                      e.loc);
    }
    case Expr::Kind::kCall:
      return eval_call(e, env);
    case Expr::Kind::kFilterAtom:
      return eval_filter_atom(e, env);
    case Expr::Kind::kStructInit:
      return eval_struct_init(e, env);
  }
  throw EvalError("unhandled expression", e.loc);
}

Value Interpreter::eval_binary(const Expr& e, Env& env) {
  const Expr& le = *e.args[0];
  const Expr& re = *e.args[1];
  // Short-circuit only applies to boolean operands; filters always need
  // both sides.
  Value lhs = eval(le, env);
  if (e.op == BinOp::kAnd && lhs.is_bool()) {
    if (!lhs.as_bool()) return Value(false);
    Value rhs = eval(re, env);
    if (rhs.is_bool()) return rhs;
    if (rhs.is_filter()) return rhs;  // true AND f == f
    throw EvalError("'and' expects bool or filter operands", e.loc);
  }
  if (e.op == BinOp::kOr && lhs.is_bool()) {
    if (lhs.as_bool()) return Value(true);
    Value rhs = eval(re, env);
    if (rhs.is_bool()) return rhs;
    if (rhs.is_filter()) return rhs;  // false OR f == f
    throw EvalError("'or' expects bool or filter operands", e.loc);
  }
  Value rhs = eval(re, env);

  switch (e.op) {
    case BinOp::kAnd:
    case BinOp::kOr: {
      if (lhs.is_filter() || rhs.is_filter()) {
        net::Filter lf = lhs.is_filter() ? lhs.as_filter() : net::Filter{};
        net::Filter rf = rhs.is_filter() ? rhs.as_filter() : net::Filter{};
        if (!lhs.is_filter() && !(lhs.is_bool() && lhs.as_bool()))
          throw EvalError("cannot combine non-filter with filter", e.loc);
        if (!rhs.is_filter() && !(rhs.is_bool() && rhs.as_bool()))
          throw EvalError("cannot combine filter with non-filter", e.loc);
        return Value(e.op == BinOp::kAnd ? net::Filter::conj(lf, rf)
                                         : net::Filter::disj(lf, rf));
      }
      throw EvalError("'and'/'or' expect bool or filter operands", e.loc);
    }
    case BinOp::kAdd:
      if (lhs.is_string() && rhs.is_string())
        return Value(lhs.as_string() + rhs.as_string());
      if (lhs.is_string() || rhs.is_string())
        return Value((lhs.is_string() ? lhs.as_string() : lhs.to_string()) +
                     (rhs.is_string() ? rhs.as_string() : rhs.to_string()));
      if (lhs.is_list() && rhs.is_list()) {
        auto out = std::make_shared<std::vector<Value>>(*lhs.as_list());
        out->insert(out->end(), rhs.as_list()->begin(), rhs.as_list()->end());
        return Value(std::move(out));
      }
      if (lhs.is_int() && rhs.is_int())
        return Value(checked_arith(lhs.as_int(), rhs.as_int(), e.op, e.loc));
      return Value(need_num(lhs, e.loc, "+") + need_num(rhs, e.loc, "+"));
    case BinOp::kSub:
      if (lhs.is_int() && rhs.is_int())
        return Value(checked_arith(lhs.as_int(), rhs.as_int(), e.op, e.loc));
      return Value(need_num(lhs, e.loc, "-") - need_num(rhs, e.loc, "-"));
    case BinOp::kMul:
      if (lhs.is_int() && rhs.is_int())
        return Value(checked_arith(lhs.as_int(), rhs.as_int(), e.op, e.loc));
      return Value(need_num(lhs, e.loc, "*") * need_num(rhs, e.loc, "*"));
    case BinOp::kDiv: {
      double denom = need_num(rhs, e.loc, "/");
      if (denom == 0) throw EvalError("division by zero", e.loc);
      if (lhs.is_int() && rhs.is_int()) {
        std::int64_t a = lhs.as_int();
        std::int64_t b = rhs.as_int();
        // INT64_MIN / -1 (and its % probe) overflows int64.
        if (a == std::numeric_limits<std::int64_t>::min() && b == -1)
          throw EvalError("integer overflow in '/'", e.loc);
        if (a % b == 0) return Value(a / b);
      }
      return Value(need_num(lhs, e.loc, "/") / denom);
    }
    case BinOp::kEq:
      return Value(lhs.equals(rhs));
    case BinOp::kNe:
      return Value(!lhs.equals(rhs));
    case BinOp::kLe:
    case BinOp::kGe:
    case BinOp::kLt:
    case BinOp::kGt: {
      if (lhs.is_string() && rhs.is_string()) {
        int c = lhs.as_string().compare(rhs.as_string());
        switch (e.op) {
          case BinOp::kLe:
            return Value(c <= 0);
          case BinOp::kGe:
            return Value(c >= 0);
          case BinOp::kLt:
            return Value(c < 0);
          default:
            return Value(c > 0);
        }
      }
      double a = need_num(lhs, e.loc, "compare");
      double b = need_num(rhs, e.loc, "compare");
      switch (e.op) {
        case BinOp::kLe:
          return Value(a <= b);
        case BinOp::kGe:
          return Value(a >= b);
        case BinOp::kLt:
          return Value(a < b);
        default:
          return Value(a > b);
      }
    }
  }
  throw EvalError("unhandled binary operator", e.loc);
}

Value Interpreter::eval_filter_atom(const Expr& e, Env& env) {
  if (e.args.empty()) {
    // `port ANY` / `iface ANY`: every switch interface.
    if (e.field == Field::kPort || e.field == Field::kIface)
      return Value(net::Filter::any_iface());
    throw EvalError("filter atom '" + e.name + "' needs an argument", e.loc);
  }
  Value arg = eval(*e.args[0], env);
  switch (e.field) {
    case Field::kSrcIP:
    case Field::kDstIP: {
      if (!arg.is_string())
        throw EvalError(e.name + " expects a string prefix", e.loc);
      auto p = net::Prefix::parse(arg.as_string());
      if (!p)
        throw EvalError("malformed prefix: " + arg.as_string(), e.loc);
      return Value(e.field == Field::kSrcIP ? net::Filter::src_ip(*p)
                                            : net::Filter::dst_ip(*p));
    }
    case Field::kProto: {
      const std::string& p = need_string(arg, e.loc, e.name);
      if (p == "tcp") return Value(net::Filter::proto(net::Proto::kTcp));
      if (p == "udp") return Value(net::Filter::proto(net::Proto::kUdp));
      if (p == "icmp") return Value(net::Filter::proto(net::Proto::kIcmp));
      throw EvalError("unknown protocol: " + p, e.loc);
    }
    default:
      break;
  }
  std::int64_t v = need_int(arg, e.loc, e.name.c_str());
  const auto port = static_cast<std::uint16_t>(v);
  switch (e.field) {
    case Field::kPort:
      return Value(net::Filter::l4_port(port));
    case Field::kSrcPort:
      return Value(net::Filter::src_port(port, port));
    case Field::kDstPort:
      return Value(net::Filter::dst_port(port, port));
    case Field::kIface:
      return Value(net::Filter::iface(static_cast<std::int32_t>(v)));
    default:
      throw EvalError("unknown filter atom: " + e.name, e.loc);
  }
}

Value Interpreter::eval_struct_init(const Expr& e, Env& env) {
  auto field = [&](Field f) -> const Expr* {
    for (std::size_t i = 0; i < e.field_ids.size(); ++i)
      if (e.field_ids[i] == f) return e.args[i].get();
    return nullptr;
  };
  switch (e.struct_kind) {
    case StructKind::kPoll:
    case StructKind::kProbe: {
      TriggerSpec spec;
      if (const Expr* ival = field(Field::kIval))
        spec.ival_seconds = need_num(eval(*ival, env), e.loc, "ival");
      else
        throw EvalError(e.name + " requires .ival", e.loc);
      if (const Expr* what = field(Field::kWhat))
        spec.what = need_filter(eval(*what, env), e.loc, "what");
      return Value(std::move(spec));
    }
    case StructKind::kRule: {
      asic::TcamRule rule;
      if (const Expr* p = field(Field::kPattern))
        rule.pattern = need_filter(eval(*p, env), e.loc, "pattern");
      else
        throw EvalError("Rule requires .pattern", e.loc);
      if (const Expr* a = field(Field::kAct)) {
        Value av = eval(*a, env);
        if (!av.is_action())
          throw EvalError("Rule.act must be an action value", e.loc);
        rule.action = av.as_action().action;
        rule.rate_limit_bps = av.as_action().rate_limit_bps;
      }
      if (const Expr* pr = field(Field::kPriority))
        rule.priority = static_cast<int>(need_int(eval(*pr, env), e.loc,
                                                  "priority"));
      return Value(std::move(rule));
    }
    case StructKind::kUnknown:
      break;
  }
  throw EvalError("unknown struct type: " + e.name, e.loc);
}

Value Interpreter::eval_field(const Expr& e, Env& env) {
  // A variable base is read in place: packets and rules are not copied
  // just to extract one field.
  const Expr& be = *e.args[0];
  Value owned;
  const Value* bp = be.kind == Expr::Kind::kVarRef ? env.find(be.sym) : nullptr;
  if (!bp) {
    owned = eval(be, env);
    bp = &owned;
  }
  const Value& base = *bp;
  const std::string& f = e.name;
  if (base.is_resources()) {
    const auto& r = base.as_resources();
    switch (e.field) {
      case Field::kVCPU:
        return Value(r.vCPU);
      case Field::kRAM:
        return Value(r.RAM);
      case Field::kTCAM:
        return Value(r.TCAM);
      case Field::kPCIe:
        return Value(r.PCIe);
      default:
        throw EvalError("unknown resource field: " + f, e.loc);
    }
  }
  if (base.is_packet()) {
    const auto& p = base.as_packet();
    switch (e.field) {
      case Field::kSrcIP:
        return Value(p.src_ip.to_string());
      case Field::kDstIP:
        return Value(p.dst_ip.to_string());
      case Field::kSrcPort:
        return Value(std::int64_t{p.src_port});
      case Field::kDstPort:
        return Value(std::int64_t{p.dst_port});
      case Field::kSize:
        return Value(std::int64_t{p.size_bytes});
      case Field::kProto:
        return Value(p.proto == net::Proto::kTcp   ? "tcp"
                     : p.proto == net::Proto::kUdp ? "udp"
                                                   : "icmp");
      case Field::kSyn:
        return Value(p.flags.syn);
      case Field::kAck:
        return Value(p.flags.ack);
      case Field::kFin:
        return Value(p.flags.fin);
      case Field::kRst:
        return Value(p.flags.rst);
      default:
        throw EvalError("unknown packet field: " + f, e.loc);
    }
  }
  if (base.is_trigger()) {
    const auto& t = base.as_trigger();
    if (e.field == Field::kIval) return Value(t.ival_seconds);
    if (e.field == Field::kWhat) return Value(t.what);
    throw EvalError("unknown trigger field: " + f, e.loc);
  }
  if (base.is_rule()) {
    const auto& r = base.as_rule();
    switch (e.field) {
      case Field::kPattern:
        return Value(r.pattern);
      case Field::kAct: {
        ActionValue a;
        a.action = r.action;
        a.rate_limit_bps = r.rate_limit_bps;
        return Value(a);
      }
      case Field::kId:
        return Value(static_cast<std::int64_t>(r.id));
      default:
        throw EvalError("unknown rule field: " + f, e.loc);
    }
  }
  throw EvalError("value of type " + base.type_name() + " has no field " + f,
                  e.loc);
}

Value Interpreter::eval_call(const Expr& e, Env& env) {
  const std::size_t base = arg_stack_.size();
  // Pops this call's arguments however the call ends.
  struct Pop {
    std::vector<Value>& stack;
    std::size_t base;
    ~Pop() { stack.resize(base); }
  } pop{arg_stack_, base};
  for (const auto& a : e.args) {
    Value v = eval(*a, env);
    arg_stack_.push_back(std::move(v));
  }
  Args args(arg_stack_.data() + base, e.args.size());
  // Builtins shadow user functions of the same name.
  if (e.builtin != Builtin::kNone) return builtin(e, args);
  return call_function(e, args, env);
}

Value Interpreter::call_function(const Expr& e, Args args, Env& env) {
  const std::string& name = e.name;
  const FuncDecl* f = machine_.program->function(e.sym);
  if (!f) throw EvalError("unknown function: " + name, e.loc);
  if (f->params.size() != args.size())
    throw EvalError("function " + name + " expects " +
                        std::to_string(f->params.size()) + " arguments, got " +
                        std::to_string(args.size()),
                    e.loc);
  // One level deeper until the call ends, however it ends.
  struct Depth {
    int& depth;
    explicit Depth(int& d) : depth(++d) {}
    ~Depth() { --depth; }
  } depth(call_depth_);
  if (call_depth_ > kMaxCallDepth)
    throw EvalError("call depth exceeded in " + name, e.loc);
  // Function scope chains onto the machine root so helpers can read
  // machine-level configuration.
  Env* root_most = &env;
  while (root_most->parent()) root_most = root_most->parent();
  Env scope(root_most);
  scope.reserve(args.size());
  for (std::size_t i = 0; i < args.size(); ++i)
    scope.define(f->params[i].sym, std::move(args[i]));
  ExecResult r = exec(f->body, scope);
  return r.returned ? std::move(r.return_value) : Value();
}

Value Interpreter::builtin(const Expr& e, Args args) {
  const std::string& name = e.name;
  const SourceLoc loc = e.loc;
  auto arity = [&](std::size_t n) {
    if (args.size() != n)
      throw EvalError(name + " expects " + std::to_string(n) + " arguments",
                      loc);
  };
  switch (e.builtin) {
    case Builtin::kNone:
      break;
    case Builtin::kRes:
      arity(0);
      return Value(host(loc)->resources());
    case Builtin::kMin:
    case Builtin::kMax: {
      const bool is_min = e.builtin == Builtin::kMin;
      if (args.size() < 2) throw EvalError(name + " expects >= 2 args", loc);
      bool all_int = true;
      for (const auto& a : args) all_int &= a.is_int();
      if (all_int) {
        std::int64_t acc = args[0].as_int();
        for (std::size_t i = 1; i < args.size(); ++i)
          acc = is_min ? std::min(acc, args[i].as_int())
                       : std::max(acc, args[i].as_int());
        return Value(acc);
      }
      double acc = need_num(args[0], loc, name.c_str());
      for (std::size_t i = 1; i < args.size(); ++i) {
        double v = need_num(args[i], loc, name.c_str());
        acc = is_min ? std::min(acc, v) : std::max(acc, v);
      }
      return Value(acc);
    }
    case Builtin::kAbs: {
      arity(1);
      if (args[0].is_int()) {
        std::int64_t v = args[0].as_int();
        if (v == std::numeric_limits<std::int64_t>::min())
          throw EvalError("integer overflow in 'abs'", loc);
        return Value(v < 0 ? -v : v);
      }
      return Value(std::abs(need_num(args[0], loc, "abs")));
    }
    case Builtin::kAddTCAMRule: {
      if (args.size() == 1 && args[0].is_rule()) {
        host(loc)->add_tcam_rule(args[0].as_rule());
        return Value();
      }
      arity(2);
      asic::TcamRule rule;
      rule.pattern = need_filter(args[0], loc, "addTCAMRule");
      if (!args[1].is_action())
        throw EvalError("addTCAMRule: second argument must be an action", loc);
      rule.action = args[1].as_action().action;
      rule.rate_limit_bps = args[1].as_action().rate_limit_bps;
      host(loc)->add_tcam_rule(rule);
      return Value();
    }
    case Builtin::kRemoveTCAMRule:
      arity(1);
      host(loc)->remove_tcam_rule(need_filter(args[0], loc, "removeTCAMRule"));
      return Value();
    case Builtin::kGetTCAMRule: {
      arity(1);
      auto r =
          host(loc)->get_tcam_rule(need_filter(args[0], loc, "getTCAMRule"));
      return r ? Value(*r) : Value();
    }
    case Builtin::kExec:
      arity(1);
      if (!args[0].is_string())
        throw EvalError("exec expects a command string", loc);
      host(loc)->exec(args[0].as_string());
      return Value();
    // --- actions ------------------------------------------------------------
    case Builtin::kActionDrop:
      arity(0);
      return Value(ActionValue{asic::RuleAction::kDrop, 0});
    case Builtin::kActionRateLimit:
      arity(1);
      return Value(ActionValue{asic::RuleAction::kRateLimit,
                               need_num(args[0], loc, name.c_str())});
    case Builtin::kActionCount:
      arity(0);
      return Value(ActionValue{asic::RuleAction::kCount, 0});
    case Builtin::kActionMirror:
      arity(0);
      return Value(ActionValue{asic::RuleAction::kMirror, 0});
    // --- lists --------------------------------------------------------------
    case Builtin::kListNew:
      arity(0);
      return Value::empty_list();
    case Builtin::kListSize:
      arity(1);
      return Value(
          static_cast<std::int64_t>(need_list(args[0], loc, name).size()));
    case Builtin::kIsListEmpty:
      arity(1);
      return Value(need_list(args[0], loc, name).empty());
    case Builtin::kListGet: {
      arity(2);
      const auto& l = need_list(args[0], loc, name);
      auto i = need_int(args[1], loc, "list_get");
      if (i < 0 || static_cast<std::size_t>(i) >= l.size())
        throw EvalError("list index out of range", loc);
      return l[static_cast<std::size_t>(i)];
    }
    case Builtin::kListAppend:
      arity(2);
      need_list(args[0], loc, name).push_back(args[1]);
      return args[0];
    case Builtin::kListClear:
      arity(1);
      need_list(args[0], loc, name).clear();
      return args[0];
    case Builtin::kListContains:
      arity(2);
      for (const auto& v : need_list(args[0], loc, name))
        if (v.equals(args[1])) return Value(true);
      return Value(false);
    case Builtin::kListIndexOf: {
      arity(2);
      const auto& l = need_list(args[0], loc, name);
      for (std::size_t i = 0; i < l.size(); ++i)
        if (l[i].equals(args[1])) return Value(static_cast<std::int64_t>(i));
      return Value(std::int64_t{-1});
    }
    case Builtin::kListSet: {
      arity(3);
      auto& l = need_list(args[0], loc, name);
      auto i = need_int(args[1], loc, "list_set");
      if (i < 0 || static_cast<std::size_t>(i) >= l.size())
        throw EvalError("list index out of range", loc);
      l[static_cast<std::size_t>(i)] = args[2];
      return args[0];
    }
    // --- statistics snapshots -----------------------------------------------
    case Builtin::kStatsSize:
      arity(1);
      return Value(
          static_cast<std::int64_t>(need_stats(args[0], loc, name).size()));
    case Builtin::kStatsIface:
    case Builtin::kStatsBytes:
    case Builtin::kStatsPackets:
    case Builtin::kStatsSubject: {
      arity(2);
      const auto& entries = need_stats(args[0], loc, name);
      auto i = need_int(args[1], loc, name.c_str());
      if (i < 0 || static_cast<std::size_t>(i) >= entries.size())
        throw EvalError("stats index out of range", loc);
      const StatEntry& s = entries[static_cast<std::size_t>(i)];
      switch (e.builtin) {
        case Builtin::kStatsIface:
          return Value(std::int64_t{s.iface});
        case Builtin::kStatsBytes:
          return Value(static_cast<std::int64_t>(s.bytes));
        case Builtin::kStatsPackets:
          return Value(static_cast<std::int64_t>(s.packets));
        default:
          return Value(s.subject);
      }
    }
    // --- sketches (§VIII extension) -----------------------------------------
    case Builtin::kCmsNew: {
      arity(2);
      // Validate via SketchSpec before construction — FARM_CHECK aborts,
      // and seed initializers are also evaluated inside the Sickle linter.
      net::SketchSpec spec;
      spec.kind = net::SketchKind::kCountMin;
      spec.width = static_cast<int>(need_int(args[0], loc, "cms_new width"));
      spec.depth = static_cast<int>(need_int(args[1], loc, "cms_new depth"));
      if (std::string err = spec.validate(); !err.empty())
        throw EvalError("cms_new: " + err, loc);
      SketchValue s;
      s.cms = std::make_shared<net::CountMinSketch>(spec.width, spec.depth);
      return Value(std::move(s));
    }
    case Builtin::kCmsAdd:
      arity(3);
      if (!args[0].is_sketch() || !args[0].as_sketch().cms)
        throw EvalError("cms_add expects a count-min sketch", loc);
      args[0].as_sketch().cms->add(
          key_string(args[1]),
          static_cast<std::uint64_t>(need_int(args[2], loc, "cms_add")));
      return Value();
    case Builtin::kCmsEstimate:
      arity(2);
      if (!args[0].is_sketch() || !args[0].as_sketch().cms)
        throw EvalError("cms_estimate expects a count-min sketch", loc);
      return Value(static_cast<std::int64_t>(
          args[0].as_sketch().cms->estimate(key_string(args[1]))));
    case Builtin::kCmsClear:
      arity(1);
      if (!args[0].is_sketch() || !args[0].as_sketch().cms)
        throw EvalError("cms_clear expects a count-min sketch", loc);
      args[0].as_sketch().cms->clear();
      return Value();
    case Builtin::kMgNew: {
      arity(1);
      net::SketchSpec spec;
      spec.kind = net::SketchKind::kMisraGries;
      spec.capacity =
          static_cast<int>(need_int(args[0], loc, "mg_new capacity"));
      spec.shards = 1;  // seed-local summaries are unsharded
      if (std::string err = spec.validate(); !err.empty())
        throw EvalError("mg_new: " + err, loc);
      SketchValue s;
      s.mg = std::make_shared<net::MisraGries>(spec.capacity);
      return Value(std::move(s));
    }
    case Builtin::kMgAdd:
      arity(3);
      if (!args[0].is_sketch() || !args[0].as_sketch().mg)
        throw EvalError("mg_add expects a misra-gries summary", loc);
      args[0].as_sketch().mg->add(
          key_string(args[1]),
          static_cast<std::uint64_t>(need_int(args[2], loc, "mg_add")));
      return Value();
    case Builtin::kMgEstimate:
      arity(2);
      if (!args[0].is_sketch() || !args[0].as_sketch().mg)
        throw EvalError("mg_estimate expects a misra-gries summary", loc);
      return Value(static_cast<std::int64_t>(
          args[0].as_sketch().mg->estimate(key_string(args[1]))));
    case Builtin::kMgHitters: {
      arity(2);
      if (!args[0].is_sketch() || !args[0].as_sketch().mg)
        throw EvalError("mg_hitters expects a misra-gries summary", loc);
      auto min_count = need_int(args[1], loc, "mg_hitters");
      auto out = std::make_shared<std::vector<Value>>();
      for (const auto& [k, c] : args[0].as_sketch().mg->hitters(
               static_cast<std::uint64_t>(min_count > 0 ? min_count : 0)))
        out->push_back(Value(k));
      return Value(std::move(out));
    }
    case Builtin::kMgClear:
      arity(1);
      if (!args[0].is_sketch() || !args[0].as_sketch().mg)
        throw EvalError("mg_clear expects a misra-gries summary", loc);
      args[0].as_sketch().mg->clear();
      return Value();
    case Builtin::kHllNew: {
      arity(1);
      net::SketchSpec spec;
      spec.kind = net::SketchKind::kHyperLogLog;
      spec.precision =
          static_cast<int>(need_int(args[0], loc, "hll_new precision"));
      if (std::string err = spec.validate(); !err.empty())
        throw EvalError("hll_new: " + err, loc);
      SketchValue s;
      s.hll = std::make_shared<net::HyperLogLog>(spec.precision);
      return Value(std::move(s));
    }
    case Builtin::kHllAdd:
      arity(2);
      if (!args[0].is_sketch() || !args[0].as_sketch().hll)
        throw EvalError("hll_add expects a HyperLogLog", loc);
      args[0].as_sketch().hll->add(key_string(args[1]));
      return Value();
    case Builtin::kHllEstimate:
      arity(1);
      if (!args[0].is_sketch() || !args[0].as_sketch().hll)
        throw EvalError("hll_estimate expects a HyperLogLog", loc);
      return Value(static_cast<std::int64_t>(
          args[0].as_sketch().hll->estimate() + 0.5));
    case Builtin::kHllClear:
      arity(1);
      if (!args[0].is_sketch() || !args[0].as_sketch().hll)
        throw EvalError("hll_clear expects a HyperLogLog", loc);
      args[0].as_sketch().hll->clear();
      return Value();
    // --- conversions & misc -------------------------------------------------
    case Builtin::kIsNil:
      arity(1);
      return Value(args[0].is_nil());
    case Builtin::kToLong: {
      arity(1);
      if (args[0].is_string()) {
        // std::stoll throws std::invalid_argument / std::out_of_range,
        // which would escape the runtime's EvalError handler; convert here.
        try {
          return Value(
              static_cast<std::int64_t>(std::stoll(args[0].as_string())));
        } catch (const std::exception&) {
          throw EvalError("to_long: cannot parse '" + args[0].as_string() +
                              "' as an integer",
                          loc);
        }
      }
      double f = std::trunc(need_num(args[0], loc, "to_long"));
      if (!(f >= kI64DblLo && f < kI64DblHi))
        throw EvalError("integer overflow in 'to_long'", loc);
      return Value(static_cast<std::int64_t>(f));
    }
    case Builtin::kToFloat:
      arity(1);
      return Value(need_num(args[0], loc, "to_float"));
    case Builtin::kToStr:
      arity(1);
      return Value(key_string(args[0]));
    case Builtin::kIfaceFilter:
      arity(1);
      return Value(net::Filter::iface(
          static_cast<std::int32_t>(need_int(args[0], loc, "iface_filter"))));
    case Builtin::kNowMs:
      arity(0);
      return Value(host(loc)->now_ms());
    case Builtin::kSwitchId:
      arity(0);
      return Value(host(loc)->switch_id());
    case Builtin::kLog:
      arity(1);
      host(loc)->log(key_string(args[0]));
      return Value();
  }
  throw EvalError("unknown function: " + name, loc);
}

ExecResult Interpreter::exec(const std::vector<ActionPtr>& actions, Env& env) {
  for (const auto& a : actions) {
    switch (a->kind) {
      case Action::Kind::kDeclare: {
        Value v = a->expr ? eval(*a->expr, env)
                          : default_value(a->decl_type);
        env.define(a->sym, std::move(v));
        break;
      }
      case Action::Kind::kAssign: {
        Value v = eval(*a->expr, env);
        if (!env.assign(a->sym, std::move(v)))
          throw EvalError("assignment to undeclared variable: " + a->target,
                          a->loc);
        // Trigger variables re-arm their timers on reassignment.
        if (a->may_assign_trigger && host_ && machine_.is_trigger(a->sym))
          host_->trigger_updated(a->target);
        break;
      }
      case Action::Kind::kIf: {
        Value c = eval(*a->expr, env);
        if (!c.is_bool())
          throw EvalError("if condition must be bool", a->loc);
        Env scope(&env);
        ExecResult r = exec(c.as_bool() ? a->body : a->else_body, scope);
        if (r.returned) return r;
        break;
      }
      case Action::Kind::kWhile: {
        std::int64_t guard = 0;
        // Each iteration gets a fresh scope; one Env is reused for them.
        Env scope(&env);
        for (;;) {
          Value c = eval(*a->expr, env);
          if (!c.is_bool())
            throw EvalError("while condition must be bool", a->loc);
          if (!c.as_bool()) break;
          scope.clear();
          ExecResult r = exec(a->body, scope);
          if (r.returned) return r;
          if (++guard > kMaxLoopIterations)
            throw EvalError("while loop exceeded iteration budget", a->loc);
        }
        break;
      }
      case Action::Kind::kTransit: {
        std::string target;
        if (a->expr->kind == Expr::Kind::kVarRef &&
            machine_.state(a->expr->sym)) {
          target = a->expr->name;  // bare state identifier
        } else {
          Value v = eval(*a->expr, env);
          if (!v.is_string())
            throw EvalError("transit target must be a state name", a->loc);
          target = v.as_string();
        }
        if (!machine_.state(target))
          throw EvalError("transit to unknown state: " + target, a->loc);
        if (host_) host_->request_transit(target);
        break;
      }
      case Action::Kind::kSend: {
        Value payload = eval(*a->expr, env);
        SendTarget target;
        target.to_harvester = a->to_harvester;
        target.machine = a->to_machine;
        if (a->to_dst)
          target.dst = need_int(eval(*a->to_dst, env), a->loc, "send @dst");
        if (host_) host_->send(payload, target);
        break;
      }
      case Action::Kind::kReturn: {
        ExecResult r;
        r.returned = true;
        if (a->expr) r.return_value = eval(*a->expr, env);
        return r;
      }
      case Action::Kind::kExprStmt:
        eval(*a->expr, env);
        break;
    }
  }
  return {};
}

}  // namespace farm::almanac
