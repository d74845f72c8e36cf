#include "almanac/resolve.h"

#include <set>
#include <string>
#include <utility>

namespace farm::almanac {

namespace {

constexpr std::pair<std::string_view, Field> kFields[] = {
    {"vCPU", Field::kVCPU},       {"RAM", Field::kRAM},
    {"TCAM", Field::kTCAM},       {"PCIe", Field::kPCIe},
    {"srcIP", Field::kSrcIP},     {"dstIP", Field::kDstIP},
    {"port", Field::kPort},       {"srcPort", Field::kSrcPort},
    {"dstPort", Field::kDstPort}, {"iface", Field::kIface},
    {"size", Field::kSize},       {"proto", Field::kProto},
    {"syn", Field::kSyn},         {"ack", Field::kAck},
    {"fin", Field::kFin},         {"rst", Field::kRst},
    {"ival", Field::kIval},       {"what", Field::kWhat},
    {"pattern", Field::kPattern}, {"act", Field::kAct},
    {"id", Field::kId},           {"priority", Field::kPriority},
};

Symbol intern_or_none(const std::string& name) {
  return name.empty() ? kNoSymbol : intern(name);
}

void resolve_tree(Expr* e) {
  if (!e) return;
  resolve_node(*e);
  for (auto& a : e->args) resolve_tree(a.get());
}

void resolve_actions(std::vector<ActionPtr>& actions,
                     const std::set<std::string>& trigger_names) {
  for (auto& ap : actions) {
    if (!ap) continue;
    Action& a = *ap;
    resolve_node(a);
    a.may_assign_trigger =
        a.kind == Action::Kind::kAssign && trigger_names.count(a.target) != 0;
    resolve_tree(a.expr.get());
    resolve_tree(a.to_dst.get());
    resolve_actions(a.body, trigger_names);
    resolve_actions(a.else_body, trigger_names);
  }
}

void resolve_var(VarDecl& v) {
  resolve_node(v);
  resolve_tree(v.init.get());
}

void resolve_event(EventDecl& ev, const std::set<std::string>& trigger_names) {
  resolve_node(ev);
  resolve_tree(ev.from_dst.get());
  resolve_actions(ev.actions, trigger_names);
}

}  // namespace

Field lookup_field(std::string_view name) {
  for (const auto& [n, f] : kFields)
    if (n == name) return f;
  return Field::kUnknown;
}

StructKind lookup_struct(std::string_view name) {
  if (name == "Poll") return StructKind::kPoll;
  if (name == "Probe") return StructKind::kProbe;
  if (name == "Rule") return StructKind::kRule;
  return StructKind::kUnknown;
}

void resolve_node(Expr& e) {
  e.sym = kNoSymbol;
  e.builtin = Builtin::kNone;
  e.field = Field::kUnknown;
  e.struct_kind = StructKind::kUnknown;
  e.field_ids.clear();
  switch (e.kind) {
    case Expr::Kind::kVarRef:
      e.sym = intern(e.name);
      break;
    case Expr::Kind::kCall:
      e.sym = intern(e.name);
      e.builtin = lookup_builtin(e.name);
      break;
    case Expr::Kind::kFieldAccess:
    case Expr::Kind::kFilterAtom:
      e.field = lookup_field(e.name);
      break;
    case Expr::Kind::kStructInit:
      e.struct_kind = lookup_struct(e.name);
      for (const auto& label : e.field_names)
        e.field_ids.push_back(lookup_field(label));
      break;
    default:
      break;
  }
}

void resolve_node(Action& a) {
  a.sym = a.kind == Action::Kind::kAssign || a.kind == Action::Kind::kDeclare
              ? intern(a.target)
              : kNoSymbol;
}

void resolve_node(VarDecl& v) { v.sym = intern(v.name); }

void resolve_node(EventDecl& ev) {
  ev.var_sym = intern_or_none(ev.var);
  ev.as_sym = intern_or_none(ev.as_var);
  ev.recv_sym = intern_or_none(ev.recv_var);
}

void resolve_node(FuncDecl& f) {
  f.sym = intern(f.name);
  for (auto& p : f.params) p.sym = intern(p.name);
}

void resolve_program(Program& program) {
  std::set<std::string> trigger_names;
  for (const auto& m : program.machines)
    for (const auto& v : m.vars)
      if (v.trigger) trigger_names.insert(v.name);

  for (auto& f : program.functions) {
    resolve_node(f);
    resolve_actions(f.body, trigger_names);
  }
  for (auto& m : program.machines) {
    for (auto& p : m.places) {
      for (auto& id : p.switch_ids) resolve_tree(id.get());
      resolve_tree(p.path_filter.get());
      resolve_tree(p.range_value.get());
    }
    for (auto& v : m.vars) resolve_var(v);
    for (auto& ev : m.machine_events) resolve_event(ev, trigger_names);
    for (auto& st : m.states) {
      for (auto& v : st.locals) resolve_var(v);
      if (st.util) resolve_actions(st.util->body, trigger_names);
      for (auto& ev : st.events) resolve_event(ev, trigger_names);
    }
  }
}

}  // namespace farm::almanac
