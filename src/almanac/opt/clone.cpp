#include "almanac/opt/clone.h"

#include "almanac/resolve.h"

namespace farm::almanac::opt {

ExprPtr clone_expr(const Expr& e, CloneMap* map) {
  auto out = std::make_unique<Expr>();
  out->kind = e.kind;
  out->loc = e.loc;
  out->literal = e.literal.deep_copy();
  out->name = e.name;
  out->op = e.op;
  out->field_names = e.field_names;
  out->args.reserve(e.args.size());
  for (const auto& a : e.args)
    out->args.push_back(a ? clone_expr(*a, map) : nullptr);
  resolve_node(*out);
  if (map) map->exprs[&e] = out.get();
  return out;
}

ActionPtr clone_action(const Action& a, CloneMap* map) {
  auto out = std::make_unique<Action>();
  out->kind = a.kind;
  out->loc = a.loc;
  out->target = a.target;
  out->decl_type = a.decl_type;
  out->expr = a.expr ? clone_expr(*a.expr, map) : nullptr;
  out->body = clone_actions(a.body, map);
  out->else_body = clone_actions(a.else_body, map);
  out->to_harvester = a.to_harvester;
  out->to_machine = a.to_machine;
  out->to_dst = a.to_dst ? clone_expr(*a.to_dst, map) : nullptr;
  resolve_node(*out);
  // Clones keep their machine's trigger declarations, hence the flag.
  out->may_assign_trigger = a.may_assign_trigger;
  if (map) map->actions[&a] = out.get();
  return out;
}

std::vector<ActionPtr> clone_actions(const std::vector<ActionPtr>& actions,
                                     CloneMap* map) {
  std::vector<ActionPtr> out;
  out.reserve(actions.size());
  for (const auto& a : actions)
    if (a) out.push_back(clone_action(*a, map));
  return out;
}

VarDecl clone_var(const VarDecl& v, CloneMap* map) {
  VarDecl out;
  out.loc = v.loc;
  out.external = v.external;
  out.type = v.type;
  out.trigger = v.trigger;
  out.name = v.name;
  out.init = v.init ? clone_expr(*v.init, map) : nullptr;
  resolve_node(out);
  return out;
}

UtilityDecl clone_util(const UtilityDecl& u, CloneMap* map) {
  UtilityDecl out;
  out.loc = u.loc;
  out.param = u.param;
  out.body = clone_actions(u.body, map);
  return out;
}

EventDecl clone_event(const EventDecl& ev, CloneMap* map) {
  EventDecl out;
  out.loc = ev.loc;
  out.kind = ev.kind;
  out.var = ev.var;
  out.as_var = ev.as_var;
  out.recv_type = ev.recv_type;
  out.recv_var = ev.recv_var;
  out.from_harvester = ev.from_harvester;
  out.from_machine = ev.from_machine;
  out.from_dst = ev.from_dst ? clone_expr(*ev.from_dst, map) : nullptr;
  out.actions = clone_actions(ev.actions, map);
  resolve_node(out);
  return out;
}

PlaceDirective clone_place(const PlaceDirective& p, CloneMap* map) {
  PlaceDirective out;
  out.loc = p.loc;
  out.all = p.all;
  out.mode = p.mode;
  out.switch_ids.reserve(p.switch_ids.size());
  for (const auto& e : p.switch_ids)
    out.switch_ids.push_back(e ? clone_expr(*e, map) : nullptr);
  out.anchor = p.anchor;
  out.path_filter = p.path_filter ? clone_expr(*p.path_filter, map) : nullptr;
  out.range_op = p.range_op;
  out.range_value =
      p.range_value ? clone_expr(*p.range_value, map) : nullptr;
  return out;
}

FuncDecl clone_function(const FuncDecl& f, CloneMap* map) {
  FuncDecl out;
  out.loc = f.loc;
  out.return_type = f.return_type;
  out.name = f.name;
  out.params = f.params;
  out.body = clone_actions(f.body, map);
  resolve_node(out);
  return out;
}

}  // namespace farm::almanac::opt
