#include "almanac/xml.h"

#include <map>
#include <sstream>
#include <vector>

#include "almanac/resolve.h"

namespace farm::almanac {

namespace {

// --- Minimal XML document model ------------------------------------------------

struct XmlNode {
  std::string tag;
  std::map<std::string, std::string> attrs;
  std::vector<XmlNode> children;

  const XmlNode* child(const std::string& t) const {
    for (const auto& c : children)
      if (c.tag == t) return &c;
    return nullptr;
  }
  std::string attr(const std::string& name,
                   const std::string& fallback = "") const {
    auto it = attrs.find(name);
    return it == attrs.end() ? fallback : it->second;
  }
};

std::string escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '&':
        out += "&amp;";
        break;
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '"':
        out += "&quot;";
        break;
      case '\n':
        out += "&#10;";
        break;
      default:
        out += c;
    }
  }
  return out;
}

class XmlWriter {
 public:
  void open(const std::string& tag,
            std::initializer_list<std::pair<std::string, std::string>> attrs =
                {}) {
    out_ << "<" << tag;
    for (const auto& [k, v] : attrs) out_ << " " << k << "=\"" << escape(v)
                                          << "\"";
    out_ << ">";
    stack_.push_back(tag);
  }
  void close() {
    out_ << "</" << stack_.back() << ">";
    stack_.pop_back();
  }
  void leaf(const std::string& tag,
            std::initializer_list<std::pair<std::string, std::string>> attrs =
                {}) {
    out_ << "<" << tag;
    for (const auto& [k, v] : attrs) out_ << " " << k << "=\"" << escape(v)
                                          << "\"";
    out_ << "/>";
  }
  std::string str() const { return out_.str(); }

 private:
  std::ostringstream out_;
  std::vector<std::string> stack_;
};

class XmlParser {
 public:
  explicit XmlParser(const std::string& text) : text_(text) {}

  XmlNode parse() {
    skip_ws();
    XmlNode root = element();
    return root;
  }

 private:
  [[noreturn]] void fail(const std::string& msg) {
    throw XmlError(msg + " at offset " + std::to_string(pos_));
  }
  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }
  bool consume(char c) {
    if (peek() == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  std::string name() {
    std::string out;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_' || text_[pos_] == '-'))
      out += text_[pos_++];
    if (out.empty()) fail("expected name");
    return out;
  }
  std::string attr_value() {
    if (!consume('"')) fail("expected '\"'");
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '&') {
        auto semi = text_.find(';', pos_);
        if (semi == std::string::npos) fail("bad entity");
        std::string ent = text_.substr(pos_ + 1, semi - pos_ - 1);
        if (ent == "amp") out += '&';
        else if (ent == "lt") out += '<';
        else if (ent == "gt") out += '>';
        else if (ent == "quot") out += '"';
        else if (ent == "#10") out += '\n';
        else fail("unknown entity: " + ent);
        pos_ = semi + 1;
      } else {
        out += text_[pos_++];
      }
    }
    if (!consume('"')) fail("unterminated attribute");
    return out;
  }

  XmlNode element() {
    if (!consume('<')) fail("expected '<'");
    XmlNode node;
    node.tag = name();
    for (;;) {
      skip_ws();
      if (consume('/')) {
        if (!consume('>')) fail("expected '>'");
        return node;  // self-closing
      }
      if (consume('>')) break;
      std::string key = name();
      skip_ws();
      if (!consume('=')) fail("expected '='");
      skip_ws();
      node.attrs[key] = attr_value();
    }
    // Children until the closing tag.
    for (;;) {
      skip_ws();
      if (pos_ + 1 < text_.size() && text_[pos_] == '<' &&
          text_[pos_ + 1] == '/') {
        pos_ += 2;
        std::string closing = name();
        if (closing != node.tag)
          fail("mismatched closing tag: " + closing + " vs " + node.tag);
        if (!consume('>')) fail("expected '>'");
        return node;
      }
      node.children.push_back(element());
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

// --- Serialization ---------------------------------------------------------------

const char* type_attr(TypeName t) {
  static thread_local std::string buf;
  buf = to_string(t);
  return buf.c_str();
}

TypeName type_from_attr(const std::string& s) {
  for (int i = 0; i <= static_cast<int>(TypeName::kVoid); ++i)
    if (to_string(static_cast<TypeName>(i)) == s)
      return static_cast<TypeName>(i);
  throw XmlError("unknown type: " + s);
}

BinOp op_from_attr(const std::string& s) {
  for (int i = 0; i <= static_cast<int>(BinOp::kNe); ++i)
    if (to_string(static_cast<BinOp>(i)) == s) return static_cast<BinOp>(i);
  throw XmlError("unknown operator: " + s);
}

void write_expr(XmlWriter& w, const Expr& e);
void write_actions(XmlWriter& w, const char* tag,
                   const std::vector<ActionPtr>& actions);

void write_expr(XmlWriter& w, const Expr& e) {
  switch (e.kind) {
    case Expr::Kind::kLiteral: {
      const Value& v = e.literal;
      std::string t = v.is_bool()    ? "bool"
                      : v.is_int()   ? "long"
                      : v.is_float() ? "float"
                                     : "string";
      std::string val = v.is_string() ? v.as_string() : v.to_string();
      w.leaf("lit", {{"t", t}, {"v", val}});
      return;
    }
    case Expr::Kind::kVarRef:
      w.leaf("var", {{"name", e.name}});
      return;
    case Expr::Kind::kFieldAccess:
      w.open("field", {{"name", e.name}});
      write_expr(w, *e.args[0]);
      w.close();
      return;
    case Expr::Kind::kBinary:
      w.open("bin", {{"op", to_string(e.op)}});
      write_expr(w, *e.args[0]);
      write_expr(w, *e.args[1]);
      w.close();
      return;
    case Expr::Kind::kNot:
      w.open("not");
      write_expr(w, *e.args[0]);
      w.close();
      return;
    case Expr::Kind::kCall:
      w.open("call", {{"name", e.name}});
      for (const auto& a : e.args) write_expr(w, *a);
      w.close();
      return;
    case Expr::Kind::kFilterAtom:
      w.open("atom", {{"name", e.name}});
      for (const auto& a : e.args) write_expr(w, *a);
      w.close();
      return;
    case Expr::Kind::kStructInit: {
      w.open("struct", {{"name", e.name}});
      for (std::size_t i = 0; i < e.args.size(); ++i) {
        w.open("fld", {{"name", e.field_names[i]}});
        write_expr(w, *e.args[i]);
        w.close();
      }
      w.close();
      return;
    }
  }
}

void write_action(XmlWriter& w, const Action& a) {
  switch (a.kind) {
    case Action::Kind::kDeclare:
      w.open("declare", {{"target", a.target},
                         {"type", to_string(a.decl_type)}});
      if (a.expr) write_expr(w, *a.expr);
      w.close();
      return;
    case Action::Kind::kAssign:
      w.open("assign", {{"target", a.target}});
      write_expr(w, *a.expr);
      w.close();
      return;
    case Action::Kind::kIf:
      w.open("if");
      w.open("cond");
      write_expr(w, *a.expr);
      w.close();
      write_actions(w, "then", a.body);
      write_actions(w, "else", a.else_body);
      w.close();
      return;
    case Action::Kind::kWhile:
      w.open("while");
      w.open("cond");
      write_expr(w, *a.expr);
      w.close();
      write_actions(w, "body", a.body);
      w.close();
      return;
    case Action::Kind::kTransit:
      w.open("transit");
      write_expr(w, *a.expr);
      w.close();
      return;
    case Action::Kind::kSend:
      w.open("send", {{"harvester", a.to_harvester ? "1" : "0"},
                      {"machine", a.to_machine}});
      w.open("payload");
      write_expr(w, *a.expr);
      w.close();
      if (a.to_dst) {
        w.open("dst");
        write_expr(w, *a.to_dst);
        w.close();
      }
      w.close();
      return;
    case Action::Kind::kReturn:
      w.open("return");
      if (a.expr) write_expr(w, *a.expr);
      w.close();
      return;
    case Action::Kind::kExprStmt:
      w.open("stmt");
      write_expr(w, *a.expr);
      w.close();
      return;
  }
}

void write_actions(XmlWriter& w, const char* tag,
                   const std::vector<ActionPtr>& actions) {
  w.open(tag);
  for (const auto& a : actions) write_action(w, *a);
  w.close();
}

void write_event(XmlWriter& w, const char* tag, const EventDecl& ev) {
  std::string kind;
  switch (ev.kind) {
    case EventDecl::TriggerKind::kEnter:
      kind = "enter";
      break;
    case EventDecl::TriggerKind::kExit:
      kind = "exit";
      break;
    case EventDecl::TriggerKind::kRealloc:
      kind = "realloc";
      break;
    case EventDecl::TriggerKind::kVarTrigger:
      kind = "trigger";
      break;
    case EventDecl::TriggerKind::kRecv:
      kind = "recv";
      break;
  }
  w.open(tag, {{"kind", kind},
               {"var", ev.var},
               {"as", ev.as_var},
               {"recvtype", to_string(ev.recv_type)},
               {"recvvar", ev.recv_var},
               {"harvester", ev.from_harvester ? "1" : "0"},
               {"frommachine", ev.from_machine}});
  if (ev.from_dst) {
    w.open("fromdst");
    write_expr(w, *ev.from_dst);
    w.close();
  }
  write_actions(w, "actions", ev.actions);
  w.close();
}

void write_var(XmlWriter& w, const char* tag, const VarDecl& v) {
  std::string trig = v.trigger ? to_string(*v.trigger) : "";
  w.open(tag, {{"name", v.name},
               {"type", to_string(v.type)},
               {"external", v.external ? "1" : "0"},
               {"trigger", trig}});
  if (v.init) {
    w.open("init");
    write_expr(w, *v.init);
    w.close();
  }
  w.close();
}

// --- Deserialization ---------------------------------------------------------------

ExprPtr read_expr(const XmlNode& n);

std::vector<ActionPtr> read_actions(const XmlNode& n);

ExprPtr read_expr(const XmlNode& n) {
  auto e = std::make_unique<Expr>();
  if (n.tag == "lit") {
    e->kind = Expr::Kind::kLiteral;
    std::string t = n.attr("t");
    std::string v = n.attr("v");
    if (t == "bool") e->literal = Value(v == "true");
    else if (t == "long") e->literal = Value(static_cast<std::int64_t>(std::stoll(v)));
    else if (t == "float") e->literal = Value(std::stod(v));
    else e->literal = Value(v);
    return e;
  }
  if (n.tag == "var") {
    e->kind = Expr::Kind::kVarRef;
    e->name = n.attr("name");
    return e;
  }
  if (n.tag == "field") {
    e->kind = Expr::Kind::kFieldAccess;
    e->name = n.attr("name");
    e->args.push_back(read_expr(n.children.at(0)));
    return e;
  }
  if (n.tag == "bin") {
    e->kind = Expr::Kind::kBinary;
    e->op = op_from_attr(n.attr("op"));
    e->args.push_back(read_expr(n.children.at(0)));
    e->args.push_back(read_expr(n.children.at(1)));
    return e;
  }
  if (n.tag == "not") {
    e->kind = Expr::Kind::kNot;
    e->args.push_back(read_expr(n.children.at(0)));
    return e;
  }
  if (n.tag == "call" || n.tag == "atom") {
    e->kind = n.tag == "call" ? Expr::Kind::kCall : Expr::Kind::kFilterAtom;
    e->name = n.attr("name");
    for (const auto& c : n.children) e->args.push_back(read_expr(c));
    return e;
  }
  if (n.tag == "struct") {
    e->kind = Expr::Kind::kStructInit;
    e->name = n.attr("name");
    for (const auto& c : n.children) {
      e->field_names.push_back(c.attr("name"));
      e->args.push_back(read_expr(c.children.at(0)));
    }
    return e;
  }
  throw XmlError("unknown expression tag: " + n.tag);
}

ActionPtr read_action(const XmlNode& n) {
  auto a = std::make_unique<Action>();
  if (n.tag == "declare") {
    a->kind = Action::Kind::kDeclare;
    a->target = n.attr("target");
    a->decl_type = type_from_attr(n.attr("type"));
    if (!n.children.empty()) a->expr = read_expr(n.children.at(0));
    return a;
  }
  if (n.tag == "assign") {
    a->kind = Action::Kind::kAssign;
    a->target = n.attr("target");
    a->expr = read_expr(n.children.at(0));
    return a;
  }
  if (n.tag == "if") {
    a->kind = Action::Kind::kIf;
    a->expr = read_expr(n.child("cond")->children.at(0));
    a->body = read_actions(*n.child("then"));
    a->else_body = read_actions(*n.child("else"));
    return a;
  }
  if (n.tag == "while") {
    a->kind = Action::Kind::kWhile;
    a->expr = read_expr(n.child("cond")->children.at(0));
    a->body = read_actions(*n.child("body"));
    return a;
  }
  if (n.tag == "transit") {
    a->kind = Action::Kind::kTransit;
    a->expr = read_expr(n.children.at(0));
    return a;
  }
  if (n.tag == "send") {
    a->kind = Action::Kind::kSend;
    a->to_harvester = n.attr("harvester") == "1";
    a->to_machine = n.attr("machine");
    a->expr = read_expr(n.child("payload")->children.at(0));
    if (const XmlNode* dst = n.child("dst"))
      a->to_dst = read_expr(dst->children.at(0));
    return a;
  }
  if (n.tag == "return") {
    a->kind = Action::Kind::kReturn;
    if (!n.children.empty()) a->expr = read_expr(n.children.at(0));
    return a;
  }
  if (n.tag == "stmt") {
    a->kind = Action::Kind::kExprStmt;
    a->expr = read_expr(n.children.at(0));
    return a;
  }
  throw XmlError("unknown action tag: " + n.tag);
}

std::vector<ActionPtr> read_actions(const XmlNode& n) {
  std::vector<ActionPtr> out;
  for (const auto& c : n.children) out.push_back(read_action(c));
  return out;
}

EventDecl read_event(const XmlNode& n) {
  EventDecl ev;
  std::string kind = n.attr("kind");
  if (kind == "enter") ev.kind = EventDecl::TriggerKind::kEnter;
  else if (kind == "exit") ev.kind = EventDecl::TriggerKind::kExit;
  else if (kind == "realloc") ev.kind = EventDecl::TriggerKind::kRealloc;
  else if (kind == "trigger") ev.kind = EventDecl::TriggerKind::kVarTrigger;
  else if (kind == "recv") ev.kind = EventDecl::TriggerKind::kRecv;
  else throw XmlError("unknown event kind: " + kind);
  ev.var = n.attr("var");
  ev.as_var = n.attr("as");
  ev.recv_type = type_from_attr(n.attr("recvtype", "long"));
  ev.recv_var = n.attr("recvvar");
  ev.from_harvester = n.attr("harvester") == "1";
  ev.from_machine = n.attr("frommachine");
  if (const XmlNode* d = n.child("fromdst"))
    ev.from_dst = read_expr(d->children.at(0));
  ev.actions = read_actions(*n.child("actions"));
  return ev;
}

VarDecl read_var(const XmlNode& n) {
  VarDecl v;
  v.name = n.attr("name");
  v.type = type_from_attr(n.attr("type", "long"));
  v.external = n.attr("external") == "1";
  std::string trig = n.attr("trigger");
  if (trig == "time") v.trigger = TriggerType::kTime;
  else if (trig == "poll") v.trigger = TriggerType::kPoll;
  else if (trig == "probe") v.trigger = TriggerType::kProbe;
  if (const XmlNode* init = n.child("init"))
    v.init = read_expr(init->children.at(0));
  return v;
}

}  // namespace

std::string to_xml(const Program& program) {
  XmlWriter w;
  w.open("program");
  for (const auto& f : program.functions) {
    w.open("func", {{"name", f.name}, {"ret", to_string(f.return_type)}});
    for (const auto& p : f.params)
      w.leaf("param", {{"type", to_string(p.type)}, {"name", p.name}});
    write_actions(w, "body", f.body);
    w.close();
  }
  for (const auto& m : program.machines) {
    w.open("machine", {{"name", m.name}, {"extends", m.extends}});
    for (const auto& pl : m.places) {
      std::string mode = pl.mode == PlaceDirective::Mode::kEverywhere
                             ? "everywhere"
                         : pl.mode == PlaceDirective::Mode::kSwitchList
                             ? "list"
                             : "range";
      std::string anchor = pl.anchor == PlaceDirective::Anchor::kSender
                               ? "sender"
                           : pl.anchor == PlaceDirective::Anchor::kReceiver
                               ? "receiver"
                               : "midpoint";
      w.open("place", {{"all", pl.all ? "1" : "0"},
                       {"mode", mode},
                       {"anchor", anchor},
                       {"op", to_string(pl.range_op)}});
      for (const auto& id : pl.switch_ids) {
        w.open("id");
        write_expr(w, *id);
        w.close();
      }
      if (pl.path_filter) {
        w.open("pathfilter");
        write_expr(w, *pl.path_filter);
        w.close();
      }
      if (pl.range_value) {
        w.open("rangevalue");
        write_expr(w, *pl.range_value);
        w.close();
      }
      w.close();
    }
    for (const auto& v : m.vars) write_var(w, "mvar", v);
    for (const auto& st : m.states) {
      w.open("state", {{"name", st.name}});
      for (const auto& l : st.locals) write_var(w, "local", l);
      if (st.util) {
        w.open("util", {{"param", st.util->param}});
        write_actions(w, "body", st.util->body);
        w.close();
      }
      for (const auto& ev : st.events) write_event(w, "event", ev);
      w.close();
    }
    for (const auto& ev : m.machine_events) write_event(w, "mevent", ev);
    w.close();
  }
  w.close();
  return w.str();
}

Program from_xml(const std::string& xml) {
  XmlNode root = XmlParser(xml).parse();
  if (root.tag != "program") throw XmlError("expected <program> root");
  Program p;
  for (const auto& n : root.children) {
    if (n.tag == "func") {
      FuncDecl f;
      f.name = n.attr("name");
      f.return_type = type_from_attr(n.attr("ret", "void"));
      for (const auto& c : n.children) {
        if (c.tag == "param")
          f.params.push_back(
              {type_from_attr(c.attr("type")), c.attr("name")});
        else if (c.tag == "body")
          f.body = read_actions(c);
      }
      p.functions.push_back(std::move(f));
    } else if (n.tag == "machine") {
      MachineDecl m;
      m.name = n.attr("name");
      m.extends = n.attr("extends");
      for (const auto& c : n.children) {
        if (c.tag == "place") {
          PlaceDirective pl;
          pl.all = c.attr("all") == "1";
          std::string mode = c.attr("mode");
          pl.mode = mode == "everywhere" ? PlaceDirective::Mode::kEverywhere
                    : mode == "list"     ? PlaceDirective::Mode::kSwitchList
                                         : PlaceDirective::Mode::kRange;
          std::string anchor = c.attr("anchor");
          pl.anchor = anchor == "sender"     ? PlaceDirective::Anchor::kSender
                      : anchor == "receiver" ? PlaceDirective::Anchor::kReceiver
                                             : PlaceDirective::Anchor::kMidpoint;
          pl.range_op = op_from_attr(c.attr("op", "=="));
          for (const auto& cc : c.children) {
            if (cc.tag == "id")
              pl.switch_ids.push_back(read_expr(cc.children.at(0)));
            else if (cc.tag == "pathfilter")
              pl.path_filter = read_expr(cc.children.at(0));
            else if (cc.tag == "rangevalue")
              pl.range_value = read_expr(cc.children.at(0));
          }
          m.places.push_back(std::move(pl));
        } else if (c.tag == "mvar") {
          m.vars.push_back(read_var(c));
        } else if (c.tag == "state") {
          StateDecl st;
          st.name = c.attr("name");
          for (const auto& cc : c.children) {
            if (cc.tag == "local") st.locals.push_back(read_var(cc));
            else if (cc.tag == "util") {
              UtilityDecl u;
              u.param = cc.attr("param");
              u.body = read_actions(*cc.child("body"));
              st.util = std::move(u);
            } else if (cc.tag == "event") {
              st.events.push_back(read_event(cc));
            }
          }
          m.states.push_back(std::move(st));
        } else if (c.tag == "mevent") {
          m.machine_events.push_back(read_event(c));
        }
      }
      p.machines.push_back(std::move(m));
    }
  }
  resolve_program(p);
  return p;
}

}  // namespace farm::almanac
