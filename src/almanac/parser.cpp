#include "almanac/parser.h"

#include <optional>
#include <unordered_set>

#include "almanac/lexer.h"
#include "almanac/resolve.h"

namespace farm::almanac {

namespace {

const std::unordered_set<std::string> kTypeNames = {
    "bool", "int",    "long",  "float", "string",
    "list", "packet", "action", "filter", "stats", "rule", "sketch", "void"};

const std::unordered_set<std::string> kTriggerTypes = {"time", "poll",
                                                       "probe"};

const std::unordered_set<std::string> kFilterAtoms = {
    "srcIP", "dstIP", "port", "srcPort", "dstPort", "proto", "iface"};

TypeName type_from_name(const std::string& s, SourceLoc loc) {
  if (s == "bool") return TypeName::kBool;
  if (s == "int") return TypeName::kInt;
  if (s == "long") return TypeName::kLong;
  if (s == "float") return TypeName::kFloat;
  if (s == "string") return TypeName::kString;
  if (s == "list") return TypeName::kList;
  if (s == "packet") return TypeName::kPacket;
  if (s == "action") return TypeName::kAction;
  if (s == "filter") return TypeName::kFilter;
  if (s == "stats") return TypeName::kStats;
  if (s == "rule") return TypeName::kRule;
  if (s == "sketch") return TypeName::kSketch;
  if (s == "void") return TypeName::kVoid;
  throw ParseError("unknown type: " + s, loc);
}

class Parser {
 public:
  explicit Parser(std::string_view src) : toks_(lex(src)) {}

  Program run() {
    Program p;
    while (!at_eof()) {
      if (peek().is_ident("machine")) {
        p.machines.push_back(parse_machine());
      } else if (peek().is_ident("func")) {
        p.functions.push_back(parse_func());
      } else {
        throw ParseError("expected 'machine' or 'func' at top level, got '" +
                             peek().text + "'",
                         peek().loc);
      }
    }
    return p;
  }

 private:
  // --- token helpers -------------------------------------------------------
  const Token& peek(std::size_t off = 0) const {
    std::size_t i = pos_ + off;
    return i < toks_.size() ? toks_[i] : toks_.back();
  }
  const Token& advance() { return toks_[pos_++]; }
  bool at_eof() const { return peek().kind == TokKind::kEof; }

  bool accept_punct(std::string_view p) {
    if (peek().is_punct(p)) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool accept_ident(std::string_view s) {
    if (peek().is_ident(s)) {
      ++pos_;
      return true;
    }
    return false;
  }
  void expect_punct(std::string_view p) {
    if (!accept_punct(p))
      throw ParseError("expected '" + std::string(p) + "', got '" +
                           peek().text + "'",
                       peek().loc);
  }
  void expect_ident(std::string_view s) {
    if (!accept_ident(s))
      throw ParseError("expected '" + std::string(s) + "', got '" +
                           peek().text + "'",
                       peek().loc);
  }
  std::string expect_name() {
    if (peek().kind != TokKind::kIdent)
      throw ParseError("expected identifier, got '" + peek().text + "'",
                       peek().loc);
    return advance().text;
  }

  // --- declarations --------------------------------------------------------
  FuncDecl parse_func() {
    FuncDecl f;
    f.loc = peek().loc;
    expect_ident("func");
    f.return_type = type_from_name(expect_name(), peek().loc);
    f.name = expect_name();
    expect_punct("(");
    if (!peek().is_punct(")")) {
      do {
        Param prm;
        prm.type = type_from_name(expect_name(), peek().loc);
        prm.name = expect_name();
        f.params.push_back(std::move(prm));
      } while (accept_punct(","));
    }
    expect_punct(")");
    f.body = parse_block();
    return f;
  }

  MachineDecl parse_machine() {
    MachineDecl m;
    m.loc = peek().loc;
    expect_ident("machine");
    m.name = expect_name();
    if (accept_ident("extends")) m.extends = expect_name();
    expect_punct("{");
    while (!accept_punct("}")) {
      if (peek().is_ident("place")) {
        m.places.push_back(parse_place());
      } else if (peek().is_ident("state")) {
        m.states.push_back(parse_state());
      } else if (peek().is_ident("when")) {
        m.machine_events.push_back(parse_event());
      } else {
        m.vars.push_back(parse_vardecl());
      }
    }
    return m;
  }

  PlaceDirective parse_place() {
    PlaceDirective pl;
    pl.loc = peek().loc;
    expect_ident("place");
    if (accept_ident("all")) {
      pl.all = true;
    } else if (accept_ident("any")) {
      pl.all = false;
    } else {
      throw ParseError("expected 'all' or 'any' after place", peek().loc);
    }
    if (accept_punct(";")) {
      pl.mode = PlaceDirective::Mode::kEverywhere;
      return pl;
    }
    // Optional anchor keyword starts range form.
    bool has_anchor = true;
    if (accept_ident("sender")) {
      pl.anchor = PlaceDirective::Anchor::kSender;
    } else if (accept_ident("receiver")) {
      pl.anchor = PlaceDirective::Anchor::kReceiver;
    } else if (accept_ident("midpoint")) {
      pl.anchor = PlaceDirective::Anchor::kMidpoint;
    } else {
      has_anchor = false;
    }
    if (has_anchor || peek().is_ident("range")) {
      pl.mode = PlaceDirective::Mode::kRange;
      if (!peek().is_ident("range")) pl.path_filter = parse_expr();
      expect_ident("range");
      pl.range_op = parse_relop();
      pl.range_value = parse_expr();
      expect_punct(";");
      return pl;
    }
    // Otherwise: expression — either a switch-id list, or a path filter
    // followed by `range`.
    ExprPtr first = parse_expr();
    if (peek().is_ident("range")) {
      pl.mode = PlaceDirective::Mode::kRange;
      pl.path_filter = std::move(first);
      expect_ident("range");
      pl.range_op = parse_relop();
      pl.range_value = parse_expr();
      expect_punct(";");
      return pl;
    }
    pl.mode = PlaceDirective::Mode::kSwitchList;
    pl.switch_ids.push_back(std::move(first));
    while (accept_punct(",")) pl.switch_ids.push_back(parse_expr());
    expect_punct(";");
    return pl;
  }

  BinOp parse_relop() {
    const Token& t = advance();
    if (t.is_punct("==")) return BinOp::kEq;
    if (t.is_punct("<=")) return BinOp::kLe;
    if (t.is_punct(">=")) return BinOp::kGe;
    if (t.is_punct("<")) return BinOp::kLt;
    if (t.is_punct(">")) return BinOp::kGt;
    if (t.is_punct("<>")) return BinOp::kNe;
    throw ParseError("expected comparison operator, got '" + t.text + "'",
                     t.loc);
  }

  VarDecl parse_vardecl() {
    VarDecl v;
    v.loc = peek().loc;
    v.external = accept_ident("external");
    const std::string tname = expect_name();
    if (kTriggerTypes.count(tname)) {
      if (v.external)
        throw ParseError("trigger variables cannot be external", v.loc);
      v.trigger = tname == "time"   ? TriggerType::kTime
                  : tname == "poll" ? TriggerType::kPoll
                                    : TriggerType::kProbe;
    } else {
      v.type = type_from_name(tname, v.loc);
    }
    v.name = expect_name();
    if (accept_punct("=")) v.init = parse_expr();
    expect_punct(";");
    return v;
  }

  StateDecl parse_state() {
    StateDecl s;
    s.loc = peek().loc;
    expect_ident("state");
    s.name = expect_name();
    expect_punct("{");
    while (!accept_punct("}")) {
      if (peek().is_ident("when")) {
        s.events.push_back(parse_event());
      } else if (peek().is_ident("util")) {
        if (s.util)
          throw ParseError("state already has a util callback", peek().loc);
        s.util = parse_util();
      } else {
        VarDecl v = parse_vardecl();
        if (v.external)
          throw ParseError("state locals cannot be external", v.loc);
        s.locals.push_back(std::move(v));
      }
    }
    return s;
  }

  UtilityDecl parse_util() {
    UtilityDecl u;
    u.loc = peek().loc;
    expect_ident("util");
    expect_punct("(");
    u.param = expect_name();
    expect_punct(")");
    u.body = parse_block();
    return u;
  }

  EventDecl parse_event() {
    EventDecl ev;
    ev.loc = peek().loc;
    expect_ident("when");
    expect_punct("(");
    if (accept_ident("enter")) {
      ev.kind = EventDecl::TriggerKind::kEnter;
    } else if (accept_ident("exit")) {
      ev.kind = EventDecl::TriggerKind::kExit;
    } else if (accept_ident("realloc")) {
      ev.kind = EventDecl::TriggerKind::kRealloc;
    } else if (accept_ident("recv")) {
      ev.kind = EventDecl::TriggerKind::kRecv;
      ev.recv_type = type_from_name(expect_name(), peek().loc);
      ev.recv_var = expect_name();
      expect_ident("from");
      if (accept_ident("harvester")) {
        ev.from_harvester = true;
      } else {
        ev.from_machine = expect_name();
        if (accept_punct("@")) ev.from_dst = parse_expr();
      }
    } else {
      ev.kind = EventDecl::TriggerKind::kVarTrigger;
      ev.var = expect_name();
      if (accept_ident("as")) ev.as_var = expect_name();
    }
    expect_punct(")");
    expect_ident("do");
    ev.actions = parse_block();
    return ev;
  }

  // --- statements ----------------------------------------------------------
  std::vector<ActionPtr> parse_block() {
    expect_punct("{");
    std::vector<ActionPtr> out;
    while (!accept_punct("}")) out.push_back(parse_action());
    return out;
  }

  ActionPtr parse_action() {
    auto a = std::make_unique<Action>();
    a->loc = peek().loc;
    if (accept_ident("if")) {
      a->kind = Action::Kind::kIf;
      expect_punct("(");
      a->expr = parse_expr();
      expect_punct(")");
      expect_ident("then");
      a->body = parse_block();
      if (accept_ident("else")) a->else_body = parse_block();
      return a;
    }
    if (accept_ident("while")) {
      a->kind = Action::Kind::kWhile;
      expect_punct("(");
      a->expr = parse_expr();
      expect_punct(")");
      a->body = parse_block();
      return a;
    }
    if (accept_ident("transit")) {
      a->kind = Action::Kind::kTransit;
      a->expr = parse_expr();
      expect_punct(";");
      return a;
    }
    if (accept_ident("send")) {
      a->kind = Action::Kind::kSend;
      a->expr = parse_expr();
      expect_ident("to");
      if (accept_ident("harvester")) {
        a->to_harvester = true;
      } else {
        a->to_machine = expect_name();
        if (accept_punct("@")) a->to_dst = parse_expr();
      }
      expect_punct(";");
      return a;
    }
    if (accept_ident("return")) {
      a->kind = Action::Kind::kReturn;
      if (!peek().is_punct(";")) a->expr = parse_expr();
      expect_punct(";");
      return a;
    }
    // Block-local declaration: `<type> name [= expr];`.
    if (peek().kind == TokKind::kIdent && kTypeNames.count(peek().text) &&
        peek(1).kind == TokKind::kIdent) {
      a->kind = Action::Kind::kDeclare;
      a->decl_type = type_from_name(advance().text, a->loc);
      a->target = expect_name();
      if (accept_punct("=")) a->expr = parse_expr();
      expect_punct(";");
      return a;
    }
    // Assignment (`name = expr;`) or expression statement.
    if (peek().kind == TokKind::kIdent && peek(1).is_punct("=") &&
        !peek(1).is_punct("==")) {
      a->kind = Action::Kind::kAssign;
      a->target = advance().text;
      expect_punct("=");
      a->expr = parse_expr();
      expect_punct(";");
      return a;
    }
    a->kind = Action::Kind::kExprStmt;
    a->expr = parse_expr();
    expect_punct(";");
    return a;
  }

  // --- expressions -----------------------------------------------------------
  ExprPtr parse_expr() { return parse_or(); }

  ExprPtr make_binary(BinOp op, ExprPtr lhs, ExprPtr rhs, SourceLoc loc) {
    auto e = std::make_unique<Expr>();
    e->kind = Expr::Kind::kBinary;
    e->op = op;
    e->loc = loc;
    e->args.push_back(std::move(lhs));
    e->args.push_back(std::move(rhs));
    return e;
  }

  ExprPtr parse_or() {
    auto lhs = parse_and();
    while (peek().is_ident("or")) {
      SourceLoc loc = advance().loc;
      lhs = make_binary(BinOp::kOr, std::move(lhs), parse_and(), loc);
    }
    return lhs;
  }

  ExprPtr parse_and() {
    auto lhs = parse_cmp();
    while (peek().is_ident("and")) {
      SourceLoc loc = advance().loc;
      lhs = make_binary(BinOp::kAnd, std::move(lhs), parse_cmp(), loc);
    }
    return lhs;
  }

  ExprPtr parse_cmp() {
    auto lhs = parse_add();
    std::optional<BinOp> op;
    if (peek().is_punct("==")) op = BinOp::kEq;
    else if (peek().is_punct("<=")) op = BinOp::kLe;
    else if (peek().is_punct(">=")) op = BinOp::kGe;
    else if (peek().is_punct("<")) op = BinOp::kLt;
    else if (peek().is_punct(">")) op = BinOp::kGt;
    else if (peek().is_punct("<>")) op = BinOp::kNe;
    if (!op) return lhs;
    SourceLoc loc = advance().loc;
    return make_binary(*op, std::move(lhs), parse_add(), loc);
  }

  ExprPtr parse_add() {
    auto lhs = parse_mul();
    for (;;) {
      if (peek().is_punct("+")) {
        SourceLoc loc = advance().loc;
        lhs = make_binary(BinOp::kAdd, std::move(lhs), parse_mul(), loc);
      } else if (peek().is_punct("-")) {
        SourceLoc loc = advance().loc;
        lhs = make_binary(BinOp::kSub, std::move(lhs), parse_mul(), loc);
      } else {
        return lhs;
      }
    }
  }

  ExprPtr parse_mul() {
    auto lhs = parse_unary();
    for (;;) {
      if (peek().is_punct("*")) {
        SourceLoc loc = advance().loc;
        lhs = make_binary(BinOp::kMul, std::move(lhs), parse_unary(), loc);
      } else if (peek().is_punct("/")) {
        SourceLoc loc = advance().loc;
        lhs = make_binary(BinOp::kDiv, std::move(lhs), parse_unary(), loc);
      } else {
        return lhs;
      }
    }
  }

  ExprPtr parse_unary() {
    if (peek().is_ident("not")) {
      auto e = std::make_unique<Expr>();
      e->kind = Expr::Kind::kNot;
      e->loc = advance().loc;
      e->args.push_back(parse_unary());
      return e;
    }
    if (peek().is_punct("-")) {
      // Unary minus desugars to 0 - x.
      SourceLoc loc = advance().loc;
      auto zero = std::make_unique<Expr>();
      zero->kind = Expr::Kind::kLiteral;
      zero->literal = Value(std::int64_t{0});
      zero->loc = loc;
      return make_binary(BinOp::kSub, std::move(zero), parse_unary(), loc);
    }
    return parse_postfix();
  }

  ExprPtr parse_postfix() {
    auto e = parse_primary();
    for (;;) {
      if (peek().is_punct(".") && peek(1).kind == TokKind::kIdent) {
        SourceLoc loc = advance().loc;  // consume '.'
        auto f = std::make_unique<Expr>();
        f->kind = Expr::Kind::kFieldAccess;
        f->loc = loc;
        f->name = advance().text;
        f->args.push_back(std::move(e));
        e = std::move(f);
      } else {
        return e;
      }
    }
  }

  ExprPtr parse_primary() {
    const Token& t = peek();
    auto e = std::make_unique<Expr>();
    e->loc = t.loc;
    switch (t.kind) {
      case TokKind::kInt:
        e->kind = Expr::Kind::kLiteral;
        e->literal = Value(advance().int_value);
        return e;
      case TokKind::kFloat:
        e->kind = Expr::Kind::kLiteral;
        e->literal = Value(advance().float_value);
        return e;
      case TokKind::kString:
        e->kind = Expr::Kind::kLiteral;
        e->literal = Value(advance().text);
        return e;
      case TokKind::kPunct:
        if (accept_punct("(")) {
          auto inner = parse_expr();
          expect_punct(")");
          return inner;
        }
        throw ParseError("unexpected token '" + t.text + "' in expression",
                         t.loc);
      case TokKind::kIdent:
        break;
      case TokKind::kEof:
        throw ParseError("unexpected end of input in expression", t.loc);
    }
    // Identifier-led forms.
    if (accept_ident("true")) {
      e->kind = Expr::Kind::kLiteral;
      e->literal = Value(true);
      return e;
    }
    if (accept_ident("false")) {
      e->kind = Expr::Kind::kLiteral;
      e->literal = Value(false);
      return e;
    }
    if (kFilterAtoms.count(t.text)) return parse_filter_atom();

    std::string name = advance().text;
    if (peek().is_punct("(")) {
      advance();
      e->kind = Expr::Kind::kCall;
      e->name = std::move(name);
      if (!peek().is_punct(")")) {
        do {
          e->args.push_back(parse_expr());
        } while (accept_punct(","));
      }
      expect_punct(")");
      return e;
    }
    if (peek().is_punct("{") && peek(1).is_punct(".")) {
      // Struct initializer: Name { .field = expr, ... }
      advance();  // '{'
      e->kind = Expr::Kind::kStructInit;
      e->name = std::move(name);
      do {
        expect_punct(".");
        e->field_names.push_back(expect_name());
        expect_punct("=");
        e->args.push_back(parse_expr());
      } while (accept_punct(","));
      expect_punct("}");
      return e;
    }
    e->kind = Expr::Kind::kVarRef;
    e->name = std::move(name);
    return e;
  }

  ExprPtr parse_filter_atom() {
    auto e = std::make_unique<Expr>();
    e->loc = peek().loc;
    e->kind = Expr::Kind::kFilterAtom;
    e->name = advance().text;  // atom kind
    if (e->name == "proto") {
      // proto takes a bare protocol identifier (tcp/udp/icmp).
      std::string proto = expect_name();
      auto lit = std::make_unique<Expr>();
      lit->kind = Expr::Kind::kLiteral;
      lit->literal = Value(proto);
      lit->loc = e->loc;
      e->args.push_back(std::move(lit));
      return e;
    }
    if (accept_ident("ANY")) {
      // `port ANY` / `iface ANY`: no argument ⇒ wildcard interface atom.
      return e;
    }
    e->args.push_back(parse_unary());
    return e;
  }

  std::vector<Token> toks_;
  std::size_t pos_ = 0;
};

}  // namespace

Program parse_program(std::string_view source) {
  Program program;
  try {
    program = Parser(source).run();
  } catch (const LexError& le) {
    throw ParseError(le.message, le.loc);
  }
  resolve_program(program);
  return program;
}

}  // namespace farm::almanac
