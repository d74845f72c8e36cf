// Abstract syntax of Almanac (Fig. 3 of the paper).
//
// The AST keeps the grammar's structure faithfully: programs hold function
// and machine declarations; machines hold placement directives, variable
// declarations (incl. external and trigger variables) and states; states
// hold local variables, an optional utility callback, and event handlers.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "almanac/builtins.h"
#include "almanac/symbol.h"
#include "almanac/value.h"

namespace farm::almanac {

struct SourceLoc {
  int line = 0;
  int column = 0;
  std::string to_string() const {
    return std::to_string(line) + ":" + std::to_string(column);
  }
};

// --- Types ------------------------------------------------------------------

enum class TypeName {
  kBool,
  kInt,
  kLong,
  kFloat,
  kString,
  kList,
  kPacket,
  kAction,
  kFilter,
  kStats,   // polled statistics snapshots (bound via `poll x as stats`)
  kRule,    // TCAM rule (runtime library)
  kSketch,  // probabilistic sketch (count-min / HyperLogLog extension)
  kVoid,
};

enum class TriggerType { kTime, kPoll, kProbe };

std::string to_string(TypeName t);
std::string to_string(TriggerType t);

// --- Expressions --------------------------------------------------------------

enum class BinOp {
  kAnd,
  kOr,
  kAdd,
  kSub,
  kMul,
  kDiv,
  kLe,
  kGe,
  kLt,
  kGt,
  kEq,
  kNe,
};

std::string to_string(BinOp op);

// Names the interpreter dispatches on besides builtins and variables:
// packet/trigger/rule/resource field names, struct-initializer labels and
// filter-atom kinds share one vocabulary.
enum class Field : std::uint8_t {
  kUnknown,
  kVCPU,
  kRAM,
  kTCAM,
  kPCIe,
  kSrcIP,
  kDstIP,
  kPort,
  kSrcPort,
  kDstPort,
  kIface,
  kSize,
  kProto,
  kSyn,
  kAck,
  kFin,
  kRst,
  kIval,
  kWhat,
  kPattern,
  kAct,
  kId,
  kPriority,
};

enum class StructKind : std::uint8_t { kUnknown, kPoll, kProbe, kRule };

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

struct Expr {
  enum class Kind {
    kLiteral,     // literal (int/float/string/bool)
    kVarRef,      // name
    kFieldAccess, // args[0].name   (e.g. res.vCPU, pkt.srcPort)
    kBinary,      // args[0] op args[1]
    kNot,         // not args[0]
    kCall,        // name(args...)  — builtin or user function
    kFilterAtom,  // srcIP ex | dstIP ex | port ex | proto ex | iface ex
    kStructInit,  // Poll { .ival = args[0], .what = args[1] } etc.
  };

  Kind kind = Kind::kLiteral;
  SourceLoc loc;
  Value literal;           // kLiteral
  std::string name;        // kVarRef / kFieldAccess field / kCall callee /
                           // kFilterAtom atom kind / kStructInit struct name
  BinOp op = BinOp::kAnd;  // kBinary
  std::vector<ExprPtr> args;
  std::vector<std::string> field_names;  // kStructInit: .field labels

  // Resolved from the names above when the AST is built (resolve.h) and
  // never written afterwards, so threads may share the tree.
  Symbol sym = kNoSymbol;             // kVarRef name / kCall callee
  Builtin builtin = Builtin::kNone;   // kCall
  Field field = Field::kUnknown;      // kFieldAccess field / kFilterAtom kind
  StructKind struct_kind = StructKind::kUnknown;  // kStructInit
  std::vector<Field> field_ids;       // kStructInit: resolved labels
};

// --- Actions (statements) ----------------------------------------------------

struct Action;
using ActionPtr = std::unique_ptr<Action>;

struct Action {
  enum class Kind {
    kDeclare,   // type name [= expr];   (block-local variable)
    kAssign,    // name = expr;
    kIf,        // if (cond) then {A} [else {B}]
    kWhile,     // while (cond) {A}
    kTransit,   // transit expr;   (expr evaluates to a state name string or
                //                  a bare state identifier)
    kSend,      // send expr to (machine [@dst] | harvester);
    kReturn,    // return expr;
    kExprStmt,  // bare call, e.g. addTCAMRule(...);
  };

  Kind kind = Kind::kAssign;
  SourceLoc loc;
  std::string target;          // kAssign / kDeclare variable
  TypeName decl_type = TypeName::kLong;  // kDeclare
  ExprPtr expr;                // kAssign rhs / kTransit / kSend payload /
                               // kReturn / kExprStmt / kIf & kWhile condition
  std::vector<ActionPtr> body;      // kIf then / kWhile body
  std::vector<ActionPtr> else_body; // kIf else
  // kSend routing:
  bool to_harvester = false;
  std::string to_machine;  // machine name when !to_harvester
  ExprPtr to_dst;          // optional @dst expression (switch id); null = broadcast

  // Resolved when the AST is built (resolve.h):
  Symbol sym = kNoSymbol;  // kAssign / kDeclare target
  // kAssign: some machine of the program declares `target` as a trigger
  // variable, so the interpreter must check whether its machine re-arms.
  bool may_assign_trigger = false;
};

// --- Declarations -------------------------------------------------------------

struct VarDecl {
  SourceLoc loc;
  bool external = false;
  // Exactly one of type/trigger is meaningful: trigger variables use
  // `trigger`, plain variables use `type`.
  TypeName type = TypeName::kLong;
  std::optional<TriggerType> trigger;
  std::string name;
  ExprPtr init;  // may be null
  Symbol sym = kNoSymbol;  // resolved `name`
};

struct UtilityDecl {
  SourceLoc loc;
  std::string param;  // `util (res) { ... }` binds the allocation to param
  std::vector<ActionPtr> body;
};

struct EventDecl {
  enum class TriggerKind { kEnter, kExit, kRealloc, kVarTrigger, kRecv };
  SourceLoc loc;
  TriggerKind kind = TriggerKind::kEnter;
  // kVarTrigger: `when (pollStats as stats) do {...}`
  std::string var;
  std::string as_var;  // optional binding; empty = none
  // kRecv: `when (recv long newTh from harvester) do {...}`
  TypeName recv_type = TypeName::kLong;
  std::string recv_var;
  bool from_harvester = false;
  std::string from_machine;  // when !from_harvester
  ExprPtr from_dst;          // optional @dst filter on the sender's switch
  std::vector<ActionPtr> actions;
  // Resolved `var`, `as_var` and `recv_var` (kNoSymbol when empty).
  Symbol var_sym = kNoSymbol;
  Symbol as_sym = kNoSymbol;
  Symbol recv_sym = kNoSymbol;
};

struct PlaceDirective {
  enum class Mode {
    kEverywhere,  // place all | place any        (no constraint)
    kSwitchList,  // place q ex1 ex2 ...          (explicit switch ids)
    kRange,       // place q [sender|receiver|midpoint] [ex] range op ex
  };
  SourceLoc loc;
  bool all = true;  // all vs any quantifier
  Mode mode = Mode::kEverywhere;
  std::vector<ExprPtr> switch_ids;  // kSwitchList
  // kRange:
  enum class Anchor { kSender, kReceiver, kMidpoint };
  Anchor anchor = Anchor::kMidpoint;
  ExprPtr path_filter;  // boolean filter expr over fil atoms; null = all paths
  BinOp range_op = BinOp::kEq;
  ExprPtr range_value;
};

struct StateDecl {
  SourceLoc loc;
  std::string name;
  std::vector<VarDecl> locals;
  std::optional<UtilityDecl> util;
  std::vector<EventDecl> events;
};

struct MachineDecl {
  SourceLoc loc;
  std::string name;
  std::string extends;  // empty = no parent
  std::vector<PlaceDirective> places;
  std::vector<VarDecl> vars;
  std::vector<StateDecl> states;
  // Machine-level events apply to every state unless overridden (§III-A b).
  std::vector<EventDecl> machine_events;
};

struct Param {
  TypeName type;
  std::string name;
  Symbol sym = kNoSymbol;  // resolved `name`
};

struct FuncDecl {
  SourceLoc loc;
  TypeName return_type = TypeName::kVoid;
  std::string name;
  std::vector<Param> params;
  std::vector<ActionPtr> body;
  Symbol sym = kNoSymbol;  // resolved `name`
};

struct Program {
  std::vector<FuncDecl> functions;
  std::vector<MachineDecl> machines;

  const MachineDecl* machine(const std::string& name) const {
    for (const auto& m : machines)
      if (m.name == name) return &m;
    return nullptr;
  }
  const FuncDecl* function(const std::string& name) const {
    for (const auto& f : functions)
      if (f.name == name) return &f;
    return nullptr;
  }
  const FuncDecl* function(Symbol sym) const {
    for (const auto& f : functions)
      if (f.sym == sym) return &f;
    return nullptr;
  }
};

}  // namespace farm::almanac
