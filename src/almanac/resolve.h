// Name resolution for the seed VM (DESIGN.md §17).
//
// Every AST producer (the parser, the XML front-end and the optimizer's
// cloner) runs these once, when it builds the tree, filling the resolved
// fields of ast.h: builtin ids, interned symbols for variables, functions
// and handler bindings, field / filter-atom / struct enums, and the
// per-assignment trigger flag. Nothing is resolved lazily during
// evaluation: seeds of one shared Program run on several pool threads
// (sim/sweep), so the tree must be read-only once built.
#pragma once

#include "almanac/ast.h"

namespace farm::almanac {

// One node's own names (children untouched). Pure functions of the node's
// strings, so a cloned node resolves exactly like its original.
void resolve_node(Expr& e);
void resolve_node(Action& a);
void resolve_node(VarDecl& v);
void resolve_node(EventDecl& ev);
void resolve_node(FuncDecl& f);

// The field / struct vocabulary, by name (kUnknown when not in it).
Field lookup_field(std::string_view name);
StructKind lookup_struct(std::string_view name);

// The whole program, including each assignment's trigger flag (which
// depends on the trigger variables every machine of the program declares).
void resolve_program(Program& program);

}  // namespace farm::almanac
