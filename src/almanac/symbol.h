// Interned identifiers for the seed VM (DESIGN.md §17).
//
// Every variable, parameter, function and state name in an AST is interned
// once, when the AST is built, so the interpreter compares 32-bit symbols
// instead of strings. The table is process-wide and append-only: a symbol
// never changes meaning, so ASTs built on different threads agree on it.
// Symbols are identities only; nothing may order output by them (their
// numbering depends on which thread interned a name first).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace farm::almanac {

using Symbol = std::uint32_t;
inline constexpr Symbol kNoSymbol = 0;

// The symbol of `name`, interning it on first use. Thread-safe.
Symbol intern(std::string_view name);
// The symbol of `name` if it was ever interned, else kNoSymbol (a name no
// AST mentions cannot be bound in any environment). Thread-safe.
Symbol find_symbol(std::string_view name);
// The name a symbol was interned from. Thread-safe; the reference stays
// valid for the life of the process.
const std::string& symbol_name(Symbol s);

}  // namespace farm::almanac
