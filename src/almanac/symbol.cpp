#include "almanac/symbol.h"

#include <deque>
#include <mutex>
#include <unordered_map>

#include "util/check.h"

namespace farm::almanac {

namespace {

struct SymbolTable {
  std::mutex mu;
  // Names live in a deque so the string_view keys and the references
  // symbol_name hands out stay valid as the table grows.
  std::deque<std::string> names{std::string()};  // index 0 = kNoSymbol
  std::unordered_map<std::string_view, Symbol> ids;
};

SymbolTable& table() {
  // Leaked: symbols are referenced from static ASTs until process exit.
  static SymbolTable* t = new SymbolTable;
  return *t;
}

}  // namespace

Symbol intern(std::string_view name) {
  SymbolTable& t = table();
  std::lock_guard<std::mutex> lock(t.mu);
  auto it = t.ids.find(name);
  if (it != t.ids.end()) return it->second;
  const auto id = static_cast<Symbol>(t.names.size());
  const std::string& stored = t.names.emplace_back(name);
  t.ids.emplace(std::string_view(stored), id);
  return id;
}

Symbol find_symbol(std::string_view name) {
  SymbolTable& t = table();
  std::lock_guard<std::mutex> lock(t.mu);
  auto it = t.ids.find(name);
  return it == t.ids.end() ? kNoSymbol : it->second;
}

const std::string& symbol_name(Symbol s) {
  SymbolTable& t = table();
  std::lock_guard<std::mutex> lock(t.mu);
  FARM_CHECK_MSG(s < t.names.size(), "symbol out of range");
  return t.names[s];
}

}  // namespace farm::almanac
