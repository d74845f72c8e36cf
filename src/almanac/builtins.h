// The Almanac builtin table (List. 1's runtime library plus the list,
// statistics, sketch and conversion helpers).
//
// One table, keyed by Builtin id, is the single source of truth for which
// callee names are builtins: resolve() maps a call's name to its id when
// the AST is built, the interpreter dispatches on the id with one switch,
// and the static analyses (Winnow, the TCAM estimator, function
// reachability) classify calls by the same id. A builtin shadows a user
// function of the same name everywhere.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

namespace farm::almanac {

enum class Builtin : std::uint8_t {
  kNone,  // not a builtin: a user function (or an unknown name)
  // host & arithmetic
  kRes,
  kMin,
  kMax,
  kAbs,
  kAddTCAMRule,
  kRemoveTCAMRule,
  kGetTCAMRule,
  kExec,
  // actions
  kActionDrop,
  kActionRateLimit,
  kActionCount,
  kActionMirror,
  // lists
  kListNew,
  kListSize,
  kIsListEmpty,
  kListGet,
  kListAppend,
  kListClear,
  kListContains,
  kListIndexOf,
  kListSet,
  // statistics snapshots
  kStatsSize,
  kStatsIface,
  kStatsBytes,
  kStatsPackets,
  kStatsSubject,
  // sketches (§VIII extension)
  kCmsNew,
  kCmsAdd,
  kCmsEstimate,
  kCmsClear,
  kMgNew,
  kMgAdd,
  kMgEstimate,
  kMgHitters,
  kMgClear,
  kHllNew,
  kHllAdd,
  kHllEstimate,
  kHllClear,
  // conversions & misc
  kIsNil,
  kToLong,
  kToFloat,
  kToStr,
  kIfaceFilter,
  kNowMs,
  kSwitchId,
  kLog,
};

struct BuiltinInfo {
  Builtin id;
  std::string_view name;
  int min_args;
  int max_args;  // -1: variadic
};

// Every builtin, in enum order (kNone excluded).
std::span<const BuiltinInfo> builtin_table();
// The builtin a callee name denotes, or kNone.
Builtin lookup_builtin(std::string_view name);
// Table entry of a builtin other than kNone.
const BuiltinInfo& builtin_info(Builtin b);

}  // namespace farm::almanac
