#include "almanac/builtins.h"

#include "util/check.h"

namespace farm::almanac {

namespace {

constexpr BuiltinInfo kTable[] = {
    {Builtin::kRes, "res", 0, 0},
    {Builtin::kMin, "min", 2, -1},
    {Builtin::kMax, "max", 2, -1},
    {Builtin::kAbs, "abs", 1, 1},
    {Builtin::kAddTCAMRule, "addTCAMRule", 1, 2},
    {Builtin::kRemoveTCAMRule, "removeTCAMRule", 1, 1},
    {Builtin::kGetTCAMRule, "getTCAMRule", 1, 1},
    {Builtin::kExec, "exec", 1, 1},
    {Builtin::kActionDrop, "action_drop", 0, 0},
    {Builtin::kActionRateLimit, "action_rate_limit", 1, 1},
    {Builtin::kActionCount, "action_count", 0, 0},
    {Builtin::kActionMirror, "action_mirror", 0, 0},
    {Builtin::kListNew, "list_new", 0, 0},
    {Builtin::kListSize, "list_size", 1, 1},
    {Builtin::kIsListEmpty, "is_list_empty", 1, 1},
    {Builtin::kListGet, "list_get", 2, 2},
    {Builtin::kListAppend, "list_append", 2, 2},
    {Builtin::kListClear, "list_clear", 1, 1},
    {Builtin::kListContains, "list_contains", 2, 2},
    {Builtin::kListIndexOf, "list_index_of", 2, 2},
    {Builtin::kListSet, "list_set", 3, 3},
    {Builtin::kStatsSize, "stats_size", 1, 1},
    {Builtin::kStatsIface, "stats_iface", 2, 2},
    {Builtin::kStatsBytes, "stats_bytes", 2, 2},
    {Builtin::kStatsPackets, "stats_packets", 2, 2},
    {Builtin::kStatsSubject, "stats_subject", 2, 2},
    {Builtin::kCmsNew, "cms_new", 2, 2},
    {Builtin::kCmsAdd, "cms_add", 3, 3},
    {Builtin::kCmsEstimate, "cms_estimate", 2, 2},
    {Builtin::kCmsClear, "cms_clear", 1, 1},
    {Builtin::kMgNew, "mg_new", 1, 1},
    {Builtin::kMgAdd, "mg_add", 3, 3},
    {Builtin::kMgEstimate, "mg_estimate", 2, 2},
    {Builtin::kMgHitters, "mg_hitters", 2, 2},
    {Builtin::kMgClear, "mg_clear", 1, 1},
    {Builtin::kHllNew, "hll_new", 1, 1},
    {Builtin::kHllAdd, "hll_add", 2, 2},
    {Builtin::kHllEstimate, "hll_estimate", 1, 1},
    {Builtin::kHllClear, "hll_clear", 1, 1},
    {Builtin::kIsNil, "is_nil", 1, 1},
    {Builtin::kToLong, "to_long", 1, 1},
    {Builtin::kToFloat, "to_float", 1, 1},
    {Builtin::kToStr, "to_str", 1, 1},
    {Builtin::kIfaceFilter, "iface_filter", 1, 1},
    {Builtin::kNowMs, "now_ms", 0, 0},
    {Builtin::kSwitchId, "switch_id", 0, 0},
    {Builtin::kLog, "log", 1, 1},
};

// The table is indexed by id - 1; keep it in enum order.
constexpr bool table_in_enum_order() {
  for (std::size_t i = 0; i < std::size(kTable); ++i)
    if (static_cast<std::size_t>(kTable[i].id) != i + 1) return false;
  return static_cast<std::size_t>(Builtin::kLog) == std::size(kTable);
}
static_assert(table_in_enum_order());

}  // namespace

std::span<const BuiltinInfo> builtin_table() { return kTable; }

Builtin lookup_builtin(std::string_view name) {
  // Called once per call site when an AST is built, never per evaluation.
  for (const auto& b : kTable)
    if (b.name == name) return b.id;
  return Builtin::kNone;
}

const BuiltinInfo& builtin_info(Builtin b) {
  FARM_CHECK_MSG(b != Builtin::kNone, "builtin_info(kNone)");
  return kTable[static_cast<std::size_t>(b) - 1];
}

}  // namespace farm::almanac
