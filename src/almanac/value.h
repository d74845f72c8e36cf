// Runtime values of the Almanac language.
//
// Almanac is dynamically checked at the value level (the type checker
// verifies declarations; expressions are validated structurally), so the
// interpreter manipulates a tagged union covering every `typ` of Fig. 3
// plus the runtime-library structs of List. 1 (Poll/Probe triggers,
// Resources, statistics snapshots, TCAM rules).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "asic/tcam.h"
#include "net/filter.h"
#include "net/packet.h"
#include "net/sketch.h"
#include "util/check.h"

namespace farm::almanac {

class Value;

// `action` values describe a data-plane action a seed may attach to a TCAM
// rule (the HH example's hitterAction).
struct ActionValue {
  asic::RuleAction action = asic::RuleAction::kCount;
  double rate_limit_bps = 0;
  friend bool operator==(const ActionValue&, const ActionValue&) = default;
};

// Poll / Probe trigger payloads (List. 1: struct Poll { int ival; filter
// what; }). `ival` is kept in seconds as a double; the paper's expression
// `10/res().PCIe` evaluates to fractional seconds.
struct TriggerSpec {
  double ival_seconds = 0;
  net::Filter what;
  bool operator==(const TriggerSpec& o) const {
    return ival_seconds == o.ival_seconds && what == o.what;
  }
};

// One polled statistics entry as delivered to a seed. For port subjects
// `iface` is the interface index; for rule subjects `rule` identifies the
// TCAM rule.
struct StatEntry {
  std::string subject;
  int iface = -1;
  asic::RuleId rule = asic::kInvalidRule;
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  friend bool operator==(const StatEntry&, const StatEntry&) = default;
};

struct StatsValue {
  std::shared_ptr<std::vector<StatEntry>> entries =
      std::make_shared<std::vector<StatEntry>>();
  bool operator==(const StatsValue& o) const { return entries == o.entries; }
};

// Resource amounts visible through res() (List. 1). Units: vCPU in cores,
// RAM in MB, TCAM in entries, PCIe in polling-bandwidth share (Mbps).
struct ResourcesValue {
  double vCPU = 0;
  double RAM = 0;
  double TCAM = 0;
  double PCIe = 0;
  friend bool operator==(const ResourcesValue&, const ResourcesValue&) = default;

  static const std::vector<std::string>& field_names();
};

using ListValue = std::shared_ptr<std::vector<Value>>;

// Sketch state (§VIII future-work extension): a count-min sketch, a
// Misra-Gries summary, or a HyperLogLog, held by reference like lists —
// seed-local mutable state.
struct SketchValue {
  std::shared_ptr<net::CountMinSketch> cms;
  std::shared_ptr<net::MisraGries> mg;
  std::shared_ptr<net::HyperLogLog> hll;
  bool operator==(const SketchValue& o) const {
    return cms == o.cms && mg == o.mg && hll == o.hll;
  }
};

// TCAM rules are immutable once they are values, so a rule is held by
// reference: a rule is the largest alternative by far, and every value the
// seed VM copies, every environment binding and every AST literal would
// otherwise be rule-sized.
using RuleValue = std::shared_ptr<const asic::TcamRule>;

class Value {
 public:
  using Storage =
      std::variant<std::monostate, bool, std::int64_t, double, std::string,
                   ListValue, net::Filter, net::PacketHeader, ActionValue,
                   TriggerSpec, StatsValue, ResourcesValue, RuleValue,
                   SketchValue>;

  Value() = default;
  Value(bool v) : v_(v) {}
  Value(std::int64_t v) : v_(v) {}
  Value(int v) : v_(static_cast<std::int64_t>(v)) {}
  Value(double v) : v_(v) {}
  Value(std::string v) : v_(std::move(v)) {}
  Value(const char* v) : v_(std::string(v)) {}
  Value(net::Filter v) : v_(std::move(v)) {}
  Value(net::PacketHeader v) : v_(v) {}
  Value(ActionValue v) : v_(v) {}
  Value(TriggerSpec v) : v_(std::move(v)) {}
  Value(StatsValue v) : v_(std::move(v)) {}
  Value(ResourcesValue v) : v_(v) {}
  Value(asic::TcamRule v)
      : v_(std::make_shared<const asic::TcamRule>(std::move(v))) {}
  Value(ListValue v) : v_(std::move(v)) {}
  Value(SketchValue v) : v_(std::move(v)) {}
  static Value empty_list() {
    return Value(std::make_shared<std::vector<Value>>());
  }

  bool is_nil() const { return std::holds_alternative<std::monostate>(v_); }
  bool is_bool() const { return std::holds_alternative<bool>(v_); }
  bool is_int() const { return std::holds_alternative<std::int64_t>(v_); }
  bool is_float() const { return std::holds_alternative<double>(v_); }
  bool is_numeric() const { return is_int() || is_float(); }
  bool is_string() const { return std::holds_alternative<std::string>(v_); }
  bool is_list() const { return std::holds_alternative<ListValue>(v_); }
  bool is_filter() const { return std::holds_alternative<net::Filter>(v_); }
  bool is_packet() const {
    return std::holds_alternative<net::PacketHeader>(v_);
  }
  bool is_action() const { return std::holds_alternative<ActionValue>(v_); }
  bool is_trigger() const { return std::holds_alternative<TriggerSpec>(v_); }
  bool is_stats() const { return std::holds_alternative<StatsValue>(v_); }
  bool is_resources() const {
    return std::holds_alternative<ResourcesValue>(v_);
  }
  bool is_rule() const { return std::holds_alternative<RuleValue>(v_); }
  bool is_sketch() const { return std::holds_alternative<SketchValue>(v_); }

  bool as_bool() const;
  std::int64_t as_int() const;
  double as_float() const;  // ints promote
  const std::string& as_string() const;
  const ListValue& as_list() const;
  const net::Filter& as_filter() const;
  const net::PacketHeader& as_packet() const;
  const ActionValue& as_action() const;
  const TriggerSpec& as_trigger() const;
  TriggerSpec& as_trigger();
  const StatsValue& as_stats() const;
  const ResourcesValue& as_resources() const;
  const asic::TcamRule& as_rule() const;
  const SketchValue& as_sketch() const;

  // Structural equality for message pattern matching & tests. Lists compare
  // element-wise; stats by pointer.
  bool equals(const Value& o) const;
  // Recursive copy with fresh backing storage for lists/stats. Messages are
  // serialized on the wire, so the receiver must never alias the sender's
  // mutable containers.
  Value deep_copy() const;
  std::string type_name() const;
  std::string to_string() const;

  const Storage& storage() const { return v_; }

 private:
  Storage v_;
};

}  // namespace farm::almanac
