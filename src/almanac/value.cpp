#include "almanac/value.h"

#include <cmath>

namespace farm::almanac {

double ResourcesValue::field(const std::string& name) const {
  if (name == "vCPU") return vCPU;
  if (name == "RAM") return RAM;
  if (name == "TCAM") return TCAM;
  if (name == "PCIe") return PCIe;
  FARM_CHECK_MSG(false, ("unknown resource field: " + name).c_str());
}

const std::vector<std::string>& ResourcesValue::field_names() {
  static const std::vector<std::string> names{"vCPU", "RAM", "TCAM", "PCIe"};
  return names;
}

bool Value::as_bool() const {
  FARM_CHECK_MSG(is_bool(), "expected bool value");
  return std::get<bool>(v_);
}

std::int64_t Value::as_int() const {
  FARM_CHECK_MSG(is_int(), "expected int value");
  return std::get<std::int64_t>(v_);
}

double Value::as_float() const {
  if (is_int()) return static_cast<double>(std::get<std::int64_t>(v_));
  FARM_CHECK_MSG(is_float(), "expected numeric value");
  return std::get<double>(v_);
}

const std::string& Value::as_string() const {
  FARM_CHECK_MSG(is_string(), "expected string value");
  return std::get<std::string>(v_);
}

const ListValue& Value::as_list() const {
  FARM_CHECK_MSG(is_list(), "expected list value");
  return std::get<ListValue>(v_);
}

const net::Filter& Value::as_filter() const {
  FARM_CHECK_MSG(is_filter(), "expected filter value");
  return std::get<net::Filter>(v_);
}

const net::PacketHeader& Value::as_packet() const {
  FARM_CHECK_MSG(is_packet(), "expected packet value");
  return std::get<net::PacketHeader>(v_);
}

const ActionValue& Value::as_action() const {
  FARM_CHECK_MSG(is_action(), "expected action value");
  return std::get<ActionValue>(v_);
}

const TriggerSpec& Value::as_trigger() const {
  FARM_CHECK_MSG(is_trigger(), "expected trigger value");
  return std::get<TriggerSpec>(v_);
}

TriggerSpec& Value::as_trigger() {
  FARM_CHECK_MSG(is_trigger(), "expected trigger value");
  return std::get<TriggerSpec>(v_);
}

const StatsValue& Value::as_stats() const {
  FARM_CHECK_MSG(is_stats(), "expected stats value");
  return std::get<StatsValue>(v_);
}

const ResourcesValue& Value::as_resources() const {
  FARM_CHECK_MSG(is_resources(), "expected resources value");
  return std::get<ResourcesValue>(v_);
}

const asic::TcamRule& Value::as_rule() const {
  FARM_CHECK_MSG(is_rule(), "expected rule value");
  return std::get<asic::TcamRule>(v_);
}

const SketchValue& Value::as_sketch() const {
  FARM_CHECK_MSG(is_sketch(), "expected sketch value");
  return std::get<SketchValue>(v_);
}

bool Value::equals(const Value& o) const {
  if (v_.index() != o.v_.index()) {
    // int/float cross-compare numerically.
    if (is_numeric() && o.is_numeric()) return as_float() == o.as_float();
    return false;
  }
  if (is_list()) {
    const auto& a = *as_list();
    const auto& b = *o.as_list();
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i)
      if (!a[i].equals(b[i])) return false;
    return true;
  }
  if (is_filter()) return as_filter() == o.as_filter();
  if (is_rule()) return as_rule().id == o.as_rule().id;
  return v_ == o.v_;
}

Value Value::deep_copy() const {
  if (is_list()) {
    auto out = std::make_shared<std::vector<Value>>();
    out->reserve(as_list()->size());
    for (const auto& v : *as_list()) out->push_back(v.deep_copy());
    return Value(std::move(out));
  }
  if (is_stats()) {
    StatsValue s;
    *s.entries = *as_stats().entries;
    return Value(std::move(s));
  }
  return *this;
}

std::string Value::type_name() const {
  switch (v_.index()) {
    case 0:
      return "nil";
    case 1:
      return "bool";
    case 2:
      return "long";
    case 3:
      return "float";
    case 4:
      return "string";
    case 5:
      return "list";
    case 6:
      return "filter";
    case 7:
      return "packet";
    case 8:
      return "action";
    case 9:
      return "trigger";
    case 10:
      return "stats";
    case 11:
      return "resources";
    case 12:
      return "rule";
    case 13:
      return "sketch";
  }
  return "?";
}

std::string Value::to_string() const {
  if (is_nil()) return "nil";
  if (is_bool()) return as_bool() ? "true" : "false";
  if (is_int()) return std::to_string(as_int());
  if (is_float()) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%g", as_float());
    return buf;
  }
  if (is_string()) return "\"" + as_string() + "\"";
  if (is_list()) {
    std::string s = "[";
    for (const auto& v : *as_list()) {
      if (s.size() > 1) s += ", ";
      s += v.to_string();
    }
    return s + "]";
  }
  if (is_filter()) return as_filter().to_string();
  if (is_packet()) return as_packet().to_string();
  if (is_action()) return "action(" + asic::to_string(as_action().action) + ")";
  if (is_trigger()) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "trigger(ival=%gs)",
                  as_trigger().ival_seconds);
    return buf;
  }
  if (is_stats())
    return "stats[" + std::to_string(as_stats().entries->size()) + "]";
  if (is_resources()) {
    const auto& r = as_resources();
    char buf[96];
    std::snprintf(buf, sizeof buf, "res(vCPU=%g,RAM=%g,TCAM=%g,PCIe=%g)",
                  r.vCPU, r.RAM, r.TCAM, r.PCIe);
    return buf;
  }
  if (is_rule()) return "rule#" + std::to_string(as_rule().id);
  if (is_sketch())
    return as_sketch().cms  ? "sketch(cms)"
           : as_sketch().mg ? "sketch(mg)"
                            : "sketch(hll)";
  return "?";
}

}  // namespace farm::almanac
