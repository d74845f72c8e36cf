#include "asic/tcam.h"

#include <algorithm>

#include "util/check.h"

namespace farm::asic {

std::string to_string(RuleAction a) {
  switch (a) {
    case RuleAction::kForward:
      return "forward";
    case RuleAction::kDrop:
      return "drop";
    case RuleAction::kRateLimit:
      return "rate_limit";
    case RuleAction::kMirror:
      return "mirror";
    case RuleAction::kCount:
      return "count";
  }
  return "?";
}

Tcam::Tcam(int capacity, int monitoring_reserved)
    : capacity_total_(capacity), monitoring_reserved_(monitoring_reserved) {
  FARM_CHECK(capacity >= 0 && monitoring_reserved >= 0 &&
             monitoring_reserved <= capacity);
}

int Tcam::capacity(TcamRegion region) const {
  return region == TcamRegion::kMonitoring
             ? monitoring_reserved_
             : capacity_total_ - monitoring_reserved_;
}

int Tcam::used(TcamRegion region) const { return used_[slot(region)]; }

int Tcam::free_space(TcamRegion region) const {
  return capacity(region) - used(region);
}

std::optional<RuleId> Tcam::add_rule(TcamRule rule) {
  if (free_space(rule.region) <= 0) return std::nullopt;
  rule.id = next_id_++;
  rule.hit_packets = rule.hit_bytes = 0;
  by_key_[slot(rule.region)][rule.pattern.canonical_key()].push_back(rule.id);
  ++used_[slot(rule.region)];
  rules_.push_back(std::move(rule));
  return rules_.back().id;
}

int Tcam::remove_rules(const net::Filter& pattern, TcamRegion region) {
  auto& index = by_key_[slot(region)];
  auto it = index.find(pattern.canonical_key());
  if (it == index.end()) return 0;
  const std::vector<RuleId> ids = std::move(it->second);
  index.erase(it);
  // Both id lists ascend, so one merge pass drops exactly the indexed ids.
  auto next = ids.begin();
  std::erase_if(rules_, [&](const TcamRule& r) {
    if (next == ids.end() || r.id != *next) return false;
    ++next;
    return true;
  });
  FARM_CHECK(next == ids.end());
  const int removed = static_cast<int>(ids.size());
  used_[slot(region)] -= removed;
  return removed;
}

bool Tcam::remove_rule(RuleId id) {
  auto it = locate(id);
  if (it == rules_.end()) return false;
  auto& index = by_key_[slot(it->region)];
  auto entry = index.find(it->pattern.canonical_key());
  FARM_CHECK(entry != index.end());
  std::erase(entry->second, id);
  if (entry->second.empty()) index.erase(entry);
  --used_[slot(it->region)];
  rules_.erase(it);
  return true;
}

void Tcam::clear() {
  rules_.clear();
  for (auto& index : by_key_) index.clear();
  used_.fill(0);
}

TcamRule* Tcam::mutable_match(const net::PacketHeader& h, int at_iface) {
  TcamRule* best = nullptr;
  for (auto& r : rules_) {
    if (!r.pattern.matches(h, at_iface)) continue;
    if (!best || r.priority > best->priority ||
        (r.priority == best->priority && r.id < best->id))
      best = &r;
  }
  return best;
}

const TcamRule* Tcam::match(const net::PacketHeader& h, int at_iface) const {
  return const_cast<Tcam*>(this)->mutable_match(h, at_iface);
}

std::vector<TcamRule*> Tcam::matching(const net::PacketHeader& h,
                                      int at_iface) {
  std::vector<TcamRule*> out;
  for (auto& r : rules_)
    if (r.pattern.matches(h, at_iface)) out.push_back(&r);
  return out;
}

std::vector<TcamRule>::const_iterator Tcam::locate(RuleId id) const {
  auto it = std::lower_bound(
      rules_.begin(), rules_.end(), id,
      [](const TcamRule& r, RuleId want) { return r.id < want; });
  return it != rules_.end() && it->id == id ? it : rules_.end();
}

const TcamRule* Tcam::find(RuleId id) const {
  auto it = locate(id);
  return it == rules_.end() ? nullptr : &*it;
}

const TcamRule* Tcam::find(const net::Filter& pattern,
                           TcamRegion region) const {
  const auto& ids = rule_ids(pattern, region);
  return ids.empty() ? nullptr : find(ids.front());
}

const std::vector<RuleId>& Tcam::rule_ids(const net::Filter& pattern,
                                          TcamRegion region) const {
  static const std::vector<RuleId> kNone;
  const auto& index = by_key_[slot(region)];
  auto it = index.find(pattern.canonical_key());
  return it == index.end() ? kNone : it->second;
}

}  // namespace farm::asic
