#include "placement/incremental.h"

#include <algorithm>
#include <string_view>

#include "telemetry/prof.h"
#include "util/log.h"

namespace farm::placement {

namespace {

void put_double(std::string& out, double v) {
  out.append(reinterpret_cast<const char*>(&v), 8);
}

void put_u64(std::string& out, std::uint64_t v) {
  out.append(reinterpret_cast<const char*>(&v), 8);
}

void put_resources(std::string& out, const ResourcesValue& r) {
  put_double(out, r.vCPU);
  put_double(out, r.RAM);
  put_double(out, r.TCAM);
  put_double(out, r.PCIe);
}

void put_poly(std::string& out, const Poly& p) {
  put_double(out, p.c0);
  for (double c : p.coeff) put_double(out, c);
}

// Full seed content for change detection — unlike the memo's LP tokens
// this includes candidates and task, because a candidate-list change
// shifts the greedy even when the LP content is untouched. Serializes into
// a caller-owned buffer: diff + snapshot touch every seed on every
// resolve, and per-seed string allocations dominate at 100k seeds.
void seed_content(std::string& out, const SeedModel& s) {
  out.clear();
  put_u64(out, s.task.size());
  out += s.task;
  put_u64(out, s.candidates.size());
  for (net::NodeId n : s.candidates)
    out.append(reinterpret_cast<const char*>(&n), sizeof(n));
  put_u64(out, s.variants.size());
  for (const auto& v : s.variants) {
    put_u64(out, v.constraints.size());
    for (const auto& c : v.constraints) put_poly(out, c);
    put_u64(out, v.util_min_terms.size());
    for (const auto& t : v.util_min_terms) put_poly(out, t);
  }
  put_u64(out, s.polls.size());
  for (const auto& p : s.polls) {
    put_u64(out, p.subject.size());
    out += p.subject;
    put_poly(out, p.inv_ival);
  }
}

std::string switch_content(const SwitchModel& sw) {
  std::string out;
  put_resources(out, sw.capacity);
  put_double(out, sw.alpha_poll);
  return out;
}

std::string alloc_content(const ResourcesValue& r) {
  std::string out;
  put_resources(out, r);
  return out;
}

}  // namespace

std::unordered_set<net::NodeId> IncrementalPlacer::dirty_switches(
    const PlacementProblem& problem) const {
  std::unordered_set<net::NodeId> dirty;
  auto mark = [&dirty](net::NodeId n) {
    if (n != net::kInvalidNode) dirty.insert(n);
  };
  auto mark_seed = [&](const std::string& id,
                       const std::vector<net::NodeId>* new_candidates) {
    if (new_candidates)
      for (net::NodeId n : *new_candidates) mark(n);
    auto old_cands = seed_candidates_.find(id);
    if (old_cands != seed_candidates_.end())
      for (net::NodeId n : old_cands->second) mark(n);
    auto cur = placement_snapshot_.find(id);
    if (cur != placement_snapshot_.end()) mark(cur->second);
    auto asg = assigned_snapshot_.find(id);
    if (asg != assigned_snapshot_.end()) mark(asg->second);
  };

  // Switch set / capacity changes.
  std::unordered_set<net::NodeId> present;
  for (const auto& sw : problem.switches) {
    present.insert(sw.node);
    auto it = switch_snapshot_.find(sw.node);
    if (it == switch_snapshot_.end() || it->second != switch_content(sw))
      mark(sw.node);
  }
  for (const auto& [node, _] : switch_snapshot_)
    if (!present.count(node)) mark(node);

  // Seed arrivals / content changes / departures.
  std::unordered_set<std::string_view> seen;
  seen.reserve(problem.seeds.size());
  std::string content;  // reused across seeds
  for (const auto& s : problem.seeds) {
    seen.insert(s.id);
    auto it = seed_snapshot_.find(s.id);
    if (it == seed_snapshot_.end() ||
        (seed_content(content, s), it->second != content))
      mark_seed(s.id, &s.candidates);
  }
  for (const auto& [id, _] : seed_snapshot_)
    if (!seen.count(id)) mark_seed(id, nullptr);

  // Current placement / allocation drift (a seed that moved or was
  // re-allocated outside the placer's control dirties both homes).
  for (const auto& [id, node] : problem.current_placement) {
    auto it = placement_snapshot_.find(id);
    if (it == placement_snapshot_.end()) {
      if (seed_snapshot_.count(id)) mark(node);  // newly placed known seed
      continue;                                  // new seed: already marked
    }
    if (it->second != node) {
      mark(node);
      mark(it->second);
    }
  }
  for (const auto& [id, alloc] : problem.current_alloc) {
    auto it = alloc_snapshot_.find(id);
    if (it != alloc_snapshot_.end() && it->second == alloc_content(alloc))
      continue;
    if (it == alloc_snapshot_.end() && !seed_snapshot_.count(id)) continue;
    auto cur = problem.current_placement.find(id);
    if (cur != problem.current_placement.end()) mark(cur->second);
  }

  // Topology-change hints.
  for (net::NodeId n : external_dirty_) mark(n);

  // Pod expansion: a dirty switch dirties its whole pod.
  if (opt_.pod_of) {
    std::unordered_set<int> pods;
    for (net::NodeId n : dirty) pods.insert(opt_.pod_of(n));
    for (const auto& sw : problem.switches)
      if (pods.count(opt_.pod_of(sw.node))) dirty.insert(sw.node);
  }
  return dirty;
}

void IncrementalPlacer::snapshot(const PlacementProblem& problem,
                                 const PlacementResult& result) {
  // Upsert in place rather than clear()+rebuild: between consecutive
  // resolves almost every entry is unchanged, so reusing map nodes and
  // string capacity keeps the snapshot pass cheap at 100k seeds. Stale
  // entries (departed seeds) only exist when the sizes disagree after the
  // upsert — the erase pass is skipped on the common path.
  std::string buf;
  seed_snapshot_.reserve(problem.seeds.size());
  seed_candidates_.reserve(problem.seeds.size());
  for (const auto& s : problem.seeds) {
    seed_content(buf, s);
    seed_snapshot_[s.id] = buf;
    seed_candidates_[s.id] = s.candidates;
  }
  if (seed_snapshot_.size() != problem.seeds.size()) {
    std::unordered_set<std::string_view> ids;
    ids.reserve(problem.seeds.size());
    for (const auto& s : problem.seeds) ids.insert(s.id);
    auto stale = [&ids](const auto& kv) { return !ids.count(kv.first); };
    std::erase_if(seed_snapshot_, stale);
    std::erase_if(seed_candidates_, stale);
  }

  switch_snapshot_.clear();  // O(switches), not worth upserting
  for (const auto& sw : problem.switches)
    switch_snapshot_[sw.node] = switch_content(sw);

  for (const auto& [id, node] : problem.current_placement)
    placement_snapshot_[id] = node;
  if (placement_snapshot_.size() != problem.current_placement.size())
    std::erase_if(placement_snapshot_, [&problem](const auto& kv) {
      return !problem.current_placement.count(kv.first);
    });

  for (const auto& [id, alloc] : problem.current_alloc)
    alloc_snapshot_[id] = alloc_content(alloc);
  if (alloc_snapshot_.size() != problem.current_alloc.size())
    std::erase_if(alloc_snapshot_, [&problem](const auto& kv) {
      return !problem.current_alloc.count(kv.first);
    });

  for (const auto& e : result.placements) assigned_snapshot_[e.seed] = e.node;
  if (assigned_snapshot_.size() != result.placements.size()) {
    std::unordered_set<std::string_view> ids;
    ids.reserve(result.placements.size());
    for (const auto& e : result.placements) ids.insert(e.seed);
    std::erase_if(assigned_snapshot_,
                  [&ids](const auto& kv) { return !ids.count(kv.first); });
  }

  // Fold the assignment we just produced into the expected fabric state:
  // the caller is about to realize it, and a fabric that matches the plan
  // is not drift. Without this, the first resolve after a cold solve sees
  // every deployed seed as "newly placed" and every allocation as changed,
  // dirties the whole fabric, and falls back — exactly the re-solve storm
  // the Seeder's deferred-reoptimize drain must not pay for.
  for (const auto& e : result.placements) {
    placement_snapshot_[e.seed] = e.node;
    alloc_snapshot_[e.seed] = alloc_content(e.alloc);
  }
  have_snapshot_ = true;
}

void IncrementalPlacer::invalidate() {
  memo_.clear();
  have_snapshot_ = false;
  seed_snapshot_.clear();
  seed_candidates_.clear();
  switch_snapshot_.clear();
  placement_snapshot_.clear();
  assigned_snapshot_.clear();
  alloc_snapshot_.clear();
  external_dirty_.clear();
}

PlacementResult IncrementalPlacer::resolve(const PlacementProblem& problem) {
  FARM_PROF_SCOPE("placement/incremental");
  stats_ = IncrementalStats{};
  stats_.total_switches = problem.switches.size();

  bool delta = false;
  if (!have_snapshot_) {
    stats_.fallback_reason = "cold";
  } else {
    std::size_t dirty = 0;
    {
      FARM_PROF_SCOPE("diff");
      dirty = dirty_switches(problem).size();
    }
    stats_.dirty_switches = dirty;
    const double fraction =
        problem.switches.empty()
            ? 1.0
            : static_cast<double>(dirty) /
                  static_cast<double>(problem.switches.size());
    if (fraction > opt_.max_delta_fraction) {
      stats_.fell_back = true;
      stats_.fallback_reason = "delta_fraction";
      FARM_PROF_COUNT("placement.incremental.fallbacks", 1);
    } else {
      delta = true;
    }
  }
  external_dirty_.clear();

  const std::uint64_t hits0 = memo_.hits(), misses0 = memo_.misses();
  HeuristicOptions opts = opt_.heuristic;
  opts.memo = &memo_;

  PlacementResult result;
  if (delta) {
    FARM_PROF_COUNT("placement.incremental.delta_solves", 1);
    {
      FARM_PROF_SCOPE("prepare");
      memo_.prepare(problem);
    }
    {
      FARM_PROF_SCOPE("solve");
      result = solve_heuristic(problem, opts);
    }
    memo_.finish(opt_.keep_generations);
    stats_.incremental = true;
    if (opt_.validate_splice) {
      std::vector<std::string> errors;
      {
        FARM_PROF_SCOPE("validate");
        errors = validate_placement(problem, result);
      }
      if (!errors.empty()) {
        // Cannot happen with an intact cache (memo values are pure); a
        // corrupted entry is repaired by solving from scratch.
        FARM_LOG(kWarn) << "incremental placement: spliced result failed "
                           "validation (" << errors.front()
                        << "); falling back to full solve";
        FARM_PROF_COUNT("placement.incremental.fallbacks", 1);
        stats_.incremental = false;
        stats_.fell_back = true;
        stats_.fallback_reason = "validation";
        delta = false;
      }
    }
  }
  if (!delta) {
    FARM_PROF_COUNT("placement.incremental.full_solves", 1);
    memo_.clear();
    {
      FARM_PROF_SCOPE("prepare");
      memo_.prepare(problem);
    }
    {
      FARM_PROF_SCOPE("solve");
      result = solve_heuristic(problem, opts);
    }
    memo_.finish(opt_.keep_generations);
  }

  stats_.cache_hits = memo_.hits() - hits0;
  stats_.cache_misses = memo_.misses() - misses0;
  {
    FARM_PROF_SCOPE("snapshot");
    snapshot(problem, result);
  }
  return result;
}

}  // namespace farm::placement
