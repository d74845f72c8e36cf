// Per-layer measurements of a traced pass. Everything here calls the
// program's public functions from outside: it replays the almanac and
// placement work of a control operation, reads the public counters and the
// Furrow snapshot, and times single data-plane calls on the live fabric.
// In an untraced pass every method returns at once.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"
#include "farm/system.h"
#include "net/traffic.h"
#include "placement/incremental.h"

namespace e2e {

// Share of poll deliveries within one interval of their due time, over all
// soils (each soil's accuracy weighted by its deliveries).
double fleet_polling_accuracy(farm::core::FarmSystem& farm);

class LayerProbe {
 public:
  // `replay_every`: the almanac and placement replays run after every n-th
  // control operation, so a traced pass stays within a few times the
  // untraced one.
  LayerProbe(farm::core::FarmSystem& farm, Tracer& tracer, bool active,
             int replay_every);

  bool active() const { return active_; }

  // Bracket one install_task or remove_task. end_op must run inside the
  // operation's span: the replays become its children. `spec` is the task
  // installed, or nullptr for a removal.
  void begin_op();
  void end_op(const farm::core::TaskSpec* spec);

  // End of pass: data-plane timings on the live fabric, soil/bus/telemetry
  // counters, the farm report, and the sim metrics from `out.slices`.
  void finish(PassResult& out, const std::vector<farm::net::FlowSpec>& flows,
              const std::vector<farm::core::TaskSpec>& tasks,
              std::uint64_t harvester_msgs);

 private:
  void replay_almanac(const farm::core::TaskSpec& spec);
  void replay_solve();
  void time_data_plane(PassResult& out,
                       const std::vector<farm::net::FlowSpec>& flows);
  void time_on_poll(PassResult& out,
                    const std::vector<farm::core::TaskSpec>& tasks);

  farm::core::FarmSystem& farm_;
  Tracer& tracer_;
  bool active_;
  int replay_every_;
  int ops_ = 0;
  // Replays the seeder's incremental resolve once per operation, so the
  // dirty set and fallback reason describe the whole operation's change
  // (the seeder's own last_incremental() shows its final, often no-op,
  // deferred pass).
  farm::placement::IncrementalPlacer placer_;
  farm::telemetry::prof::Snapshot pass_start_;
  farm::telemetry::prof::Snapshot op_start_;

  // Sums over the pass; finish() turns them into per-operation figures.
  int replays_ = 0;
  int solves_ = 0;
  double parse_us_ = 0, compile_us_ = 0, lint_us_ = 0, analysis_us_ = 0;
  double solve_ms_ = 0;
  double dirty_switches_ = 0;
  int fallbacks_cold_ = 0, fallbacks_delta_ = 0, fallbacks_validation_ = 0;
  std::uint64_t memo_hits_ = 0, memo_misses_ = 0, pivots_ = 0;
  std::uint64_t pool_tasks_ = 0, pool_inline_ = 0;
};

}  // namespace e2e
