#include "placement/generator.h"

#include <algorithm>

namespace farm::placement {

PlacementProblem generate_problem(const GeneratorSpec& spec) {
  util::Rng rng(spec.seed);
  PlacementProblem p;

  for (int i = 0; i < spec.n_switches; ++i) {
    SwitchModel sw;
    sw.node = static_cast<net::NodeId>(i);
    // Heterogeneous hardware: quad-core Atom class through 8-core Xeon.
    bool big = rng.next_bool(0.3);
    sw.capacity = ResourcesValue{big ? 8.0 : 4.0, big ? 32768.0 : 8192.0,
                                 big ? 2048.0 : 1024.0, 8.0};
    sw.alpha_poll = 1.0;
    p.switches.push_back(sw);
  }

  for (int t = 0; t < spec.n_tasks; ++t) {
    std::string task = "task" + std::to_string(t);
    for (int s = 0; s < spec.seeds_per_task; ++s) {
      SeedModel seed;
      seed.task = task;
      seed.id = task + "/m#" + std::to_string(s);

      // Candidate switches: a random subset.
      int k = std::min<int>(spec.candidates_per_seed, spec.n_switches);
      while (seed.candidates.size() < static_cast<std::size_t>(k)) {
        auto n = static_cast<net::NodeId>(
            rng.next_below(static_cast<std::uint64_t>(spec.n_switches)));
        if (std::find(seed.candidates.begin(), seed.candidates.end(), n) ==
            seed.candidates.end())
          seed.candidates.push_back(n);
      }

      // One or two variants, drawn from the analysis shapes of the use
      // cases: constraints r_vCPU ≥ a, r_RAM ≥ b; utility linear or
      // min(vCPU, c·PCIe).
      int n_variants = rng.next_bool(0.25) ? 2 : 1;
      for (int v = 0; v < n_variants; ++v) {
        UtilityVariant var;
        double need_cpu = rng.next_double(0.1, 1.0);
        double need_ram = rng.next_double(16, 256);
        almanac::Poly c1 = almanac::Poly::var(almanac::kVCpu);
        c1.c0 = -need_cpu;
        almanac::Poly c2 = almanac::Poly::var(almanac::kRam);
        c2.c0 = -need_ram;
        var.constraints = {c1, c2};
        if (rng.next_bool(0.5)) {
          var.util_min_terms = {
              almanac::Poly::var(almanac::kVCpu, rng.next_double(1, 4))};
        } else {
          var.util_min_terms = {
              almanac::Poly::var(almanac::kVCpu, rng.next_double(1, 3)),
              almanac::Poly::var(almanac::kPcie, rng.next_double(0.5, 2))};
        }
        seed.variants.push_back(std::move(var));
      }

      // Polling: shared subject (port counters) or a private flow subject.
      PollModel poll;
      if (rng.next_bool(spec.shared_poll_fraction)) {
        poll.subject = "iface ANY&";
      } else {
        poll.subject = "flow:" + seed.id;
      }
      // ival = c / res.PCIe → 1/ival = PCIe / c, with c in [5, 20].
      poll.inv_ival =
          almanac::Poly::var(almanac::kPcie, 1.0 / rng.next_double(5, 20));
      seed.polls.push_back(std::move(poll));

      p.seeds.push_back(std::move(seed));
    }
  }
  return p;
}

DensityLeaf flowmon_leaf(int n) {
  DensityLeaf out;
  out.sw.node = 0;
  out.sw.capacity = ResourcesValue{4, 8192, 2048.0 + n, 8};
  UtilityVariant v;
  Poly floor = Poly::var(almanac::kVCpu);
  floor.c0 = -0.01;
  v.constraints.push_back(floor);
  v.util_min_terms.push_back(Poly::var(almanac::kVCpu));
  const double mbps_per_poll = 16 * 8.0 / 1e6;
  for (int i = 0; i < n; ++i) {
    SeedModel s;
    s.id = "fm" + std::to_string(i) + "/FlowMon#0";
    s.task = "fm" + std::to_string(i);
    s.candidates = {out.sw.node};
    s.variants = {v};
    s.polls.push_back(
        {"dstIP 10.0." + std::to_string(i / 250) + "." +
             std::to_string(i % 250 + 1) + "&",
         Poly::constant(1 / 0.01).scaled(mbps_per_poll)});
    out.seeds.push_back(std::move(s));
  }
  return out;
}

}  // namespace farm::placement
