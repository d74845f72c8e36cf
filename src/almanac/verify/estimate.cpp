#include "almanac/verify/estimate.h"

#include <algorithm>

#include "almanac/analysis.h"
#include "almanac/verify/passes.h"
#include "net/filter.h"

namespace farm::almanac::verify {

namespace {

// Mirrors asic/pcie.cpp's per-entry accounting (see pass_resources.cpp).
constexpr double kPollEntryBytes = 16;

struct TcamWeigher {
  const Program& program;
  int loop_bound;
  const absint::Analysis* facts;
  ResourceEstimate* est;
  std::unordered_set<std::string> in_progress;

  double weigh_expr(const Expr& e, double depth_mult) {
    double w = 0;
    walk_expr(e, [&](const Expr& x) {
      if (x.kind != Expr::Kind::kCall) return;
      if (x.builtin == Builtin::kAddTCAMRule) {
        w += depth_mult;
      } else if (x.builtin != Builtin::kNone) {
        // Other builtins install nothing (and shadow user functions).
      } else if (const FuncDecl* f = program.function(x.sym)) {
        // Recursion guard: a cycle contributes no additional installs.
        if (in_progress.insert(x.name).second) {
          w += weigh(f->body, depth_mult);
          in_progress.erase(x.name);
        }
      }
    });
    return w;
  }

  double weigh(const std::vector<ActionPtr>& actions, double depth_mult) {
    double w = 0;
    for (const auto& a : actions) {
      double mult = depth_mult;
      if (a->kind == Action::Kind::kWhile) {
        ++est->loops_scored;
        double bound = loop_bound;
        if (facts) {
          auto it = facts->loop_bounds.find(a.get());
          if (it != facts->loop_bounds.end()) {
            bound = std::min<double>(bound,
                                     static_cast<double>(it->second));
            ++est->loops_bounded;
          }
        }
        mult *= bound;
      }
      if (a->expr) w += weigh_expr(*a->expr, mult);
      if (a->to_dst) w += weigh_expr(*a->to_dst, mult);
      w += weigh(a->body, mult);
      w += weigh(a->else_body, depth_mult);
    }
    return w;
  }
};

}  // namespace

ResourceEstimate estimate_resources(const CompiledMachine& m,
                                    const VerifyOptions& opts,
                                    const absint::Analysis* facts) {
  ResourceEstimate est;

  // TCAM: sum over all dedup'd handlers, each weighed with its own
  // recursion guard — identical to the RS pass at facts == nullptr.
  std::unordered_set<const EventDecl*> seen;
  for (const auto& s : m.states)
    for (const auto* ev : s.events)
      if (seen.insert(ev).second) {
        TcamWeigher w{*m.program, opts.max_ifaces, facts, &est, {}};
        est.tcam_rules += w.weigh(ev->actions, 1.0);
      }

  // PCIe: worst-case static poll bandwidth (same model as the RS pass).
  Env env = build_machine_env(m, opts);
  std::vector<PollAnalysis> polls;
  try {
    polls = analyze_polls(m, env, opts.reference_alloc);
  } catch (const CompileError&) {
    est.pcie_analyzable = false;
    return est;
  } catch (const EvalError&) {
    est.pcie_analyzable = false;
    return est;
  }
  for (const auto& pa : polls) {
    int fp = pa.what.iface_footprint();
    int entries = fp == net::Filter::kAllIfaces ? opts.max_ifaces
                  : fp > 0                      ? fp
                                                : 1;
    ResourcesValue generous = opts.reference_alloc;
    generous.PCIe = opts.pcie_budget_mbps;
    double inv = std::max(pa.inv_ival.eval(opts.reference_alloc),
                          pa.inv_ival.eval(generous));
    if (inv <= 0) continue;
    est.pcie_mbps += inv * entries * kPollEntryBytes * 8.0 / 1e6;
  }
  return est;
}

}  // namespace farm::almanac::verify
