// Static analyses over compiled machines (§III-B).
//
// The seeder runs three analyses before deployment:
//  1. analyze_utility — κ/ε interpretation of the util callback into
//     resource constraints C^s(r) (linear polynomials, each required ≥ 0)
//     and a utility u^s(r). `or` conditions, multiple ifs, and max() split
//     into *variants* (the paper's "several copies, at most one placed");
//     min() yields concave piecewise-linear utilities, which the LP handles
//     exactly via epigraph variables.
//  2. resolve_places — π interpretation of place directives into seed
//     candidate-switch sets N^s, using the SDN controller's path oracle.
//  3. analyze_polls — per poll/probe trigger variable: the polling subject
//     set φ_enc(φ^s[what]) and the interval function y.ival(r). The
//     optimizer needs 1/ival linear in r; the form the paper uses
//     (`c / res().X`) satisfies that, other forms fall back to a constant
//     evaluated at a reference allocation.
//
// Deviation note (π): the paper's worked example is ambiguous about
// grouping for `any` (its three outputs are mutually inconsistent under any
// single rule we could find). We implement: one seed per matching path with
// N^s = the path's matching placeable nodes, deduplicating identical N^s
// sets; `all` yields one seed per matching node. Coverage is equivalent.
#pragma once

#include <array>
#include <limits>
#include <string>
#include <variant>
#include <vector>

#include "almanac/compile.h"
#include "almanac/interp.h"
#include "net/topology.h"

namespace farm::almanac {

// The resource dimensions of the optimization model (matches
// ResourcesValue::field_names(): vCPU, RAM, TCAM, PCIe).
inline constexpr std::size_t kNumResources = 4;
enum ResourceDim : std::size_t { kVCpu = 0, kRam = 1, kTcam = 2, kPcie = 3 };

// Linear polynomial c0 + Σ coeff[i]·r_i over the resource dimensions.
struct Poly {
  double c0 = 0;
  std::array<double, kNumResources> coeff{};

  static Poly constant(double c) {
    Poly p;
    p.c0 = c;
    return p;
  }
  static Poly var(std::size_t dim, double k = 1) {
    Poly p;
    p.coeff[dim] = k;
    return p;
  }
  bool is_constant() const {
    for (double c : coeff)
      if (c != 0) return false;
    return true;
  }
  double eval(const ResourcesValue& r) const {
    return c0 + coeff[kVCpu] * r.vCPU + coeff[kRam] * r.RAM +
           coeff[kTcam] * r.TCAM + coeff[kPcie] * r.PCIe;
  }
  Poly operator+(const Poly& o) const;
  Poly operator-(const Poly& o) const;
  Poly scaled(double k) const;
  std::string to_string() const;
};

// One feasibility region + utility of a seed. Utility is the minimum of
// `util_min_terms` (a single term ⇒ plain linear).
struct UtilityVariant {
  std::vector<Poly> constraints;  // each must be >= 0
  std::vector<Poly> util_min_terms;

  bool feasible(const ResourcesValue& r) const {
    for (const auto& c : constraints)
      if (c.eval(r) < -1e-9) return false;
    return true;
  }
  double utility(const ResourcesValue& r) const {
    double u = std::numeric_limits<double>::infinity();
    for (const auto& t : util_min_terms) u = std::min(u, t.eval(r));
    return util_min_terms.empty() ? 0 : u;
  }
};

struct UtilityAnalysis {
  std::vector<UtilityVariant> variants;

  // Utility at an allocation: best feasible variant (the optimizer places
  // at most one copy; evaluating takes the max over feasible regions).
  double utility(const ResourcesValue& r) const {
    double best = 0;
    bool any = false;
    for (const auto& v : variants)
      if (v.feasible(r)) {
        best = any ? std::max(best, v.utility(r)) : v.utility(r);
        any = true;
      }
    return any ? best : 0;
  }
};

// Analyzes a state's util callback. `param` inside the body exposes the
// allocation; both `res.vCPU` (field on the parameter) and `res().vCPU`
// forms are accepted. Throws CompileError on nonlinear constructs.
UtilityAnalysis analyze_utility(const UtilityDecl& util);

// Default analysis for states without util: always placeable, utility 1
// (a seed the operator deployed has baseline worth).
UtilityAnalysis default_utility();

// Every state's utility analysis, computed once per machine and reused: it
// is a pure function of the AST, and the seeder asks for it for every live
// seed on every reoptimize pass. A state without a util callback gets
// default_utility(); a callback that fails analysis keeps its
// CompileError.
class StateUtilities {
 public:
  StateUtilities() = default;
  explicit StateUtilities(const CompiledMachine& machine);
  // The analysis of state `st` of `machine` (the machine this table was
  // built from), or nullptr when its util callback failed analysis.
  const UtilityAnalysis* find(const CompiledMachine& machine,
                              const CompiledState& st) const;
  // Like find, but throws the stored CompileError on failure.
  const UtilityAnalysis& get(const CompiledMachine& machine,
                             const CompiledState& st) const;

 private:
  const std::variant<UtilityAnalysis, CompileError>& slot(
      const CompiledMachine& machine, const CompiledState& st) const;
  std::vector<std::variant<UtilityAnalysis, CompileError>> per_state_;
};

// --- Poll analysis -----------------------------------------------------------

struct PollAnalysis {
  std::string var;
  TriggerType ttype = TriggerType::kPoll;
  // Polling subject filter and its φ_enc encoding.
  net::Filter what;
  std::vector<std::string> subjects;
  // 1 / ival as a linear polynomial when `inv_linear`; otherwise
  // `inv_ival` is the constant 1/ival evaluated at `reference_alloc`.
  Poly inv_ival;
  bool inv_linear = false;
  double ival_at(const ResourcesValue& r) const {
    double inv = inv_ival.eval(r);
    return inv > 0 ? 1.0 / inv : 0;
  }
};

// Analyzes all poll/probe trigger variables of the machine. `machine_env`
// must hold external-variable bindings (and machine variable initials) so
// `what` expressions evaluate to concrete filters. `reference_alloc` is
// the allocation used for the non-linear fallback.
std::vector<PollAnalysis> analyze_polls(const CompiledMachine& machine,
                                        Env& machine_env,
                                        const ResourcesValue& reference_alloc);

// --- Sketch analysis ---------------------------------------------------------

// The static shape of one `sketch` variable (machine- or state-level): the
// declared spec that Sickle's resource pass costs against the per-switch
// cell budget and the DiSketch planner fragments. Initializer arguments are
// evaluated host-independently; anything res()- or runtime-dependent makes
// the declaration non-analyzable (SK001) rather than an error.
struct SketchAnalysis {
  std::string var;
  SourceLoc loc;
  // The initializer was a cms_new/mg_new/hll_new call with statically
  // evaluable arguments. When false, `spec` is meaningless.
  bool analyzable = false;
  // Non-empty when the statically evaluated parameters are invalid (SK002);
  // holds the SketchSpec::validate() message.
  std::string problem;
  net::SketchSpec spec;
};

// Analyzes every sketch-typed machine variable and state local with an
// initializer. `machine_env` supplies external-variable bindings, as for
// analyze_polls.
std::vector<SketchAnalysis> analyze_sketches(const CompiledMachine& machine,
                                             Env& machine_env);

// --- Placement resolution -----------------------------------------------------

struct ResolvedSeed {
  // Candidate switches N^s; the seed must be placed on exactly one.
  std::vector<net::NodeId> candidates;
};

// π interpretation of the machine's place directives (see header comment
// for the grouping semantics). Only switch nodes are placeable.
std::vector<ResolvedSeed> resolve_places(const CompiledMachine& machine,
                                         Env& machine_env,
                                         const net::SdnController& controller);

}  // namespace farm::almanac
