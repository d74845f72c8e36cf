#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench.h"

namespace e2e {

namespace {

std::uint64_t lcg(std::uint64_t& x) {
  x = x * 6364136223846793005ull + 1442695040888963407ull;
  return x >> 16;
}

volatile double g_sink;

// Open-addressing set of short strings in fixed storage.
struct NameSet {
  static constexpr std::size_t kSlots = 1024;
  std::array<std::array<char, 16>, kSlots> names{};
  std::array<bool, kSlots> used{};

  bool insert(const char* s) {
    std::uint64_t h = 1469598103934665603ull;
    for (const char* c = s; *c; ++c)
      h = (h ^ static_cast<unsigned char>(*c)) * 1099511628211ull;
    for (std::size_t i = h % kSlots;; i = (i + 1) % kSlots) {
      if (!used[i]) {
        used[i] = true;
        std::snprintf(names[i].data(), names[i].size(), "%s", s);
        return true;
      }
      if (std::strcmp(names[i].data(), s) == 0) return false;
    }
  }
};

// A fixed amount of work with no heap allocation, so that the program's
// heap does not change its cost: short strings formatted and hashed into a
// set, and a dense floating-point loop, about half the time each. Pointer
// chases over 256 KiB to 32 MiB were tried as a third part and left out: the
// smallest varied between processes by a factor of up to four regardless of
// the program, and the larger ones tracked the program no better (see
// README.md, Host-speed reference).
void burst_work() {
  static NameSet set;
  set = NameSet{};
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  char buf[16];
  std::size_t fresh = 0;
  for (int i = 0; i < 480; ++i) {
    std::snprintf(buf, sizeof buf, "10.%u.%u", static_cast<unsigned>(lcg(x) % 250),
                  static_cast<unsigned>(lcg(x) % 250));
    fresh += set.insert(buf);
  }
  std::array<double, 64> v{};
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i) * 0.5;
  double acc = 0;
  for (int round = 0; round < 16; ++round)
    for (std::size_t i = 0; i < v.size(); ++i)
      for (std::size_t j = 0; j < v.size(); ++j)
        acc += v[i] * v[j] / (1.0 + static_cast<double>(round + j));
  g_sink = acc + static_cast<double>(fresh);
}

}  // namespace

void HostRef::burst(int n) {
  for (int i = 0; i < n; ++i) {
    const double t0 = wall_s();
    burst_work();
    bursts_.push_back(wall_s() - t0);
  }
}

double HostRef::scale_near(std::size_t at) const {
  const std::size_t lo = at > kWindow ? at - kWindow : 0;
  const std::size_t hi = std::min(bursts_.size(), at + kWindow);
  if (lo >= hi) return 1;
  const double m = median(std::vector<double>(
      bursts_.begin() + static_cast<std::ptrdiff_t>(lo),
      bursts_.begin() + static_cast<std::ptrdiff_t>(hi)));
  return m > 0 ? kBurstRefS / m : 1;
}

PassResult PassResult::scaled() const {
  PassResult r = *this;
  auto scale = [this](std::vector<double>& v, const std::vector<std::size_t>& at) {
    for (std::size_t i = 0; i < v.size(); ++i) v[i] *= host.scale_near(at[i]);
  };
  scale(r.setup_s, setup_at);
  scale(r.intake_phase_s, intake_phase_at);
  scale(r.intake_ms, intake_at);
  scale(r.churn_ms, churn_at);
  for (auto& s : r.slices) s.wall_s *= host.scale_near(s.at);
  return r;
}

}  // namespace e2e
