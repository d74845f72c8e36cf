#include <algorithm>
#include <cmath>
#include <sstream>

#include "bench.h"
#include "telemetry/export.h"

namespace e2e {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double central_median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  const auto lo = static_cast<std::size_t>(std::floor(0.45 * n));
  const auto hi = std::max(lo + 1, static_cast<std::size_t>(std::ceil(0.55 * n)));
  double sum = 0;
  for (std::size_t i = lo; i < hi; ++i) sum += v[i];
  return sum / static_cast<double>(hi - lo);
}

Tail tail(std::vector<double> v, std::size_t per_pass) {
  Tail t;
  t.n = v.size();
  if (t.n == 0) return t;
  if (per_pass >= 200) {
    t.q = 0.95;
  } else if (per_pass >= 20) {
    t.q = 1.0 - 10.0 / static_cast<double>(per_pass);
  } else {
    t.q = 1.0;
  }
  t.value = quantile(std::move(v), t.q);
  return t;
}

std::uint64_t Tracer::now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint32_t Tracer::open(std::string name) {
  if (!enabled_) return 0;
  Span s;
  s.name = std::move(name);
  s.id = static_cast<std::uint32_t>(spans_.size() + 1);
  s.parent = stack_.empty() ? 0 : stack_.back();
  s.op = s.parent == 0 ? s.id : spans_[s.parent - 1].op;
  s.start_ns = now_ns();
  spans_.push_back(std::move(s));
  stack_.push_back(spans_.back().id);
  return spans_.back().id;
}

void Tracer::close(std::uint32_t id) {
  if (id == 0) return;
  spans_[id - 1].end_ns = now_ns();
  // Spans close in stack order (RAII); tolerate a mismatch by unwinding.
  while (!stack_.empty()) {
    const std::uint32_t top = stack_.back();
    stack_.pop_back();
    if (top == id) break;
  }
}

std::map<std::string, Tracer::NameStats> Tracer::by_name() const {
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent != 0)
      child_ms[s.parent - 1] += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
  std::map<std::string, NameStats> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double total = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    NameStats& n = out[s.name];
    ++n.count;
    n.total_ms += total;
    n.self_ms += std::max(0.0, total - child_ms[i]);
  }
  return out;
}

void Tracer::write_chrome_trace(std::ostream& os,
                                const farm::telemetry::prof::Snapshot& furrow,
                                const std::string& metadata_json) const {
  const std::uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  os << "{\"traceEvents\":[\n"
     << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":3,"
        "\"args\":{\"name\":\"e2ebench spans (wall-clock)\"}}";
  for (const Span& s : spans_) {
    os << ",\n{\"name\":\"" << farm::telemetry::json_escape(s.name)
       << "\",\"cat\":\"e2e\",\"ph\":\"X\",\"pid\":3,\"tid\":1,\"ts\":"
       << static_cast<double>(s.start_ns - t0) / 1e3
       << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
       << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
       << ",\"op\":" << s.op << "}}";
  }
  // Splice the Furrow rows (pid 2) out of its standalone document so one
  // file opens in chrome://tracing or Perfetto.
  std::ostringstream prof;
  farm::telemetry::write_prof_chrome_trace(prof, furrow);
  const std::string doc = prof.str();
  const std::string head = "{\"traceEvents\":[\n";
  const std::size_t tail_pos = doc.rfind("\n],\"displayTimeUnit\"");
  if (doc.compare(0, head.size(), head) == 0 && tail_pos != std::string::npos &&
      tail_pos > head.size())
    os << ",\n" << doc.substr(head.size(), tail_pos - head.size());
  os << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":" << metadata_json
     << "}\n";
}

}  // namespace e2e
