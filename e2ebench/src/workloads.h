// The benchmark's workloads. Each is a closed loop: one operator waits for
// every install_task/remove_task to return before sending the next. One
// call runs one pass: set-up, intake, monitored phase(s), churn, checks.
#pragma once

#include <string>

#include "bench.h"

namespace e2e {

using PassFn = PassResult (*)(const Options&, Tracer&);

// nullptr for an unknown name.
PassFn find_workload(const std::string& name);

}  // namespace e2e
