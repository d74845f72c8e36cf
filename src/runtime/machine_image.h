// A deployable machine image: parsed program + compiled machine, bundled so
// the AST outlives every seed instantiated from it. The seeder builds one
// image per (task, machine) and ships it to switches — the analogue of the
// paper's Almanac→XML→seed pipeline (§V-A d).
#pragma once

#include <memory>
#include <string>

#include "almanac/analysis.h"
#include "almanac/compile.h"
#include "almanac/parser.h"

namespace farm::runtime {

struct MachineImage {
  std::shared_ptr<const almanac::Program> program;
  almanac::CompiledMachine machine;
  // Each state's utility analysis, computed once when the image is built.
  almanac::StateUtilities utilities;

  // Utility analysis of one of this machine's states; nullptr when its
  // util callback failed analysis.
  const almanac::UtilityAnalysis* utility(
      const almanac::CompiledState& st) const {
    return utilities.find(machine, st);
  }

  static std::shared_ptr<MachineImage> from_source(
      const std::string& source, const std::string& machine_name) {
    auto image = std::make_shared<MachineImage>();
    image->program =
        std::make_shared<almanac::Program>(almanac::parse_program(source));
    image->machine = almanac::compile_machine(*image->program, machine_name);
    image->utilities = almanac::StateUtilities(image->machine);
    return image;
  }
  static std::shared_ptr<MachineImage> from_program(
      std::shared_ptr<const almanac::Program> program,
      const std::string& machine_name) {
    auto image = std::make_shared<MachineImage>();
    image->machine = almanac::compile_machine(*program, machine_name);
    image->program = std::move(program);
    image->utilities = almanac::StateUtilities(image->machine);
    return image;
  }
};

}  // namespace farm::runtime
