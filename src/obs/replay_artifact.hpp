// apram::obs — replay artifacts.
//
// Simulator executions are pure functions of (program, schedule), and every
// scheduler grant performs exactly one shared-memory access. A run's grant
// sequence, as sim::RecordingScheduler records it, is therefore a complete
// description of the run: feeding it to sim::FixedScheduler (via
// sim::replay) re-executes the run step for step. The fault certifier
// writes one for every violation it finds (fault/certifier.hpp).
//
// The artifact format is a trivially diffable text file:
//
//   # apram-schedule v1
//   2
//   0
//   1
//   ...
//
// one pid per line, in grant order. Lines starting with '#' are comments.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace apram::obs {

// `comments` lines (if any) are written after the header as '# '-prefixed
// annotations — seeds, fault plans, violation descriptions. The loader
// ignores them, so annotated artifacts replay like plain ones. Comment
// lines must not contain newlines.
void save_schedule(std::ostream& os, const std::vector<int>& schedule,
                   const std::vector<std::string>& comments = {});
std::vector<int> load_schedule(std::istream& is);

// File convenience wrappers; abort on I/O failure.
void write_schedule_file(const std::string& path,
                         const std::vector<int>& schedule,
                         const std::vector<std::string>& comments = {});
std::vector<int> read_schedule_file(const std::string& path);

}  // namespace apram::obs
