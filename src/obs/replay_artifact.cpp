#include "obs/replay_artifact.hpp"

#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "util/assert.hpp"

namespace apram::obs {

void save_schedule(std::ostream& os, const std::vector<int>& schedule,
                   const std::vector<std::string>& comments) {
  os << "# apram-schedule v1\n";
  for (const std::string& line : comments) {
    APRAM_CHECK_MSG(line.find('\n') == std::string::npos,
                    "schedule comment contains a newline");
    os << "# " << line << '\n';
  }
  for (int pid : schedule) os << pid << '\n';
}

std::vector<int> load_schedule(std::istream& is) {
  std::vector<int> schedule;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    int pid = -1;
    ls >> pid;
    APRAM_CHECK_MSG(!ls.fail() && pid >= 0, "malformed schedule line");
    schedule.push_back(pid);
  }
  return schedule;
}

void write_schedule_file(const std::string& path,
                         const std::vector<int>& schedule,
                         const std::vector<std::string>& comments) {
  std::ofstream out(path);
  APRAM_CHECK_MSG(out.good(), "cannot open schedule output file");
  save_schedule(out, schedule, comments);
  out.flush();
  APRAM_CHECK_MSG(out.good(), "schedule artifact write failed");
}

std::vector<int> read_schedule_file(const std::string& path) {
  std::ifstream in(path);
  APRAM_CHECK_MSG(in.good(), "cannot open schedule input file");
  return load_schedule(in);
}

}  // namespace apram::obs
