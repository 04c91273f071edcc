// Minimal command-line flag parsing for bench and example binaries.
//
// Accepted syntax: --name=value or --name value. Unknown flags abort with a
// usage message so typos in experiment sweeps fail loudly instead of running
// the default configuration.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace apram {

class Flags {
 public:
  Flags(int argc, char** argv);

  std::int64_t get_int(const std::string& name, std::int64_t def);
  std::string get_string(const std::string& name, std::string def);

  // Call after all get_* calls: aborts if any provided flag was never read.
  void check_unused() const;

 private:
  std::string program_;
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> used_;
};

}  // namespace apram
