#include "util/flags.hpp"

#include <cstdio>
#include <cstdlib>

namespace apram {

namespace {

[[noreturn]] void usage_error(const std::string& program,
                              const std::string& detail) {
  std::fprintf(stderr, "%s: %s\nflags take the form --name=value\n",
               program.c_str(), detail.c_str());
  std::exit(2);
}

}  // namespace

Flags::Flags(int argc, char** argv) : program_(argc > 0 ? argv[0] : "bench") {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) usage_error(program_, "bad argument: " + arg);
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";  // bare flag == boolean true
    }
  }
}

std::int64_t Flags::get_int(const std::string& name, std::int64_t def) {
  used_[name] = true;
  auto it = values_.find(name);
  return it == values_.end() ? def : std::strtoll(it->second.c_str(), nullptr, 10);
}

std::string Flags::get_string(const std::string& name, std::string def) {
  used_[name] = true;
  auto it = values_.find(name);
  return it == values_.end() ? def : it->second;
}

void Flags::check_unused() const {
  for (const auto& [name, value] : values_) {
    (void)value;
    if (!used_.count(name)) usage_error(program_, "unknown flag: --" + name);
  }
}

}  // namespace apram
