#include "obs/export.hpp"

#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <ostream>
#include <sstream>

namespace apram::obs {

namespace {

void json_escape(std::ostream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\t':
        os << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          const char* hex = "0123456789abcdef";
          os << "\\u00" << hex[(c >> 4) & 0xf] << hex[c & 0xf];
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

}  // namespace

void export_json(std::ostream& os, const Registry& reg, const Tracer* tracer,
                 const std::string& name) {
  os << "{\n";
  if (!name.empty()) {
    os << "  \"name\": ";
    json_escape(os, name);
    os << ",\n";
  }

  os << "  \"counters\": {";
  bool first = true;
  for (const Counter* c : reg.counters()) {
    os << (first ? "\n" : ",\n") << "    ";
    json_escape(os, c->name());
    os << ": " << c->value();
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n";

  os << "  \"gauges\": {";
  first = true;
  for (const Gauge* g : reg.gauges()) {
    os << (first ? "\n" : ",\n") << "    ";
    json_escape(os, g->name());
    os << ": " << g->value();
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n";

  os << "  \"histograms\": {";
  first = true;
  for (const Histogram* h : reg.histograms()) {
    const Histogram::Snapshot snap = h->snapshot();
    os << (first ? "\n" : ",\n") << "    ";
    json_escape(os, h->name());
    os << ": { \"count\": " << snap.count << ", \"sum\": " << snap.sum
       << ", \"mean\": " << snap.mean() << ", \"p50\": " << snap.percentile(50)
       << ", \"p90\": " << snap.percentile(90)
       << ", \"p99\": " << snap.percentile(99)
       << ", \"p999\": " << snap.percentile(99.9) << ", \"buckets\": [";
    bool bfirst = true;
    for (int b = 0; b < Histogram::kBuckets; ++b) {
      const std::uint64_t n = snap.buckets[static_cast<std::size_t>(b)];
      if (n == 0) continue;
      os << (bfirst ? "" : ", ") << '[' << Histogram::bucket_floor(b) << ", "
         << n << ']';
      bfirst = false;
    }
    os << "] }";
    first = false;
  }
  os << (first ? "" : "\n  ") << "}";

  if (tracer != nullptr) {
    os << ",\n  \"events\": [";
    first = true;
    for (const TraceEvent& ev : tracer->events()) {
      os << (first ? "\n" : ",\n") << "    { \"when\": " << ev.when
         << ", \"pid\": " << ev.pid << ", \"kind\": \"" << kind_name(ev.kind)
         << "\", \"object\": " << ev.object << ", \"arg\": " << ev.arg
         << ", \"op\": " << ev.op << " }";
      first = false;
    }
    os << (first ? "" : "\n  ") << "]";
  }
  os << "\n}\n";
}

std::string to_json(const Registry& reg, const Tracer* tracer,
                    const std::string& name) {
  std::ostringstream os;
  export_json(os, reg, tracer, name);
  return os.str();
}

void write_metrics_json(const std::string& path, const Registry& reg,
                        const Tracer* tracer, const std::string& name) {
  std::ofstream out(path);
  APRAM_CHECK_MSG(out.good(), "cannot open metrics output file");
  export_json(out, reg, tracer, name);
  out.flush();
  APRAM_CHECK_MSG(out.good(), "metrics artifact write failed");
}

std::string artifact_path(const std::string& filename) {
  if (filename.empty() || filename.find('/') != std::string::npos) {
    return filename;  // explicit destination, caller's choice
  }
  if (const char* dir = std::getenv("APRAM_ARTIFACT_DIR");
      dir != nullptr && dir[0] != '\0') {
    std::string d(dir);
    if (d.back() != '/') d.push_back('/');
    return d + filename;
  }
  char buf[4096];
  const ssize_t len = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (len > 0) {
    const std::string exe(buf, static_cast<std::size_t>(len));
    const std::size_t slash = exe.rfind('/');
    if (slash != std::string::npos) {
      return exe.substr(0, slash + 1) + filename;
    }
  }
  return filename;  // no binary dir resolvable: fall back to the cwd
}

}  // namespace apram::obs
