// perfbench — small shared helpers: clocks, process memory, order
// statistics, and the seeded 1-in-N latency sampler.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include "obs/sampler.hpp"

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double now_s() { return static_cast<double>(now_ns()) * 1e-9; }

// Resident set size of this process, in MB (from /proc/self/statm).
inline double rss_mb() {
  std::ifstream in("/proc/self/statm");
  std::uint64_t size = 0;
  std::uint64_t resident = 0;
  in >> size >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

// Peak resident set size of this process (VmHWM), in MB.
inline double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      in >> kb;
      return kb / 1024.0;
    }
    std::getline(in, key);
  }
  return 0.0;
}

// Quantile q in [0, 1] with linear interpolation between order statistics.
// Empty input gives 0.
template <class T>
double quantile(std::vector<T> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return static_cast<double>(v[lo]) * (1.0 - frac) +
         static_cast<double>(v[hi]) * frac;
}

template <class T>
double median(const std::vector<T>& v) {
  return quantile(v, 0.5);
}

// Mean of the values between the first and third quartile: as robust to a
// stray round as the median, but not stuck on one integer nanosecond.
inline double midmean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const double lo = quantile(v, 0.25);
  const double hi = quantile(v, 0.75);
  double sum = 0.0;
  int n = 0;
  for (const double x : v) {
    if (x >= lo && x <= hi) {
      sum += x;
      ++n;
    }
  }
  return sum / n;
}

// Pins the calling thread to the pid-th CPU this process may run on, so
// the scheduler neither stacks workers on one CPU nor moves them mid-round.
// Call it from worker threads only; threads they create inherit the pin.
inline void pin_to_cpu(int pid) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  const int count = CPU_COUNT(&allowed);
  if (count == 0) return;
  int skip = pid % count;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    if (skip-- == 0) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
      return;
    }
  }
}

// Which ops of one thread's sequence get timed: a pure function of
// (seed, pid, op index) through obs::SpanSampler, computed once before the
// run so the timed loop only tests a byte.
inline std::vector<std::uint8_t> sample_mask(std::uint64_t seed, int pid,
                                             std::size_t ops,
                                             std::uint32_t rate) {
  const apram::obs::SpanSampler sampler{seed, rate};
  std::vector<std::uint8_t> mask(ops);
  for (std::size_t i = 0; i < ops; ++i) {
    mask[i] = sampler.keep(pid, i + 1) ? 1 : 0;
  }
  return mask;
}

}  // namespace perfbench
