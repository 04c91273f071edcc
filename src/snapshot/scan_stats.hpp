// Closed-form operation accounting for the §6.2 complexity claims.
//
// Measurement itself lives in apram::obs: give the World a metrics registry
// (World::Options::metrics) and measure regions with obs::CounterDelta.
// This header keeps only the paper's closed forms to compare against.
#pragma once

#include <cstdint>

#include "snapshot/lattice_scan.hpp"

namespace apram {

// Closed-form per-Scan costs from §6.2.
std::uint64_t expected_scan_reads(int n, ScanMode mode);
std::uint64_t expected_scan_writes(int n, ScanMode mode);

}  // namespace apram
