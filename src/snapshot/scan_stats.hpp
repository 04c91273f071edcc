// Closed-form operation accounting for the §6.2 complexity claims.
//
// Measurement lives in sim::World::counts: a region's cost is the
// difference of two readings (obs::AccessCounts has operator-). This
// header keeps only the paper's closed forms to compare against.
#pragma once

#include <cstdint>

#include "snapshot/lattice_scan.hpp"

namespace apram {

// Closed-form per-Scan costs from §6.2.
std::uint64_t expected_scan_reads(int n, ScanMode mode);
std::uint64_t expected_scan_writes(int n, ScanMode mode);

}  // namespace apram
