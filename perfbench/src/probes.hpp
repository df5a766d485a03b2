// Layer probes of the traced run (probes.cpp).
#pragma once

#include <cstdint>

namespace perfbench {

// ns per generic mdreal add and mul at 2, 4 and 8 limbs.
struct MdProbe {
  double add_ns[3] = {0, 0, 0};
  double mul_ns[3] = {0, 0, 0};
};

MdProbe md_probe(std::uint64_t seed);

// ns per declared md operation of a fused double-double gemm call.
double fused_dd_ns_per_op(std::uint64_t seed);

}  // namespace perfbench
