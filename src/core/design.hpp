// The six evaluated designs (Table I + Section VI-B naming) and their wiring.
//
//   IPoIB-Mem         : stock Memcached over IP-over-IB, pure in-memory,
//                       blocking API, backend DB on miss.
//   RDMA-Mem          : RDMA-based in-memory Memcached, blocking API,
//                       backend DB on miss.
//   H-RDMA-Def        : existing SSD-assisted hybrid design -- direct I/O
//                       slab flushes, blocking API, synchronous server.
//   H-RDMA-Opt-Block  : + this paper's adaptive I/O schemes, still blocking.
//   H-RDMA-Opt-NonB-b : + non-blocking server; clients use bset/bget.
//   H-RDMA-Opt-NonB-i : + non-blocking server; clients use iset/iget.
#pragma once

#include <cstdint>
#include <string_view>

#include "common/profiles.hpp"
#include "store/hybrid_manager.hpp"

namespace hykv::core {

enum class Design : std::uint8_t {
  kIpoibMem = 0,
  kRdmaMem,
  kHRdmaDef,
  kHRdmaOptBlock,
  kHRdmaOptNonbB,
  kHRdmaOptNonbI,
};

/// Which client API family a design's evaluation uses.
enum class ApiMode : std::uint8_t { kBlocking = 0, kNonBlockingB, kNonBlockingI };

constexpr std::string_view to_string(Design design) noexcept {
  switch (design) {
    case Design::kIpoibMem: return "IPoIB-Mem";
    case Design::kRdmaMem: return "RDMA-Mem";
    case Design::kHRdmaDef: return "H-RDMA-Def";
    case Design::kHRdmaOptBlock: return "H-RDMA-Opt-Block";
    case Design::kHRdmaOptNonbB: return "H-RDMA-Opt-NonB-b";
    case Design::kHRdmaOptNonbI: return "H-RDMA-Opt-NonB-i";
  }
  return "?";
}

constexpr bool uses_rdma(Design design) noexcept {
  return design != Design::kIpoibMem;
}

constexpr bool is_hybrid(Design design) noexcept {
  return design == Design::kHRdmaDef || design == Design::kHRdmaOptBlock ||
         design == Design::kHRdmaOptNonbB || design == Design::kHRdmaOptNonbI;
}

constexpr bool async_server(Design design) noexcept {
  return design == Design::kHRdmaOptNonbB || design == Design::kHRdmaOptNonbI;
}

constexpr ApiMode api_mode(Design design) noexcept {
  switch (design) {
    case Design::kHRdmaOptNonbB: return ApiMode::kNonBlockingB;
    case Design::kHRdmaOptNonbI: return ApiMode::kNonBlockingI;
    default: return ApiMode::kBlocking;
  }
}

constexpr store::IoPolicy io_policy(Design design) noexcept {
  return design == Design::kHRdmaDef ? store::IoPolicy::kDirectAll
                                     : store::IoPolicy::kAdaptive;
}

inline FabricProfile fabric_profile(Design design) {
  return uses_rdma(design) ? FabricProfile::fdr_rdma() : FabricProfile::ipoib();
}

constexpr Design kAllDesigns[] = {
    Design::kIpoibMem,       Design::kRdmaMem,       Design::kHRdmaDef,
    Design::kHRdmaOptBlock,  Design::kHRdmaOptNonbB, Design::kHRdmaOptNonbI,
};

/// The three baseline designs of Fig. 1 / Fig. 2.
constexpr Design kBaselineDesigns[] = {
    Design::kIpoibMem,
    Design::kRdmaMem,
    Design::kHRdmaDef,
};

/// The four hybrid designs of Fig. 7 and Fig. 8(a).
constexpr Design kHybridDesigns[] = {
    Design::kHRdmaDef,
    Design::kHRdmaOptBlock,
    Design::kHRdmaOptNonbB,
    Design::kHRdmaOptNonbI,
};

}  // namespace hykv::core
