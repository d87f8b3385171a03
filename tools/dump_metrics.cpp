// Emits every metric name hykv exports, one per line: the legacy `stats`
// rows, the `stats latency` rows, then the API-only counter families
// (client, fabric endpoint, SSD device) from their field lists. This is the
// machine-readable side of the docs contract -- scripts/check_metrics_docs.sh
// diffs this output against docs/METRICS.md so a counter can't ship
// undocumented (wired into ctest as `docs_metrics_consistency`).
#include <cstdio>
#include <string_view>

#include "client/client.hpp"
#include "common/counters.hpp"
#include "net/fabric.hpp"
#include "server/server.hpp"
#include "ssd/device.hpp"

namespace {

void print(std::string_view name) {
  std::printf("%.*s\n", static_cast<int>(name.size()), name.data());
}

template <typename Family>
void print_fields() {
  for (const std::string_view name : hykv::metrics::field_names<Family>()) {
    print(name);
  }
}

}  // namespace

int main() {
  for (const std::string_view name : hykv::server::stats_field_names()) {
    print(name);
  }
  for (const std::string& name : hykv::server::latency_field_names()) {
    print(name);
  }
  print_fields<hykv::client::ClientCounters>();
  print_fields<hykv::net::EndpointStats>();
  print_fields<hykv::ssd::DeviceStats>();
  return 0;
}
