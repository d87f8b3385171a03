// Ablation: overload control (DESIGN.md §8) under an open-loop load sweep.
//
// Closed-loop benches cannot show overload collapse: the client's own
// waiting throttles the offered load to whatever the server sustains. This
// bench drives the async hybrid design OPEN loop -- requests are issued on
// a pacing clock regardless of completions -- at multiples of the measured
// saturation throughput, with a per-op client deadline. Work that completes
// after its deadline is goodput zero: the client already gave up.
//
//   admission off -- every request is admitted; past saturation the queue
//                    grows without bound, every op completes after its
//                    deadline, and goodput collapses toward zero even
//                    though the server stays 100% busy (the metastable
//                    congestion-collapse regime).
//   admission on  -- the server sheds excess at receipt (kBusy, ~zero
//                    cost), drops expired-on-arrival work (propagated
//                    deadlines), and the client's fail-fast window bounds
//                    its own queue. Admitted requests see bounded queueing,
//                    finish inside the deadline, and goodput holds at
//                    ~saturation no matter how far past it the offered
//                    load goes.
//
// The headline criterion (EXPERIMENTS.md): goodput with admission control
// >= goodput without, at every offered load >= 2x saturation.
//
// Self-calibrating: saturation and the deadline are measured, not assumed,
// so the sweep lands past the knee on any host. Emits BENCH_overload.json.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "client/client.hpp"
#include "common/random.hpp"
#include "core/testbed.hpp"

using namespace hykv;

namespace {

constexpr std::size_t kValueBytes = 4 << 10;
constexpr std::size_t kKeys = 2048;
constexpr unsigned kDrivers = 2;  ///< Open-loop driver threads (own client each).

core::TestBedConfig bed_config(bool admission, sim::Nanos deadline) {
  core::TestBedConfig cfg;
  cfg.design = core::Design::kHRdmaOptNonbI;
  cfg.num_servers = 1;
  cfg.total_server_memory = std::size_t{32} << 20;  // dataset RAM-resident
  cfg.ssd = SsdProfile::sata();
  cfg.server.processing_threads = 1;
  // A modelled per-op store cost pins the saturation point (~1/cost) far
  // below what the open-loop drivers can offer on any host -- the same
  // trick the shard ablation uses to reproduce contention on one core.
  cfg.server.manager.modelled_op_cost = sim::us(400);
  cfg.client_failover.eject_after = 1u << 30;  // overload is not death
  cfg.client_op_deadline = deadline;
  if (admission) {
    cfg.server.admission_queue_limit = 16;
    cfg.server.max_inflight = 64;
    cfg.client_max_pending_per_server = 128;
    cfg.client_propagate_deadline = deadline.count() > 0;
  }
  return cfg;
}

/// One op in flight for the open-loop driver. The Request and the value
/// buffer must both outlive completion (iset is zero-copy).
struct Slot {
  std::unique_ptr<client::Request> req;
  std::vector<char> value;
  sim::TimePoint issued{};
};

struct PointResult {
  double mult = 0.0;
  bool admission = false;
  double offered_kops = 0.0;
  double goodput_kops = 0.0;
  double shed_rate = 0.0;     ///< kBusy (server shed + client fail-fast).
  double timeout_rate = 0.0;  ///< Completed after the client gave up.
  double p99_us = 0.0;        ///< Of in-deadline successes, modelled us.
};

/// Drives `ops` isets at a fixed interarrival, reaping completions as they
/// land and cancelling anything past `deadline`. Returns {ok, busy,
/// timed_out, ok_latencies}.
struct DriverTally {
  std::uint64_t ok = 0;
  std::uint64_t busy = 0;
  std::uint64_t timed_out = 0;
  std::uint64_t other = 0;
  std::vector<double> ok_latency_us;  ///< Real (dilated) microseconds.
};

DriverTally drive(client::Client& client, std::uint64_t ops,
                  sim::Nanos interarrival, sim::Nanos deadline,
                  std::uint64_t seed) {
  DriverTally tally;
  std::vector<Slot> outstanding;
  std::uint64_t x = mix64(seed);

  const auto settle = [&](Slot& slot, StatusCode code) {
    if (code == StatusCode::kOk) {
      ++tally.ok;
      tally.ok_latency_us.push_back(
          static_cast<double>((sim::now() - slot.issued).count()) / 1e3);
    } else if (code == StatusCode::kBusy) {
      ++tally.busy;
    } else if (code == StatusCode::kTimedOut) {
      ++tally.timed_out;
    } else {
      ++tally.other;
    }
  };

  // Reap every completed slot; cancel (and count kTimedOut) expired ones.
  const auto reap = [&](bool drain) {
    for (auto it = outstanding.begin(); it != outstanding.end();) {
      StatusCode code = StatusCode::kOk;
      bool done = false;
      if (it->req->done()) {
        code = it->req->status();
        done = true;
      } else if (drain || sim::now() - it->issued >= deadline) {
        code = client.cancel(*it->req);  // real status if completion raced in
        done = true;
      }
      if (done) {
        settle(*it, code);
        it = outstanding.erase(it);
      } else {
        ++it;
      }
    }
  };

  const auto start = sim::now();
  for (std::uint64_t op = 0; op < ops; ++op) {
    // Open loop: the pacing clock, not completions, decides issue times.
    const auto next = start + interarrival * op;
    while (sim::now() < next) {
      reap(false);
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }

    x = mix64(x + op);
    Slot slot;
    slot.req = std::make_unique<client::Request>();
    slot.value = make_value(x % kKeys, kValueBytes);
    slot.issued = sim::now();
    const StatusCode issued =
        client.iset(make_key(x % kKeys), slot.value, 0, 0, *slot.req);
    if (issued == StatusCode::kOk) {
      outstanding.push_back(std::move(slot));
    } else if (issued == StatusCode::kBusy) {
      ++tally.busy;  // client fail-fast window: shed before queueing
    } else {
      ++tally.other;
    }
    reap(false);
  }

  // Drain: everything left either completed or is past caring about.
  while (!outstanding.empty()) {
    reap(sim::now() - outstanding.front().issued >= deadline);
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  return tally;
}

/// Closed-loop calibration: window-limited non-blocking sets measure the
/// design's saturation throughput and its loaded mean latency.
struct Calibration {
  double sat_kops = 0.0;   ///< Real (dilated) kops.
  sim::Nanos mean_latency{0};
};

Calibration calibrate(std::uint64_t ops) {
  core::TestBed bed(bed_config(false, sim::Nanos{0}));
  auto client = bed.make_client("calibrate");
  constexpr std::size_t kWindow = 16;

  std::vector<Slot> window;
  std::uint64_t x = mix64(0xCA11);
  double latency_sum_ns = 0.0;
  std::uint64_t completed = 0;
  const auto start = sim::now();
  for (std::uint64_t op = 0; op < ops; ++op) {
    if (window.size() >= kWindow) {
      client->wait(*window.front().req);
      latency_sum_ns +=
          static_cast<double>((sim::now() - window.front().issued).count());
      ++completed;
      window.erase(window.begin());
    }
    x = mix64(x + op);
    Slot slot;
    slot.req = std::make_unique<client::Request>();
    slot.value = make_value(x % kKeys, kValueBytes);
    slot.issued = sim::now();
    if (client->iset(make_key(x % kKeys), slot.value, 0, 0, *slot.req) ==
        StatusCode::kOk) {
      window.push_back(std::move(slot));
    }
  }
  for (auto& slot : window) {
    client->wait(*slot.req);
    latency_sum_ns += static_cast<double>((sim::now() - slot.issued).count());
    ++completed;
  }
  const double seconds =
      static_cast<double>((sim::now() - start).count()) / 1e9;

  Calibration cal;
  cal.sat_kops = static_cast<double>(ops) / seconds / 1e3;
  cal.mean_latency = sim::Nanos{static_cast<std::int64_t>(
      latency_sum_ns / static_cast<double>(std::max<std::uint64_t>(completed, 1)))};
  return cal;
}

PointResult run_point(double mult, bool admission, double sat_kops,
                      sim::Nanos deadline, std::uint64_t ops_per_driver) {
  core::TestBed bed(bed_config(admission, deadline));

  const double offered_ops_per_sec = mult * sat_kops * 1e3;
  const auto interarrival = sim::Nanos{static_cast<std::int64_t>(
      static_cast<double>(kDrivers) * 1e9 / offered_ops_per_sec)};

  std::vector<DriverTally> tallies(kDrivers);
  std::vector<std::thread> drivers;
  const auto start = sim::now();
  for (unsigned d = 0; d < kDrivers; ++d) {
    drivers.emplace_back([&, d] {
      auto client = bed.make_client("driver" + std::to_string(d));
      tallies[d] = drive(*client, ops_per_driver, interarrival, deadline,
                         0xBEEF + d);
    });
  }
  for (auto& t : drivers) t.join();
  const double seconds =
      static_cast<double>((sim::now() - start).count()) / 1e9;

  DriverTally total;
  for (const auto& t : tallies) {
    total.ok += t.ok;
    total.busy += t.busy;
    total.timed_out += t.timed_out;
    total.other += t.other;
    total.ok_latency_us.insert(total.ok_latency_us.end(),
                               t.ok_latency_us.begin(), t.ok_latency_us.end());
  }
  const double issued = static_cast<double>(total.ok + total.busy +
                                            total.timed_out + total.other);

  PointResult point;
  point.mult = mult;
  point.admission = admission;
  point.offered_kops = issued / seconds / 1e3 * bench::kTimeDilation;
  point.goodput_kops =
      static_cast<double>(total.ok) / seconds / 1e3 * bench::kTimeDilation;
  point.shed_rate = issued > 0 ? static_cast<double>(total.busy) / issued : 0;
  point.timeout_rate =
      issued > 0 ? static_cast<double>(total.timed_out) / issued : 0;
  if (!total.ok_latency_us.empty()) {
    std::sort(total.ok_latency_us.begin(), total.ok_latency_us.end());
    const std::size_t idx = static_cast<std::size_t>(
        0.99 * static_cast<double>(total.ok_latency_us.size() - 1));
    point.p99_us = total.ok_latency_us[idx] / bench::kTimeDilation;
  }
  return point;
}

}  // namespace

int main() {
  sim::init_precise_timing();
  bench::print_banner("Ablation: overload control (open-loop sweep)");
  // Past saturation the no-admission runs cancel ops by the hundred; the
  // per-cancel "stale response" warnings are that design working as
  // intended, not news. HYKV_LOG still overrides.
  if (std::getenv("HYKV_LOG") == nullptr) set_log_level(LogLevel::kError);

  const bool smoke = bench::smoke();
  const std::uint64_t cal_ops = smoke ? 64 : 384;
  const std::uint64_t ops_per_driver = smoke ? 24 : 192;

  const sim::ScopedTimeScale dilation(bench::kTimeDilation);

  const Calibration cal = calibrate(cal_ops);
  // Deadline: 4x the loaded closed-loop mean -- generous for bounded queues
  // (admission caps waiting at ~queue_limit service times), hopeless for the
  // unbounded queue past saturation.
  const auto deadline = sim::Nanos{cal.mean_latency.count() * 4};
  std::printf(
      "calibration: saturation %.2f kops, loaded mean latency %.0f us, "
      "deadline %.0f us (modelled)\n\n",
      cal.sat_kops * bench::kTimeDilation,
      static_cast<double>(cal.mean_latency.count()) / 1e3 /
          bench::kTimeDilation,
      static_cast<double>(deadline.count()) / 1e3 / bench::kTimeDilation);

  const double mults[] = {0.5, 1.0, 2.0, 4.0};
  std::vector<PointResult> points;
  std::printf("  %9s %10s %13s %13s %9s %9s %9s\n", "offered", "admission",
              "offered_kops", "goodput_kops", "shed%", "timeout%", "p99_us");
  for (const double mult : mults) {
    for (const bool admission : {false, true}) {
      const PointResult p =
          run_point(mult, admission, cal.sat_kops, deadline, ops_per_driver);
      points.push_back(p);
      std::printf("  %8.1fx %10s %13.2f %13.2f %8.1f%% %8.1f%% %9.0f\n",
                  p.mult, admission ? "on" : "off", p.offered_kops,
                  p.goodput_kops, 100.0 * p.shed_rate, 100.0 * p.timeout_rate,
                  p.p99_us);
      std::fflush(stdout);
    }
  }
  std::printf("\n");

  // Headline: past the knee (>=2x) admission must not lose goodput.
  double worst_ratio = 1e9;
  for (std::size_t i = 0; i + 1 < points.size(); i += 2) {
    const PointResult& off = points[i];
    const PointResult& on = points[i + 1];
    if (off.mult < 2.0) continue;
    const double ratio =
        off.goodput_kops > 0 ? on.goodput_kops / off.goodput_kops : 1e9;
    worst_ratio = std::min(worst_ratio, ratio);
    std::printf("headline: at %.1fx saturation, goodput on/off = %.2f/%.2f "
                "kops (%.2fx)\n",
                off.mult, on.goodput_kops, off.goodput_kops, ratio);
  }
  std::printf("\n");

  std::string json = "{\"bench\":\"overload\",\"smoke\":" +
                     std::string(smoke ? "true" : "false") +
                     ",\"saturation_kops\":" +
                     std::to_string(cal.sat_kops * bench::kTimeDilation) +
                     ",\"deadline_us\":" +
                     std::to_string(static_cast<double>(deadline.count()) /
                                    1e3 / bench::kTimeDilation) +
                     ",\"points\":[";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const PointResult& p = points[i];
    if (i != 0) json += ",";
    json += "{\"mult\":" + std::to_string(p.mult) +
            ",\"admission\":" + (p.admission ? "true" : "false") +
            ",\"offered_kops\":" + std::to_string(p.offered_kops) +
            ",\"goodput_kops\":" + std::to_string(p.goodput_kops) +
            ",\"shed_rate\":" + std::to_string(p.shed_rate) +
            ",\"timeout_rate\":" + std::to_string(p.timeout_rate) +
            ",\"p99_us\":" + std::to_string(p.p99_us) + "}";
  }
  json += "],\"worst_goodput_ratio_past_2x\":" + std::to_string(worst_ratio) +
          "}\n";

  bench::write_bench_json("BENCH_overload.json", json);
  return 0;
}
