// hykv end-to-end benchmark: one closed-loop workload against one
// core::TestBed, measured from outside the library.
//
//   hykv_bench --workload NAME --seed N --seconds S --trace 0|1
//              [--verify-seed M] [--setups K] [--commit ID] [--trace-out FILE]
//
// Everything runs at sim time scale 1.0 with no dilation, so host CPU on the
// message path stays in every number. Set-up (TestBed construction, preload
// at time scale 0, sync_storage) is repeated --setups times and timed; the
// last bed is measured. Each application thread owns one Client and waits on
// its own replies (closed loop).
//
// fits-small-blocking pins the whole process to one CPU. Its blocking round
// trip hands each op across four threads; spread over the cores of a shared
// VM, every hand-off waits on a cross-core wake-up, so its wall time
// measured the host's scheduler more than hykv (windows of one run swung
// 3x). On one CPU a hand-off is a context switch, so throughput is about
// one over the CPU the path costs per op.
//
// The loop runs a 10% warm-up, then `seconds` split into windows, then a
// drain of in-flight ops. --trace 0 reports the end-to-end metrics as the
// better decile over 40 windows: host noise moves a figure only when it
// slows more than nine windows in ten.
// --trace 1 alternates untraced and traced windows (4 of them) and reports
// the per-layer metrics: spans the benchmark records around its own client
// calls, plus the public counters and span histograms of net, server, store
// and ssd read before and after the loop.
//
// Every GET payload is checked against the versioned dataset generated from
// the seed (--verify-seed checks against another seed's dataset, which must
// fail). The last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/hash.hpp"
#include "common/histogram.hpp"
#include "common/metrics.hpp"
#include "common/random.hpp"
#include "common/sim_time.hpp"
#include "core/testbed.hpp"
#include "store/item.hpp"
#include "store/slab.hpp"

namespace {

using namespace hykv;
using Clock = std::chrono::steady_clock;

// ---- Workloads ------------------------------------------------------------

struct WorkloadSpec {
  std::string_view name;
  core::Design design;
  unsigned servers;
  std::size_t total_memory;
  double data_ratio;        ///< Stored footprint / cache RAM.
  std::size_t value_bytes;
  double read_fraction;
  bool zipf;                ///< Zipf 0.99, else uniform.
  unsigned threads;         ///< Application threads, one Client each.
  std::size_t window;       ///< Outstanding iset/iget per thread; 0 = blocking.
  sim::Nanos poll_compute;  ///< Compute between polls (non-blocking only).
  bool one_cpu;             ///< Pin the whole process to one CPU.
};

constexpr std::size_t kMiB = std::size_t{1} << 20;

constexpr WorkloadSpec kWorkloads[] = {
    {"fits-small-blocking", core::Design::kHRdmaOptBlock, 1, 16 * kMiB, 0.5,
     256, 0.95, true, 1, 0, sim::Nanos{0}, true},
    {"overflow-32k-nonblocking", core::Design::kHRdmaOptNonbI, 1, 64 * kMiB,
     1.5, 32 << 10, 0.5, false, 1, 64, sim::us(2), false},
    {"fits-4k-3clients", core::Design::kHRdmaOptBlock, 2, 32 * kMiB, 0.5,
     4 << 10, 0.9, true, 3, 0, sim::Nanos{0}, false},
};

constexpr std::size_t kKeyBytes = 20;  // "key-" + 16 hex digits

/// Writes key k into `out` ("key-%016x", like make_key()) reusing its buffer.
void format_key(std::string& out, std::uint64_t k) {
  out.assign("key-0000000000000000");
  for (std::size_t i = kKeyBytes; i > 4; --i, k >>= 4) {
    out[i - 1] = "0123456789abcdef"[k & 0xF];
  }
}

/// Keys whose stored footprint (slab chunk + page waste) is `ratio` x RAM,
/// with 2% headroom so "fits" is not knife-edge (bench/bench_util.hpp rule).
std::uint64_t key_count(const WorkloadSpec& w) {
  const store::SlabAllocator::Config slab_cfg;
  const std::size_t footprint = store::slab_item_footprint(
      slab_cfg, store::item_total_size(kKeyBytes, w.value_bytes));
  return static_cast<std::uint64_t>(w.data_ratio * 0.98 *
                                    static_cast<double>(w.total_memory) /
                                    static_cast<double>(footprint));
}

// ---- Versioned dataset -----------------------------------------------------

/// The value of (key, version) is a slice of a seed-derived random pool at a
/// seed/key/version-derived offset. Slices are immutable for the life of the
/// process, so zero-copy iset may read them at any later time.
class Dataset {
 public:
  Dataset(std::uint64_t seed, std::size_t value_bytes)
      : seed_(mix64(seed ^ 0xDA7A5E7ULL)),
        value_bytes_(value_bytes),
        pool_(kPoolBytes + value_bytes) {
    Rng rng(seed_);
    rng.fill(pool_.data(), pool_.size());
  }

  [[nodiscard]] std::span<const char> value(std::uint64_t key,
                                            std::uint32_t version) const {
    const std::uint64_t h = mix64(seed_ ^ mix64((key << 24) ^ version));
    const std::size_t offset = (h % kPoolBytes) & ~std::size_t{7};
    return {pool_.data() + offset, value_bytes_};
  }

 private:
  static constexpr std::size_t kPoolBytes = 8 * kMiB;
  std::uint64_t seed_;
  std::size_t value_bytes_;
  std::vector<char> pool_;
};

/// Per-key version bookkeeping. Each key has one writer thread, which bumps
/// `issued` before sending a SET and publishes `done` when it succeeds. A GET
/// issued when done == lo and completed when issued == hi must return one of
/// the versions lo..hi.
struct Versions {
  explicit Versions(std::uint64_t keys) : issued(keys), done(keys) {}
  std::vector<std::atomic<std::uint32_t>> issued;
  std::vector<std::atomic<std::uint32_t>> done;
};

// ---- Timeline and per-thread records --------------------------------------

constexpr unsigned kMaxWindows = 40;

struct Timeline {
  Clock::time_point start;          ///< Loop start (warm-up begins).
  Clock::time_point measure_start;  ///< Windows begin.
  Clock::time_point end;            ///< No op is issued at or after this.
  Clock::duration window_len{};
  unsigned windows = 0;
  bool trace = false;

  /// Window an instant falls in, or -1 outside the measured interval.
  [[nodiscard]] int window_of(Clock::time_point t) const {
    if (t < measure_start || t >= end) return -1;
    const auto w = (t - measure_start) / window_len;
    return static_cast<int>(std::min<std::int64_t>(w, windows - 1));
  }
  /// --trace 1 alternates untraced and traced windows.
  [[nodiscard]] bool traced(int window) const {
    return trace && window >= 0 && window % 2 == 1;
  }
};

struct OpSample {
  std::uint32_t latency_ns = 0;
  bool is_get = false;
};

/// Latency samples kept per window and thread: a uniform reservoir of the
/// window's ops. Allocated and touched up front, so the benchmark's own
/// memory, and with it rss_mb, does not grow with throughput.
constexpr std::size_t kReservoir = std::size_t{1} << 15;

enum class SpanKind : std::uint8_t { kGetIssue, kSetIssue, kTest };

/// One client call the benchmark timed (traced windows only).
struct CallSpan {
  std::uint64_t op = 0;        ///< Per-thread op index.
  std::int64_t start_ns = 0;   ///< Since Timeline::start.
  std::uint32_t dur_ns = 0;
  SpanKind kind = SpanKind::kTest;
};

constexpr std::size_t kSpanCap = std::size_t{1} << 20;  // per thread

std::uint32_t clamp_ns(Clock::duration d) {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
  return static_cast<std::uint32_t>(std::clamp<std::int64_t>(ns, 0, UINT32_MAX));
}

struct ThreadRecord {
  /// Window w's reservoir is samples[w * kReservoir ...], holding the first
  /// min(window_ops[w], kReservoir) entries.
  std::vector<OpSample> samples;
  std::uint64_t attempted = 0;
  std::uint64_t errors = 0;      ///< Any non-ok status not counted below.
  std::uint64_t busy = 0;        ///< kBusy.
  std::uint64_t timeouts = 0;    ///< kTimedOut.
  std::uint64_t mismatches = 0;  ///< GET payload matched no allowed version.
  std::uint64_t lost = 0;        ///< kNotFound on a preloaded key.
  std::uint64_t sets = 0;        ///< SETs issued (user payload bytes / value).
  std::array<std::uint64_t, kMaxWindows> window_ops{};
  std::array<std::uint64_t, kMaxWindows> window_call_ns{};  ///< Inside client.
  // Traced windows only, by completion window.
  std::uint64_t traced_gets = 0, traced_sets = 0, traced_tests = 0;
  std::uint64_t traced_get_call_ns = 0, traced_set_call_ns = 0;
  std::uint64_t traced_get_latency_ns = 0;
  std::vector<CallSpan> spans;
  std::uint64_t spans_dropped = 0;

  [[nodiscard]] std::uint64_t failed() const {
    return errors + busy + timeouts + mismatches + lost;
  }
};

/// Everything one application thread needs; shared pieces are const or
/// atomic.
struct LoopContext {
  const WorkloadSpec* spec = nullptr;
  const Timeline* timeline = nullptr;
  const Dataset* dataset = nullptr;  ///< Values written.
  const Dataset* expect = nullptr;   ///< Values GETs are checked against.
  Versions* versions = nullptr;
  std::uint64_t keys = 0;
  std::uint64_t seed = 0;
};

class KeyPicker {
 public:
  KeyPicker(const WorkloadSpec& spec, std::uint64_t keys, std::uint64_t seed)
      : zipf_(spec.zipf), uniform_(keys, seed), scrambled_(keys, 0.99, seed) {}
  std::uint64_t next() { return zipf_ ? scrambled_.next() : uniform_.next(); }

 private:
  bool zipf_;
  UniformGenerator uniform_;
  ScrambledZipfGenerator scrambled_;
};

class AppThread {
 public:
  AppThread(const LoopContext& ctx, unsigned tid, client::Client& client,
            ThreadRecord& rec)
      : ctx_(ctx),
        spec_(*ctx.spec),
        tl_(*ctx.timeline),
        tid_(tid),
        client_(client),
        rec_(rec),
        picker_(spec_, ctx.keys, mix64(ctx.seed + 1 + tid)),
        mix_(mix64(ctx.seed ^ (0x5EEDULL + tid))),
        reservoir_rng_(mix64(ctx.seed ^ (0x5A3B1EULL + tid))) {
    rec_.samples.assign(tl_.windows * kReservoir, OpSample{});
    if (tl_.trace) rec_.spans.reserve(kSpanCap);
  }

  void run() {
    std::this_thread::sleep_until(tl_.start);
    if (spec_.window == 0) {
      run_blocking();
    } else {
      run_nonblocking();
    }
  }

 private:
  struct Slot {
    client::Request req;
    std::string key;
    std::vector<char> dest;
    std::uint64_t key_index = 0;
    std::uint64_t op = 0;
    std::uint32_t lo = 0;       ///< GET: done version at issue.
    std::uint32_t version = 0;  ///< SET: version written.
    bool is_get = false;
    bool in_use = false;
    Clock::time_point issued{};
    std::uint64_t call_ns = 0;  ///< Issue + timed tests (traced).
    std::uint64_t tests = 0;
  };

  /// SETs go only to keys this thread owns (key % threads == tid), so every
  /// key has a single writer and versions are applied in order.
  [[nodiscard]] std::uint64_t owned(std::uint64_t k) const {
    const unsigned n = spec_.threads;
    std::uint64_t o = k - k % n + tid_;
    if (o >= ctx_.keys) o -= n;
    return o;
  }

  void span(std::uint64_t op, Clock::time_point t0, Clock::time_point t1,
            SpanKind kind) {
    if (rec_.spans.size() >= kSpanCap) {
      ++rec_.spans_dropped;
      return;
    }
    rec_.spans.push_back(CallSpan{
        op, std::chrono::duration_cast<std::chrono::nanoseconds>(t0 - tl_.start).count(),
        clamp_ns(t1 - t0), kind});
  }

  /// Classifies a finished op; GET payloads are checked against versions
  /// lo..hi of the expected dataset.
  void check(bool is_get, StatusCode code, std::uint64_t k, std::uint32_t lo,
             std::span<const char> got) {
    if (code == StatusCode::kOk) {
      if (!is_get) return;
      const std::uint32_t hi =
          ctx_.versions->issued[k].load(std::memory_order_acquire);
      for (std::uint32_t v = lo; v <= hi; ++v) {
        if (std::ranges::equal(got, ctx_.expect->value(k, v))) return;
      }
      ++rec_.mismatches;
    } else if (code == StatusCode::kNotFound) {
      ++rec_.lost;  // every key was preloaded
    } else if (code == StatusCode::kBusy) {
      ++rec_.busy;
    } else if (code == StatusCode::kTimedOut) {
      ++rec_.timeouts;
    } else {
      ++rec_.errors;
    }
  }

  /// Window bookkeeping for an op completed at `done`.
  void record(bool is_get, Clock::time_point issued, Clock::time_point done,
              std::uint64_t call_ns, std::uint64_t tests) {
    const int w = tl_.window_of(done);
    if (w < 0) return;
    const auto latency = clamp_ns(done - issued);
    // Reservoir sampling (Algorithm R): op n of the window replaces a random
    // entry with probability kReservoir / (n + 1).
    const std::uint64_t n = rec_.window_ops[static_cast<std::size_t>(w)]++;
    const std::uint64_t slot = n < kReservoir ? n : reservoir_rng_.next_below(n + 1);
    if (slot < kReservoir) {
      rec_.samples[static_cast<std::size_t>(w) * kReservoir + slot] =
          OpSample{latency, is_get};
    }
    rec_.window_call_ns[static_cast<std::size_t>(w)] += call_ns;
    if (!tl_.traced(w)) return;
    rec_.traced_tests += tests;
    if (is_get) {
      ++rec_.traced_gets;
      rec_.traced_get_call_ns += call_ns;
      rec_.traced_get_latency_ns += latency;
    } else {
      ++rec_.traced_sets;
      rec_.traced_set_call_ns += call_ns;
    }
  }

  void run_blocking() {
    std::vector<char> out;
    out.reserve(spec_.value_bytes);
    std::string key;
    auto& versions = *ctx_.versions;
    for (std::uint64_t op = 0;; ++op) {
      if (Clock::now() >= tl_.end) break;
      std::uint64_t k = picker_.next();
      const bool is_get = mix_.next_double() < spec_.read_fraction;
      if (!is_get) k = owned(k);
      format_key(key, k);
      ++rec_.attempted;
      StatusCode code;
      std::uint32_t lo = 0;
      Clock::time_point t0;
      Clock::time_point t1;
      if (is_get) {
        lo = versions.done[k].load(std::memory_order_acquire);
        t0 = Clock::now();
        code = client_.get(key, out);
        t1 = Clock::now();
      } else {
        ++rec_.sets;
        const std::uint32_t v =
            versions.issued[k].load(std::memory_order_relaxed) + 1;
        versions.issued[k].store(v, std::memory_order_release);
        t0 = Clock::now();
        code = client_.set(key, ctx_.dataset->value(k, v));
        t1 = Clock::now();
        if (code == StatusCode::kOk) {
          versions.done[k].store(v, std::memory_order_release);
        }
      }
      check(is_get, code, k, lo, out);
      if (tl_.traced(tl_.window_of(t1))) {
        span(op, t0, t1, is_get ? SpanKind::kGetIssue : SpanKind::kSetIssue);
      }
      const auto call_ns = clamp_ns(t1 - t0);
      record(is_get, t0, t1, call_ns, 0);
    }
  }

  void run_nonblocking() {
    auto& versions = *ctx_.versions;
    std::vector<std::unique_ptr<Slot>> slots;
    for (std::size_t i = 0; i < spec_.window; ++i) {
      slots.push_back(std::make_unique<Slot>());
      slots.back()->dest.resize(spec_.value_bytes);
    }
    // In-flight ops per key: a GET never overlaps a SET of the same key, so
    // its expected version is exact.
    std::vector<std::uint16_t> gets_inflight(ctx_.keys, 0);
    std::vector<std::uint8_t> set_inflight(ctx_.keys, 0);

    auto complete = [&](Slot& s, Clock::time_point done) {
      const StatusCode code = s.req.status();
      if (s.is_get) {
        --gets_inflight[s.key_index];
        check(true, code, s.key_index, s.lo,
              {s.dest.data(), std::min(s.req.value_length(), s.dest.size())});
      } else {
        set_inflight[s.key_index] = 0;
        if (code == StatusCode::kOk) {
          versions.done[s.key_index].store(s.version, std::memory_order_release);
        }
        check(false, code, s.key_index, 0, {});
      }
      record(s.is_get, s.issued, done, s.call_ns, s.tests);
      s.in_use = false;
    };

    // One memcached_test pass over every in-flight slot.
    auto poll = [&]() -> bool {
      bool reaped = false;
      const bool timed = tl_.traced(tl_.window_of(Clock::now()));
      for (auto& sp : slots) {
        Slot& s = *sp;
        if (!s.in_use) continue;
        bool done = false;
        Clock::time_point t1;
        if (timed) {
          const auto t0 = Clock::now();
          done = client_.test(s.req);
          t1 = Clock::now();
          span(s.op, t0, t1, SpanKind::kTest);
          s.call_ns += clamp_ns(t1 - t0);
          ++s.tests;
        } else {
          done = client_.test(s.req);
          if (done) t1 = Clock::now();
        }
        if (done) {
          complete(s, t1);
          reaped = true;
        }
      }
      return reaped;
    };
    auto progress = [&] {
      if (!poll()) sim::advance_coarse(spec_.poll_compute);
    };

    for (std::uint64_t op = 0;; ++op) {
      if (Clock::now() >= tl_.end) break;
      Slot* slot = nullptr;
      while (slot == nullptr) {
        for (auto& sp : slots) {
          if (!sp->in_use) {
            slot = sp.get();
            break;
          }
        }
        if (slot == nullptr) progress();
      }
      std::uint64_t k = picker_.next();
      const bool is_get = mix_.next_double() < spec_.read_fraction;
      if (!is_get) k = owned(k);
      while (set_inflight[k] != 0 || (!is_get && gets_inflight[k] != 0)) {
        progress();
      }
      Slot& s = *slot;
      format_key(s.key, k);
      s.key_index = k;
      s.op = op;
      s.is_get = is_get;
      s.tests = 0;
      s.in_use = true;
      ++rec_.attempted;
      StatusCode code;
      if (is_get) {
        ++gets_inflight[k];
        s.lo = versions.done[k].load(std::memory_order_acquire);
        s.issued = Clock::now();
        code = client_.iget(s.key, s.dest, s.req);
      } else {
        ++rec_.sets;
        set_inflight[k] = 1;
        s.version = versions.issued[k].load(std::memory_order_relaxed) + 1;
        versions.issued[k].store(s.version, std::memory_order_release);
        s.issued = Clock::now();
        code = client_.iset(s.key, ctx_.dataset->value(k, s.version), 0, 0,
                            s.req);
      }
      const auto t1 = Clock::now();
      s.call_ns = clamp_ns(t1 - s.issued);
      if (tl_.traced(tl_.window_of(t1))) {
        span(op, s.issued, t1,
             is_get ? SpanKind::kGetIssue : SpanKind::kSetIssue);
      }
      if (code != StatusCode::kOk) {
        // Refused at issue: the request never entered the engine.
        if (is_get) {
          --gets_inflight[k];
        } else {
          set_inflight[k] = 0;
        }
        check(is_get, code, k, 0, {});
        s.in_use = false;
      }
    }
    // Drain (Listing 2 pattern): compute + test until every op completed.
    while (std::ranges::any_of(slots, [](const auto& sp) { return sp->in_use; })) {
      progress();
    }
  }

  const LoopContext& ctx_;
  const WorkloadSpec& spec_;
  const Timeline& tl_;
  unsigned tid_;
  client::Client& client_;
  ThreadRecord& rec_;
  KeyPicker picker_;
  Rng mix_;
  Rng reservoir_rng_;
};

// ---- Layer snapshots ---------------------------------------------------------

/// Layer counters summed over every server and application client.
struct Snapshot {
  net::EndpointStats net;
  std::uint64_t net_bytes = 0;
  server::ServerCounters server;
  store::ManagerStats store;
  ssd::DeviceStats ssd;
  client::ClientCounters client;
};

Snapshot take_snapshot(core::TestBed& bed,
                       const std::vector<std::unique_ptr<client::Client>>& clients) {
  Snapshot s;
  std::vector<net::EndpointId> ids;
  for (std::size_t i = 0; i < bed.num_servers(); ++i) {
    ids.push_back(bed.server(i).endpoint_id());
    const auto c = bed.server(i).counters();
    s.server.requests += c.requests;
    s.server.malformed += c.malformed;
    s.server.shed += c.shed;
  }
  for (const auto& c : clients) {
    ids.push_back(c->endpoint_id());
    const auto cc = c->counters();
    s.client.retries += cc.retries;
    s.client.timeouts += cc.timeouts;
    s.client.busy += cc.busy;
  }
  for (const auto id : ids) {
    const auto ep = bed.fabric().endpoint(id);
    if (ep == nullptr) continue;
    const auto st = ep->stats();
    s.net.sends += st.sends;
    s.net.registrations += st.registrations;
    s.net.registration_hits += st.registration_hits;
  }
  s.net_bytes = bed.fabric().total_bytes();
  s.store = bed.store_stats();
  s.ssd = bed.device_stats();
  return s;
}

LatencyHistogram merged_span(core::TestBed& bed, metrics::Span span) {
  LatencyHistogram h;
  for (std::size_t i = 0; i < bed.num_servers(); ++i) {
    if (const auto* rec = bed.server(i).latency(); rec != nullptr) {
      h.merge(rec->span_histogram(span));
    }
  }
  return h;
}

// ---- Small helpers -----------------------------------------------------------

/// Pins the calling thread, and every thread it starts later, to the CPU it
/// runs on now. Returns that CPU, or -1 when the process stays unpinned.
int pin_to_current_cpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return -1;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0 ? cpu : -1;
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linearly interpolated quantile q in [0, 1]; 0.5 is the median.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::ranges::sort(v);
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// Nearest-rank percentile in microseconds (reorders `v`).
double percentile_us(std::vector<std::uint32_t>& v, double p) {
  if (v.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(p * static_cast<double>(v.size())))) - 1;
  std::ranges::nth_element(v, v.begin() + static_cast<std::ptrdiff_t>(rank));
  return static_cast<double>(v[rank]) / 1e3;
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double d(std::uint64_t v) { return static_cast<double>(v); }

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  std::optional<std::uint64_t> verify_seed;
  double seconds = 10.0;
  bool trace = false;
  unsigned setups = 9;
  std::string commit = "unknown";
  std::string trace_out;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag(argv[i]);
    const char* v = argv[i + 1];
    if (flag == "--workload") a.workload = v;
    else if (flag == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (flag == "--verify-seed") a.verify_seed = std::strtoull(v, nullptr, 10);
    else if (flag == "--seconds") a.seconds = std::atof(v);
    else if (flag == "--trace") a.trace = std::atoi(v) != 0;
    else if (flag == "--setups") a.setups = static_cast<unsigned>(std::max(1, std::atoi(v)));
    else if (flag == "--commit") a.commit = v;
    else if (flag == "--trace-out") a.trace_out = v;
    else return std::nullopt;
  }
  if (argc % 2 == 0 || a.workload.empty() || !(a.seconds > 0.0)) return std::nullopt;
  return a;
}

void write_spans(const std::string& path, const std::vector<ThreadRecord>& recs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  static constexpr const char* kKinds[] = {"get_issue", "set_issue", "test"};
  std::fprintf(f, "thread,op,call,start_ns,dur_ns\n");
  for (std::size_t t = 0; t < recs.size(); ++t) {
    for (const auto& s : recs[t].spans) {
      std::fprintf(f, "%zu,%llu,%s,%lld,%u\n", t,
                   static_cast<unsigned long long>(s.op),
                   kKinds[static_cast<int>(s.kind)],
                   static_cast<long long>(s.start_ns), s.dur_ns);
    }
  }
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = parse_args(argc, argv);
  if (!args.has_value()) {
    std::fprintf(stderr,
                 "usage: hykv_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--verify-seed M] [--setups K] [--commit ID] "
                 "[--trace-out FILE]\n");
    return 2;
  }
  const WorkloadSpec* spec = nullptr;
  for (const auto& w : kWorkloads) {
    if (w.name == args->workload) spec = &w;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args->workload.c_str());
    return 2;
  }

  // Before any thread starts, so every thread inherits the mask.
  const int pinned_cpu = spec->one_cpu ? pin_to_current_cpu() : -1;
  sim::init_precise_timing();
  sim::set_time_scale(1.0);
  const std::uint64_t keys = key_count(*spec);
  const Dataset dataset(args->seed, spec->value_bytes);
  std::optional<Dataset> other;
  if (args->verify_seed.has_value() && *args->verify_seed != args->seed) {
    other.emplace(*args->verify_seed, spec->value_bytes);
  }
  const Dataset& expect = other.has_value() ? *other : dataset;
  Versions versions(keys);

  std::printf("# meta nproc=%u build=%s time_scale=%.1f commit=%s pinned_cpu=%d\n",
              std::thread::hardware_concurrency(), HYKV_BENCH_BUILD_TYPE,
              sim::time_scale(), args->commit.c_str(), pinned_cpu);
  std::printf("# workload=%s design=%s servers=%u ram=%zuMiB keys=%llu "
              "value=%zuB read=%.2f dist=%s threads=%u window=%zu seed=%llu "
              "trace=%d\n",
              spec->name.data(), std::string(core::to_string(spec->design)).c_str(),
              spec->servers, spec->total_memory / kMiB,
              static_cast<unsigned long long>(keys), spec->value_bytes,
              spec->read_fraction, spec->zipf ? "zipf0.99" : "uniform",
              spec->threads, spec->window,
              static_cast<unsigned long long>(args->seed), args->trace ? 1 : 0);

  // ---- Set-up, repeated; the last bed is measured ----
  core::TestBedConfig cfg;
  cfg.design = spec->design;
  cfg.num_servers = spec->servers;
  cfg.total_server_memory = spec->total_memory;
  cfg.ssd = SsdProfile::sata();
  std::unique_ptr<core::TestBed> bed;
  std::vector<double> setup_times;
  std::uint64_t preload_failures = 0;
  for (unsigned i = 0; i < args->setups; ++i) {
    bed.reset();
    // Hand the torn-down bed's memory back to the OS, so peak RSS reflects
    // one bed rather than allocator leftovers from earlier set-ups.
    malloc_trim(0);
    const auto t0 = Clock::now();
    bed = std::make_unique<core::TestBed>(cfg);
    {
      const sim::ScopedTimeScale preload_scale(0.0);
      auto loader = bed->make_client("preload");
      for (std::uint64_t k = 0; k < keys; ++k) {
        if (loader->set(make_key(k), dataset.value(k, 0)) != StatusCode::kOk) {
          ++preload_failures;
        }
      }
      bed->sync_storage();
    }
    setup_times.push_back(seconds_since(t0));
  }

  std::vector<std::unique_ptr<client::Client>> clients;
  for (unsigned t = 0; t < spec->threads; ++t) {
    clients.push_back(bed->make_client("app-" + std::to_string(t)));
  }
  bed->reset_metrics();
  const Snapshot before = take_snapshot(*bed, clients);

  // ---- Measured loop ----
  Timeline tl;
  tl.trace = args->trace;
  tl.windows = args->trace ? 4 : kMaxWindows;
  const auto measure = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(args->seconds));
  tl.window_len = measure / tl.windows;
  tl.start = Clock::now() + std::chrono::milliseconds(20);
  tl.measure_start = tl.start + measure / 10;
  tl.end = tl.measure_start + tl.window_len * tl.windows;

  LoopContext ctx;
  ctx.spec = spec;
  ctx.timeline = &tl;
  ctx.dataset = &dataset;
  ctx.expect = &expect;
  ctx.versions = &versions;
  ctx.keys = keys;
  ctx.seed = args->seed;

  std::vector<ThreadRecord> recs(spec->threads);
  std::vector<double> cpu_marks;
  {
    std::vector<std::jthread> threads;
    for (unsigned t = 0; t < spec->threads; ++t) {
      threads.emplace_back([&, t] {
        AppThread app(ctx, t, *clients[t], recs[t]);
        app.run();
      });
    }
    for (unsigned w = 0; w <= tl.windows; ++w) {
      std::this_thread::sleep_until(tl.measure_start + tl.window_len * w);
      cpu_marks.push_back(process_cpu_s());
    }
  }
  const double loop_s =
      std::chrono::duration<double>(Clock::now() - tl.start).count();
  const Snapshot after = take_snapshot(*bed, clients);

  // ---- Correctness gate ----
  std::uint64_t attempted = 0;
  std::uint64_t op_failures = 0;
  std::uint64_t sets_issued = 0;
  for (const auto& r : recs) {
    attempted += r.attempted;
    op_failures += r.failed();
    sets_issued += r.sets;
  }
  std::vector<std::string> violations;
  if (preload_failures != 0) {
    violations.push_back("preload failures: " + std::to_string(preload_failures));
  }
  for (std::size_t i = 0; i < bed->num_servers(); ++i) {
    const auto c = bed->server(i).counters();
    if (c.requests != c.ops_sum()) {
      violations.push_back("server " + std::to_string(i) + ": requests " +
                           std::to_string(c.requests) + " != ops_sum " +
                           std::to_string(c.ops_sum()));
    }
  }
  const std::uint64_t served = after.server.requests - before.server.requests;
  if (served != attempted) {
    violations.push_back("server requests " + std::to_string(served) +
                         " != attempted ops " + std::to_string(attempted));
  }
  for (std::size_t t = 0; t < clients.size(); ++t) {
    if (clients[t]->pending_requests() != 0) {
      violations.push_back("client " + std::to_string(t) + ": " +
                           std::to_string(clients[t]->pending_requests()) +
                           " pending requests");
    }
    if (clients[t]->free_bounce_slots() != cfg.client_bounce_slots) {
      violations.push_back("client " + std::to_string(t) + ": bounce slots " +
                           std::to_string(clients[t]->free_bounce_slots()) +
                           " free of " + std::to_string(cfg.client_bounce_slots));
    }
  }
  const auto store_now = bed->store_stats();
  if (store_now.dropped_evictions != 0 || store_now.checksum_failures != 0) {
    violations.push_back("store: dropped_evictions " +
                         std::to_string(store_now.dropped_evictions) +
                         " checksum_failures " +
                         std::to_string(store_now.checksum_failures));
  }
  for (const auto& v : violations) std::printf("# GATE FAIL %s\n", v.c_str());
  const std::uint64_t failed = op_failures + violations.size();

  std::printf("# ops attempted=%llu sets=%llu failed=%llu loop_s=%.3f\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(sets_issued),
              static_cast<unsigned long long>(failed), loop_s);
  for (std::size_t t = 0; t < recs.size(); ++t) {
    const auto& r = recs[t];
    std::printf("# thread %zu errors=%llu busy=%llu timeouts=%llu "
                "mismatches=%llu lost=%llu\n",
                t, static_cast<unsigned long long>(r.errors),
                static_cast<unsigned long long>(r.busy),
                static_cast<unsigned long long>(r.timeouts),
                static_cast<unsigned long long>(r.mismatches),
                static_cast<unsigned long long>(r.lost));
  }

  // ---- Per-window end-to-end figures ----
  const double window_s = std::chrono::duration<double>(tl.window_len).count();
  struct WindowFigures {
    double ops = 0, tput = 0, cpu_us = 0, overlap = 0;
    double get_p50 = 0, get_p90 = 0, get_p99 = 0;
    double set_p50 = 0, set_p90 = 0, set_p99 = 0;
    std::size_t gets = 0, sets = 0;
  };
  std::vector<WindowFigures> wins(tl.windows);
  for (unsigned w = 0; w < tl.windows; ++w) {
    std::vector<std::uint32_t> get_ns;
    std::vector<std::uint32_t> set_ns;
    std::uint64_t ops = 0;
    std::uint64_t call_ns = 0;
    for (const auto& r : recs) {
      ops += r.window_ops[w];
      call_ns += r.window_call_ns[w];
      const auto kept = std::min<std::uint64_t>(r.window_ops[w], kReservoir);
      for (std::size_t i = 0; i < kept; ++i) {
        const auto& s = r.samples[w * kReservoir + i];
        (s.is_get ? get_ns : set_ns).push_back(s.latency_ns);
      }
    }
    auto& f = wins[w];
    f.ops = d(ops);
    f.tput = d(ops) / window_s;
    f.cpu_us = ratio((cpu_marks[w + 1] - cpu_marks[w]) * 1e6, d(ops));
    f.overlap = 100.0 * (1.0 - d(call_ns) / (window_s * 1e9 * spec->threads));
    f.gets = get_ns.size();
    f.sets = set_ns.size();
    f.get_p50 = percentile_us(get_ns, 0.50);
    f.get_p90 = percentile_us(get_ns, 0.90);
    f.get_p99 = percentile_us(get_ns, 0.99);
    f.set_p50 = percentile_us(set_ns, 0.50);
    f.set_p90 = percentile_us(set_ns, 0.90);
    f.set_p99 = percentile_us(set_ns, 0.99);
    std::printf("# window %u%s ops=%.0f get_samples=%zu set_samples=%zu tput=%.1f/s "
                "cpu=%.2fus/op overlap=%.2f%% get_p50=%.2f get_p90=%.2f "
                "get_p99=%.2f set_p50=%.2f set_p90=%.2f set_p99=%.2f\n",
                w, tl.traced(static_cast<int>(w)) ? " traced" : "", f.ops,
                f.gets, f.sets, f.tput, f.cpu_us, f.overlap, f.get_p50,
                f.get_p90, f.get_p99, f.set_p50, f.set_p90, f.set_p99);
  }
  // Quantile of one figure over the windows; `traced` picks the traced (1),
  // untraced (0) or all (-1) windows.
  auto over_windows = [&](double WindowFigures::*field, double q, int traced) {
    std::vector<double> v;
    for (unsigned w = 0; w < tl.windows; ++w) {
      const int t = tl.traced(static_cast<int>(w)) ? 1 : 0;
      if (traced < 0 || traced == t) v.push_back(wins[w].*field);
    }
    return quantile(std::move(v), q);
  };

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;

  std::vector<Metric> metrics;
  if (!args->trace) {
    // Each figure is its better decile over the windows. The host is
    // shared and interference only ever slows a window down, for seconds at
    // a time, so the quieter windows show the system's own cost; a
    // regression of the system moves every window.
    metrics = {
        {"throughput_ops", over_windows(&WindowFigures::tput, 0.9, -1), "ops/s"},
        {"get_p50_us", over_windows(&WindowFigures::get_p50, 0.1, -1), "us"},
        {"set_p50_us", over_windows(&WindowFigures::set_p50, 0.1, -1), "us"},
        {"cpu_us_per_op", over_windows(&WindowFigures::cpu_us, 0.1, -1), "us"},
        {"setup_s", quantile(setup_times, 0.5), "s"},
        {"rss_mb", rss_mb, "MB"},
    };
    // Tails swing too much on a shared host to bound; print them unbounded.
    std::printf("# tails get_p90=%.3f get_p99=%.3f set_p90=%.3f set_p99=%.3f us\n",
                over_windows(&WindowFigures::get_p90, 0.25, -1),
                over_windows(&WindowFigures::get_p99, 0.25, -1),
                over_windows(&WindowFigures::set_p90, 0.25, -1),
                over_windows(&WindowFigures::set_p99, 0.25, -1));
  } else {
    // Counters cover the whole loop (warm-up, windows, drain); so does `ops`.
    const double ops = d(attempted);
    const double sets_bytes = d(sets_issued) * d(spec->value_bytes);
    std::uint64_t tg = 0, ts = 0, tt = 0, gcall = 0, scall = 0, glat = 0;
    for (const auto& r : recs) {
      tg += r.traced_gets;
      ts += r.traced_sets;
      tt += r.traced_tests;
      gcall += r.traced_get_call_ns;
      scall += r.traced_set_call_ns;
      glat += r.traced_get_latency_ns;
    }
    const double get_call_us = ratio(d(gcall), d(tg)) / 1e3;
    const double get_latency_us = ratio(d(glat), d(tg)) / 1e3;
    const auto fabric = merged_span(*bed, metrics::Span::kFabricTransfer);
    const auto admission = merged_span(*bed, metrics::Span::kAdmissionWait);
    const auto store_phase = merged_span(*bed, metrics::Span::kStorePhase);
    const auto response = merged_span(*bed, metrics::Span::kResponse);
    const auto opt_read = merged_span(*bed, metrics::Span::kOptimisticRead);
    const auto locked_read = merged_span(*bed, metrics::Span::kLockedRead);
    const auto flush = merged_span(*bed, metrics::Span::kSsdFlush);
    const double attributed_us = fabric.mean_us() + admission.mean_us() +
                                 store_phase.mean_us() + response.mean_us();
    const auto pct_us = [](const LatencyHistogram& h, double p) {
      return static_cast<double>(h.percentile_ns(p)) / 1e3;
    };
    const double tput_untraced = over_windows(&WindowFigures::tput, 0.5, 0);
    const double tput_traced = over_windows(&WindowFigures::tput, 0.5, 1);

    const auto& n0 = before.net;
    const auto& n1 = after.net;
    const auto& st0 = before.store;
    const auto& st1 = after.store;
    const double lookups = d((st1.ram_hits - st0.ram_hits) +
                             (st1.ssd_hits - st0.ssd_hits) +
                             (st1.misses - st0.misses));
    const double ssd_hits = d(st1.ssd_hits - st0.ssd_hits);
    const double reg_total = d((n1.registrations - n0.registrations) +
                               (n1.registration_hits - n0.registration_hits));
    const double ssd_busy_ns = d(after.ssd.busy_ns - before.ssd.busy_ns);
    metrics = {
        {"client.get_call_us", get_call_us, "us"},
        {"client.set_call_us", ratio(d(scall), d(ts)) / 1e3, "us"},
        {"client.get_latency_us", get_latency_us, "us"},
        {"client.unattributed_us", get_latency_us - attributed_us, "us"},
        {"client.attributed_pct", 100.0 * ratio(attributed_us, get_latency_us), "%"},
        {"client.get_p90_us", over_windows(&WindowFigures::get_p90, 0.25, 0), "us"},
        {"client.set_p90_us", over_windows(&WindowFigures::set_p90, 0.25, 0), "us"},
        {"client.get_p99_us", over_windows(&WindowFigures::get_p99, 0.25, 0), "us"},
        {"client.set_p99_us", over_windows(&WindowFigures::set_p99, 0.25, 0), "us"},
        {"client.overlap_pct", over_windows(&WindowFigures::overlap, 0.5, 0), "%"},
        {"client.polls_per_op", ratio(d(tt), d(tg + ts)), "1/op"},
        {"client.get_samples", d(tg), "count"},
        {"client.set_samples", d(ts), "count"},
        {"client.retries", d(after.client.retries - before.client.retries), "count"},
        {"client.timeouts", d(after.client.timeouts - before.client.timeouts), "count"},
        {"client.busy", d(after.client.busy - before.client.busy), "count"},
        {"net.msgs_per_op", ratio(d(n1.sends - n0.sends), ops), "1/op"},
        {"net.bytes_per_op", ratio(d(after.net_bytes - before.net_bytes), ops), "B/op"},
        {"net.fabric_transfer_us", fabric.mean_us(), "us"},
        {"net.reg_hit_ratio",
         ratio(d(n1.registration_hits - n0.registration_hits), reg_total), "ratio"},
        {"server.requests_per_op", ratio(d(served), ops), "1/op"},
        {"server.admission_wait_p50_us", pct_us(admission, 50), "us"},
        {"server.admission_wait_p99_us", pct_us(admission, 99), "us"},
        {"server.store_phase_p50_us", pct_us(store_phase, 50), "us"},
        {"server.store_phase_p99_us", pct_us(store_phase, 99), "us"},
        {"server.response_us", response.mean_us(), "us"},
        {"server.shed", d(after.server.shed - before.server.shed), "count"},
        {"server.malformed", d(after.server.malformed - before.server.malformed), "count"},
        {"store.optimistic_hit_ratio",
         ratio(d(st1.optimistic_hits - st0.optimistic_hits), lookups), "ratio"},
        {"store.optimistic_read_us", opt_read.mean_us(), "us"},
        {"store.locked_read_us", locked_read.mean_us(), "us"},
        {"store.ram_hit_ratio", ratio(d(st1.ram_hits - st0.ram_hits), lookups), "ratio"},
        {"store.ssd_hit_ratio", ratio(ssd_hits, lookups), "ratio"},
        {"store.promotions_per_kop",
         1e3 * ratio(d(st1.promotions - st0.promotions), ops), "1/kop"},
        {"store.flushes_per_kop", 1e3 * ratio(d(st1.flushes - st0.flushes), ops), "1/kop"},
        {"store.ssd_flush_p50_us", pct_us(flush, 50), "us"},
        {"store.ssd_flush_p99_us", pct_us(flush, 99), "us"},
        {"store.write_amp", ratio(d(st1.flushed_bytes - st0.flushed_bytes), sets_bytes), "ratio"},
        {"store.dropped_evictions", d(st1.dropped_evictions - st0.dropped_evictions), "count"},
        {"store.checksum_failures", d(st1.checksum_failures - st0.checksum_failures), "count"},
        {"ssd.busy_frac", ratio(ssd_busy_ns, loop_s * 1e9 * d(bed->num_servers())), "ratio"},
        {"ssd.reads_per_ssd_hit", ratio(d(after.ssd.reads - before.ssd.reads), ssd_hits), "ratio"},
        {"ssd.written_bytes_per_user_byte",
         ratio(d(after.ssd.written_bytes - before.ssd.written_bytes), sets_bytes), "ratio"},
        {"ssd.writes_per_kop", 1e3 * ratio(d(after.ssd.writes - before.ssd.writes), ops), "1/kop"},
        {"failed_frac", ratio(d(failed), ops), "ratio"},
        {"trace_overhead_pct",
         100.0 * ratio(tput_untraced - tput_traced, tput_untraced), "%"},
    };
    std::uint64_t dropped = 0;
    for (const auto& r : recs) dropped += r.spans_dropped;
    std::printf("# spans dropped=%llu (cap %zu per thread)\n",
                static_cast<unsigned long long>(dropped), kSpanCap);
    if (!args->trace_out.empty()) write_spans(args->trace_out, recs);
  }
  for (const auto& m : metrics) {
    std::printf("# metric %-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  // Tear the bed down before the result line so stray server output cannot
  // follow it.
  clients.clear();
  bed.reset();

  const bool correct = failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}
