// Counter families: each family names its fields once, in an X-macro list,
// and everything that goes field by field is derived from that list.
//
//   #define HYKV_FOO_FIELDS(X) X(std::uint64_t, hits) X(bool, degraded)
//   struct Foo {
//     HYKV_COUNTER_FIELDS(Foo, HYKV_FOO_FIELDS)
//   };
//
// Foo is then a plain aggregate with the value-initialised members `hits`
// and `degraded`, plus Foo::for_each_field(fn), which calls
// fn(name, &Foo::member) once per field in list order. field_names, merge
// and the lock-free CounterSlot below are built on that visitor, so adding
// a counter is one line in the list.
#pragma once

#include <atomic>
#include <cstdint>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/thread_annotations.hpp"

#define HYKV_COUNTER_MEMBER_(type, name) type name{};
#define HYKV_COUNTER_VISIT_(type, name) \
  fn(std::string_view{#name}, &CounterFamily::name);

/// Declares the members of counter family `Family` from its field list
/// `LIST` (a macro taking X(type, name) entries) and its for_each_field.
#define HYKV_COUNTER_FIELDS(Family, LIST)          \
  LIST(HYKV_COUNTER_MEMBER_)                       \
  template <typename Fn>                           \
  static constexpr void for_each_field(Fn&& fn) {  \
    using CounterFamily = Family;                  \
    LIST(HYKV_COUNTER_VISIT_)                      \
  }

namespace hykv::metrics {

/// The field names of a counter family, in list order.
template <typename Family>
[[nodiscard]] std::vector<std::string_view> field_names() {
  std::vector<std::string_view> names;
  Family::for_each_field(
      [&names](std::string_view name, auto) { names.push_back(name); });
  return names;
}

/// Whether `Family` has a field called `name`.
template <typename Family>
[[nodiscard]] constexpr bool has_field(std::string_view name) {
  bool found = false;
  Family::for_each_field(
      [&](std::string_view field, auto) { found = found || field == name; });
  return found;
}

/// Accumulates `from` into `into` field by field. Counters add; bool fields
/// are flags (any shard or server degraded) and OR.
template <typename Family>
void merge(Family& into, const Family& from) noexcept {
  Family::for_each_field([&](std::string_view, auto field) {
    if constexpr (std::is_same_v<std::remove_cvref_t<decltype(into.*field)>,
                                 bool>) {
      into.*field = into.*field || from.*field;
    } else {
      into.*field += from.*field;
    }
  });
}

/// One family's counters as relaxed atomic cells. Any number of threads may
/// add() concurrently without a lock; snapshot() loads each cell once, so a
/// snapshot taken under traffic may mix slightly different instants across
/// fields, and totals are exact once the counting threads are quiescent.
/// Cache-line aligned so neighbouring slots (one per server worker) never
/// false-share.
template <typename Family>
class alignas(64) CounterSlot {
 public:
  void add(std::uint64_t Family::*field, std::uint64_t n = 1) noexcept {
    std::atomic_ref<std::uint64_t>(cells_.*field)
        .fetch_add(n, std::memory_order_relaxed);
  }

  [[nodiscard]] Family snapshot() const noexcept {
    Family out;
    Family::for_each_field([&](std::string_view, auto field) {
      using T = std::remove_cvref_t<decltype(out.*field)>;
      out.*field = std::atomic_ref<T>(cells_.*field)
                       .load(std::memory_order_relaxed);
    });
    return out;
  }

  void reset() noexcept {
    Family::for_each_field([&](std::string_view, auto field) {
      using T = std::remove_cvref_t<decltype(cells_.*field)>;
      std::atomic_ref<T>(cells_.*field).store(T{}, std::memory_order_relaxed);
    });
  }

 private:
  /// Mutable because C++20's std::atomic_ref needs a non-const referent
  /// even to load.
  mutable Family cells_ ATOMIC_PUBLISHED(
      every access through std::atomic_ref, relaxed){};
};

}  // namespace hykv::metrics
