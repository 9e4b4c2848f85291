//===- support/Atomics.h - Lock-free update primitives ----------*- C++ -*-===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The atomic read-modify-write primitives the generated code in the paper
/// relies on: compare-and-swap, `atomicWriteMin`/`atomicWriteMax` (the
/// `writeMin` of Fig. 2), and fetch-and-add. All operate on plain scalars so
/// the same arrays can also be accessed non-atomically on pull-direction
/// traversals (Fig. 9(b)).
///
//===----------------------------------------------------------------------===//

#ifndef GRAPHIT_SUPPORT_ATOMICS_H
#define GRAPHIT_SUPPORT_ATOMICS_H

#include <atomic>
#include <type_traits>

namespace graphit {

namespace detail {
template <typename T> std::atomic<T> &asAtomic(T &Ref) {
  static_assert(std::is_trivially_copyable_v<T>,
                "atomic view requires a trivially copyable type");
  static_assert(sizeof(std::atomic<T>) == sizeof(T),
                "atomic view requires layout-compatible std::atomic");
  return reinterpret_cast<std::atomic<T> &>(Ref);
}
} // namespace detail

/// Atomically sets `*Target = Desired` if it still equals \p Expected.
/// \returns true on success.
template <typename T> bool atomicCAS(T *Target, T Expected, T Desired) {
  return detail::asAtomic(*Target).compare_exchange_strong(
      Expected, Desired, std::memory_order_acq_rel,
      std::memory_order_acquire);
}

/// Atomically lowers `*Target` to \p Value if `Value < *Target`.
/// \returns true iff this call lowered the stored value; on success a
/// non-null \p Replaced receives the value the write replaced. While a
/// slot only falls, one call at most replaces any given value.
template <typename T>
bool atomicWriteMin(T *Target, T Value, T *Replaced = nullptr) {
  T Current = detail::asAtomic(*Target).load(std::memory_order_relaxed);
  while (Value < Current) {
    if (detail::asAtomic(*Target).compare_exchange_weak(
            Current, Value, std::memory_order_acq_rel,
            std::memory_order_acquire)) {
      if (Replaced)
        *Replaced = Current;
      return true;
    }
  }
  return false;
}

/// Atomically raises `*Target` to \p Value if `Value > *Target`.
/// \returns true iff this call raised the stored value.
template <typename T> bool atomicWriteMax(T *Target, T Value) {
  T Current = detail::asAtomic(*Target).load(std::memory_order_relaxed);
  while (Value > Current) {
    if (detail::asAtomic(*Target).compare_exchange_weak(
            Current, Value, std::memory_order_acq_rel,
            std::memory_order_acquire))
      return true;
  }
  return false;
}

/// Atomically lowers `*Target` to \p Value if `Value < *Target`, without
/// reporting whether it did. This is the reduction primitive of the eager
/// engine's next-bucket proposal (it replaces the former `omp critical`
/// section): every thread publishes its candidate and nobody needs the
/// outcome.
template <typename T> void atomicMin(T *Target, T Value) {
  (void)atomicWriteMin(Target, Value);
}

/// Atomically stores \p Value and \returns the previous value.
template <typename T> T atomicExchange(T *Target, T Value) {
  return detail::asAtomic(*Target).exchange(Value,
                                            std::memory_order_acq_rel);
}

/// Atomically adds \p Delta to `*Target`. \returns the previous value.
template <typename T> T fetchAdd(T *Target, T Delta) {
  return detail::asAtomic(*Target).fetch_add(Delta,
                                             std::memory_order_acq_rel);
}

/// Atomic load with acquire semantics.
template <typename T> T atomicLoad(const T *Target) {
  return detail::asAtomic(*const_cast<T *>(Target))
      .load(std::memory_order_acquire);
}

/// Atomic load with relaxed ordering: the data-race-free form of the "read
/// then maybe CAS" pre-check pattern. Compiles to a plain load on x86, so
/// hot-path pre-checks (`if (Dist[v] <= nd) skip`) cost nothing extra while
/// remaining well-defined (and TSan-clean) against a concurrent CAS.
template <typename T> T atomicLoadRelaxed(const T *Target) {
  return detail::asAtomic(*const_cast<T *>(Target))
      .load(std::memory_order_relaxed);
}

/// Atomic store with relaxed ordering, for single-writer slots that other
/// threads may concurrently read atomically (publication happens at the
/// next barrier, not through this store).
template <typename T> void atomicStoreRelaxed(T *Target, T Value) {
  detail::asAtomic(*Target).store(Value, std::memory_order_relaxed);
}

/// Atomic store with release semantics.
template <typename T> void atomicStore(T *Target, T Value) {
  detail::asAtomic(*Target).store(Value, std::memory_order_release);
}

} // namespace graphit

#endif // GRAPHIT_SUPPORT_ATOMICS_H
