//===- support/SoleOwner.h - Sole-owner check before writes -----*- C++ -*-===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The check a writer makes before mutating a `shared_ptr`-owned object in
/// place instead of cloning it (copy-on-write snapshots, pooled states).
///
/// `use_count()` is a relaxed load. Seeing 1 proves that every other owner
/// has released its reference, but not that their reads of the object
/// happened before the writes that follow: the release is an acq_rel
/// decrement, and a relaxed load does not synchronize with it. An acquire
/// fence after the load does, so the last reader's reads are ordered
/// before the writer's in-place writes.
///
//===----------------------------------------------------------------------===//

#ifndef GRAPHIT_SUPPORT_SOLEOWNER_H
#define GRAPHIT_SUPPORT_SOLEOWNER_H

#include "support/TSanAnnotate.h"

#include <atomic>
#include <memory>

namespace graphit {

/// True when \p P holds the only reference to its object, with every
/// released owner's accesses ordered before whatever the caller does
/// next. The caller must make sure no new reference can appear meanwhile
/// (the object is detached, or lookups need a lock the caller holds).
/// Null pointers are never sole owners.
template <typename T> bool isSoleOwner(const std::shared_ptr<T> &P) {
  if (P.use_count() != 1)
    return false;
#ifdef GRAPHIT_TSAN_ENABLED
  // ThreadSanitizer does not model fences. Locking a weak reference is an
  // acq_rel read-modify-write of the same use count the owners' releases
  // decremented: the same acquire, in a form TSan sees.
  (void)std::weak_ptr<T>(P).lock();
#else
  std::atomic_thread_fence(std::memory_order_acquire);
#endif
  return true;
}

} // namespace graphit

#endif // GRAPHIT_SUPPORT_SOLEOWNER_H
