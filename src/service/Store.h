//===- service/Store.h - The Store concept ----------------------*- C++ -*-===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The *Store* concept: the writer/publisher surface a live store must
/// expose for `BasicQueryEngine` (service/QueryEngine.h) to serve it.
/// `SnapshotStore` and `ShardedSnapshotStore` both model it, so one engine
/// template covers single-writer and sharded multi-writer serving — pooled
/// states, landmarks, hot-state sharing, admission control and deadlines
/// included.
///
/// A model of Store provides:
///
///  * `Snapshot` — a `shared_ptr<const View>` pinning one published
///    version; `View` is any graph the algorithm layer accepts
///    (`DeltaGraph`, `ShardedDeltaView`, ...). Pinned views are immutable.
///  * `ApplyResult` — the batch outcome carrying `Status`, `Error`,
///    `CompactionError`, `Version`, coalesced `Applied` transitions, the
///    pre-pinned `Snap`, and `CompactionTriggered`.
///  * read side: `current()`, `currentVersioned()`, `version()`,
///    `numNodes()`, `mapping()`, `compactions()`, `degraded()`,
///    `lastError()` — all thread-safe against concurrent writers.
///  * write side: `applyUpdates(batch)`, `addVertices(n, coords)`,
///    `removeVertex(id)`, `acquireVertex(coords)`, `freeVertexCount()`,
///    `waitForCompaction()`.
///
/// The check is a C++17 detection-idiom trait (`is_store_v`) — the engine
/// static_asserts it, so plugging in a type missing part of the surface
/// fails with one readable diagnostic instead of a page of member-lookup
/// errors.
///
//===----------------------------------------------------------------------===//

#ifndef GRAPHIT_SERVICE_STORE_H
#define GRAPHIT_SERVICE_STORE_H

#include "graph/Graph.h"

#include <type_traits>
#include <utility>
#include <vector>

namespace graphit {

struct EdgeUpdate;
class VertexMapping;

namespace detail {

/// Detection idiom: `StoreSurface<void, S>` is well-formed only when every
/// expression the engine issues against a store compiles for `S`.
template <typename, typename S> struct StoreSurface : std::false_type {};

template <typename S>
struct StoreSurface<
    std::void_t<
        typename S::Snapshot, typename S::ApplyResult,
        decltype(std::declval<const S &>().current()),
        decltype(std::declval<const S &>().currentVersioned()),
        decltype(std::declval<const S &>().version()),
        decltype(std::declval<const S &>().numNodes()),
        decltype(std::declval<const S &>().mapping()),
        decltype(std::declval<const S &>().compactions()),
        decltype(std::declval<const S &>().degraded()),
        decltype(std::declval<const S &>().lastError()),
        decltype(std::declval<S &>().applyUpdates(
            std::declval<const std::vector<EdgeUpdate> &>())),
        decltype(std::declval<S &>().addVertices(
            std::declval<Count>(),
            std::declval<const Coordinates *>())),
        decltype(std::declval<S &>().removeVertex(std::declval<VertexId>())),
        decltype(std::declval<S &>().acquireVertex(
            std::declval<const Coordinates *>())),
        decltype(std::declval<const S &>().freeVertexCount()),
        decltype(std::declval<S &>().waitForCompaction())>,
    S>
    : std::conjunction<
          std::is_same<typename S::ApplyResult,
                       decltype(std::declval<S &>().applyUpdates(
                           std::declval<const std::vector<EdgeUpdate> &>()))>,
          std::is_same<typename S::Snapshot,
                       decltype(std::declval<const S &>().current())>,
          std::is_same<std::pair<typename S::Snapshot, uint64_t>,
                       decltype(std::declval<const S &>().currentVersioned())>,
          std::is_same<const VertexMapping &,
                       decltype(std::declval<const S &>().mapping())>> {};

} // namespace detail

/// True when \p S models the Store concept above.
template <typename S>
inline constexpr bool is_store_v = detail::StoreSurface<void, S>::value;

} // namespace graphit

#endif // GRAPHIT_SERVICE_STORE_H
