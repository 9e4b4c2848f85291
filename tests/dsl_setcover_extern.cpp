//===- tests/dsl_setcover_extern.cpp - Extern for generated set cover ----===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//
//
// apps/setcover.gt leaves element bookkeeping to `extern func
// reserve_elements`, which a GraphIt user supplies in C++. This one
// reserves nothing, so every set keeps its whole utility: the generated
// program must end with `utility` equal to the out-degrees.
//
//===----------------------------------------------------------------------===//

#include <cstdint>

int64_t reserve_elements(int64_t) { return 0; }
