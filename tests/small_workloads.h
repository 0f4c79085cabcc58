// Test helper: the five paper workloads at scaled-down sizes that keep a full
// run of each fast in CI.
#ifndef EREBOR_TESTS_SMALL_WORKLOADS_H_
#define EREBOR_TESTS_SMALL_WORKLOADS_H_

#include <memory>
#include <string>

#include "src/workloads/graph.h"
#include "src/workloads/ids.h"
#include "src/workloads/llm.h"
#include "src/workloads/retrieval.h"
#include "src/workloads/vision.h"

namespace erebor {

inline std::unique_ptr<Workload> SmallWorkload(const std::string& name) {
  if (name == "llama.cpp") {
    LlmParams p;
    p.generate_tokens = 24;
    p.model_bytes = 4ull << 20;
    return std::make_unique<LlmWorkload>(p);
  }
  if (name == "yolo") {
    VisionParams p;
    p.num_images = 12;
    return std::make_unique<VisionWorkload>(p);
  }
  if (name == "drugbank") {
    RetrievalParams p;
    p.num_queries = 12'000;
    p.num_records = 8192;
    return std::make_unique<RetrievalWorkload>(p);
  }
  if (name == "graphchi") {
    GraphParams p;
    p.num_nodes = 4000;
    p.num_edges = 24'000;
    p.iterations = 4;
    return std::make_unique<GraphWorkload>(p);
  }
  if (name == "unicorn") {
    IdsParams p;
    p.num_events = 40'000;
    return std::make_unique<IdsWorkload>(p);
  }
  return nullptr;
}

}  // namespace erebor

#endif  // EREBOR_TESTS_SMALL_WORKLOADS_H_
