#include "src/workloads/workload.h"

#include "src/workloads/graph.h"
#include "src/workloads/ids.h"
#include "src/workloads/llm.h"
#include "src/workloads/retrieval.h"
#include "src/workloads/vision.h"

namespace erebor {

std::vector<std::unique_ptr<Workload>> MakePaperWorkloads() {
  std::vector<std::unique_ptr<Workload>> workloads;
  workloads.push_back(std::make_unique<LlmWorkload>());
  workloads.push_back(std::make_unique<VisionWorkload>());
  workloads.push_back(std::make_unique<RetrievalWorkload>());
  workloads.push_back(std::make_unique<GraphWorkload>());
  workloads.push_back(std::make_unique<IdsWorkload>());
  return workloads;
}

}  // namespace erebor
