#include "workload.h"

#include <random>

#include "click/dcm.h"
#include "datagen/simulator.h"

namespace servebench {

using rapid::data::Dataset;
using rapid::data::ImpressionList;
using rapid::data::PageGenConfig;
using rapid::data::PageSession;

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w :
       {Workload::kScoreUnique, Workload::kScoreHot, Workload::kPageFeed}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kScoreUnique:
      return "score_unique";
    case Workload::kScoreHot:
      return "score_hot";
    case Workload::kPageFeed:
      return "page_feed";
  }
  return "?";
}

uint64_t Mix(uint64_t seed, uint64_t tag) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ull * (tag + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

Dataset MakeCatalog() {
  rapid::data::SimConfig sim;
  sim.kind = rapid::data::DatasetKind::kTaobao;
  sim.num_users = kNumUsers;
  sim.num_items = kNumItems;
  return rapid::data::GenerateDataset(sim, kCatalogSeed);
}

std::vector<ImpressionList> MakeLists(const Dataset& data, uint64_t seed,
                                      uint64_t stream, int count) {
  PageGenConfig gen;
  gen.lists_per_page = 1;
  gen.items_per_list = kListLen;
  gen.num_pages = count;
  gen.shared_frac = 0.0f;
  gen.score_noise = kScoreNoise;
  std::vector<ImpressionList> lists;
  lists.reserve(count);
  for (PageSession& session : rapid::data::GeneratePageSessions(
           data, gen, Mix(seed, 100 + stream))) {
    lists.push_back(std::move(session.lists.front()));
  }
  return lists;
}

std::vector<PageSession> MakePages(const Dataset& data, uint64_t seed,
                                   uint64_t stream, int count) {
  PageGenConfig gen;
  gen.lists_per_page = kListsPerPage;
  gen.items_per_list = kListLen;
  gen.num_pages = count;
  gen.shared_frac = kSharedFrac;
  gen.score_noise = kScoreNoise;
  return rapid::data::GeneratePageSessions(data, gen, Mix(seed, 200 + stream));
}

std::unique_ptr<rapid::core::RapidReranker> TrainModel(const Dataset& data) {
  std::vector<ImpressionList> lists =
      MakeLists(data, kCatalogSeed, 0, kTrainLists);
  const rapid::click::GroundTruthClickModel dcm(&data,
                                               rapid::click::DcmConfig{});
  std::mt19937_64 rng(Mix(kCatalogSeed, 2));
  for (ImpressionList& list : lists) {
    list.clicks = dcm.SimulateClicks(list.user_id, list.items, rng);
  }
  rapid::core::RapidConfig config;
  config.hidden_dim = kHiddenDim;
  config.train.hidden_dim = kHiddenDim;
  config.train.epochs = kTrainEpochs;
  auto model = std::make_unique<rapid::core::RapidReranker>(config);
  model->Fit(data, lists, Mix(kCatalogSeed, 3));
  return model;
}

rapid::serve::RouterConfig RouterSettings(int router_threads) {
  rapid::serve::RouterConfig config;
  config.cache.enabled = true;
  if (router_threads > 0) config.num_threads = router_threads;
  return config;
}

rapid::net::ServerConfig ServerSettings() {
  rapid::net::ServerConfig config;
  config.enable_remote_load = true;
  return config;
}

}  // namespace servebench
