#ifndef SERVEBENCH_WORKLOAD_H_
#define SERVEBENCH_WORKLOAD_H_

// Inputs of the serving benchmark and the one server configuration every
// workload shares. The catalog and the model's training lists come from a
// fixed catalog seed, so every run serves the same catalog with the same
// model; the run seed draws the traffic: the score and page streams and
// the hot keys. The server process and the load generator both call these,
// so both sides see identical data.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/rapid.h"
#include "datagen/pages.h"
#include "datagen/types.h"
#include "net/server.h"
#include "serve/router.h"

namespace servebench {

enum class Workload { kScoreUnique, kScoreHot, kPageFeed };

bool ParseWorkload(const std::string& name, Workload* out);
const char* WorkloadName(Workload workload);

// Catalog and lists.
inline constexpr uint64_t kCatalogSeed = 2023;
inline constexpr int kNumUsers = 200;
inline constexpr int kNumItems = 1000;
inline constexpr int kListLen = 20;
// Positions the DCM judges ("expected clicks of the served top-10").
inline constexpr int kClickDepth = 10;
// Noise of the stand-in initial ranker (noisy true relevance).
inline constexpr float kScoreNoise = 0.3f;

// Model: RAPID, hidden size 16, trained before the server starts.
inline constexpr int kHiddenDim = 16;
inline constexpr int kTrainLists = 800;
inline constexpr int kTrainEpochs = 2;

// score_hot: a Zipf-skewed key set a quarter of the cache's capacity,
// republished through the load-slot frame every kRepublishEvery frames.
inline constexpr int kHotKeys = 1024;
inline constexpr double kZipfExponent = 1.0;
inline constexpr int kRepublishEvery = 2048;

// page_feed: four sibling lists per page sharing a trending pool.
inline constexpr int kListsPerPage = 4;
inline constexpr float kSharedFrac = 0.4f;
inline constexpr int kPageTopK = 10;

inline constexpr const char* kSlot = "main";

/// splitmix64: derives independent sub-seeds from the run seed.
uint64_t Mix(uint64_t seed, uint64_t tag);

/// The Taobao-style catalog the server serves against (kCatalogSeed).
rapid::data::Dataset MakeCatalog();

/// `count` single lists of kListLen random catalog items, ordered by a
/// stand-in initial ranker (noisy true relevance, descending). `stream`
/// selects an independent sequence; distinct streams never share lists
/// except by chance.
std::vector<rapid::data::ImpressionList> MakeLists(
    const rapid::data::Dataset& data, uint64_t seed, uint64_t stream,
    int count);

/// `count` pages of kListsPerPage lists each (`GeneratePageSessions`).
std::vector<rapid::data::PageSession> MakePages(
    const rapid::data::Dataset& data, uint64_t seed, uint64_t stream,
    int count);

/// The served model, trained on lists with clicks simulated by the
/// ground-truth DCM (kCatalogSeed; deterministic).
std::unique_ptr<rapid::core::RapidReranker> TrainModel(
    const rapid::data::Dataset& data);

/// The router and server configuration every workload shares: the
/// defaults, with the result cache on and remote loads enabled (score_hot
/// republishes through the load-slot frame). `router_threads` <= 0 keeps
/// the default worker count.
rapid::serve::RouterConfig RouterSettings(int router_threads);
rapid::net::ServerConfig ServerSettings();

}  // namespace servebench

#endif  // SERVEBENCH_WORKLOAD_H_
