#ifndef SERVEBENCH_CHECKS_H_
#define SERVEBENCH_CHECKS_H_

// Checks of the served answers against references computed apart from the
// serving path, and of properties the method must have. Each check returns
// an empty string when it passes and the reason when it fails, so the load
// generator can count failures and the self-test can show that every check
// can fail.

#include <cstdint>
#include <string>
#include <vector>

#include "datagen/pages.h"
#include "datagen/types.h"
#include "net/codec.h"
#include "page/page.h"
#include "rerank/neural_base.h"

namespace servebench {

/// The model every answer must be stamped with: the slot's model name and
/// one of the versions published so far.
struct Stamp {
  std::string model_name;
  uint64_t min_version = 1;
  uint64_t max_version = 1;
};

/// Reference orders: `Rerank` of each list by `model`, on `threads`
/// threads (`RerankBatchInto` is bit-identical to `Rerank` per list).
std::vector<std::vector<int>> ReferenceOrders(
    const rapid::rerank::NeuralReranker& model,
    const rapid::data::Dataset& data,
    const std::vector<const rapid::data::ImpressionList*>& lists,
    int threads);

/// The page pass the server runs, recomputed from reference orders.
rapid::page::PageResult ReferencePage(
    const rapid::data::Dataset& data, const rapid::data::PageSession& page,
    const std::vector<std::vector<int>>& orders, bool joint);

/// A single-list answer: not degraded or shed, stamped with the published
/// model, a permutation of the sent items, equal to the reference order.
std::string CheckScore(const rapid::data::ImpressionList& sent,
                       const rapid::net::WireResponse& got,
                       const std::vector<int>& reference, const Stamp& stamp);

/// A page answer: not degraded, stamped, one permutation per sent list,
/// equal to the reference page pass, with valid coverage and redundancy.
std::string CheckPage(const rapid::data::PageSession& sent,
                      const rapid::net::WirePageResponse& got,
                      const rapid::page::PageResult& reference,
                      const Stamp& stamp);

/// Redundancy >= 0 and coverage in [0, 1].
std::string CheckPageProperties(const rapid::net::WirePageResponse& got);

/// The server received every frame sent, the client got an answer to
/// each, and the server dropped no response.
std::string CheckDelivery(uint64_t frames_sent, uint64_t frames_received,
                          uint64_t frames_answered,
                          uint64_t dropped_responses);

/// The served lists earn more expected clicks than the initial order.
std::string CheckBeatsInitial(double served_clicks, double initial_clicks);

}  // namespace servebench

#endif  // SERVEBENCH_CHECKS_H_
