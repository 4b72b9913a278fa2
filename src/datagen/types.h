#ifndef RAPID_DATAGEN_TYPES_H_
#define RAPID_DATAGEN_TYPES_H_

#include <string>
#include <vector>

namespace rapid::data {

/// An item in the catalog.
struct Item {
  int id = 0;
  /// Dense observed item features `x_v`: the topic-structured latent vector
  /// plus a *noisy* view of the item's quality.
  std::vector<float> features;
  /// Topic coverage `tau_v in [0,1]^m`: probability the item covers topic j.
  std::vector<float> topic_coverage;
  /// Bid price, used by the App Store revenue metric `rev@k` (0 elsewhere).
  float bid = 0.0f;
  /// Simulator-internal ground truth: the item's true quality. Drives the
  /// click model; models must never read it (they see only the noisy
  /// feature copy inside `features`).
  float hidden_quality = 0.0f;
};

/// A user with ground-truth (hidden) preference structure. Models only see
/// `features` and the behavior history; `topic_pref` / `diversity_appetite`
/// drive the click simulator and are used for evaluation oracles.
struct User {
  int id = 0;
  /// Dense observed user features `x_u`: a noisy random projection of the
  /// hidden topic preference (a weak "demographic" signal). The full
  /// preference is only recoverable from the behavior history.
  std::vector<float> features;
  /// Ground-truth preference distribution over topics (sums to 1).
  std::vector<float> topic_pref;
  /// In [0,1]: how strongly list diversity (vs pure relevance) drives this
  /// user's clicks. Heterogeneous across users by construction.
  float diversity_appetite = 0.0f;
};

/// One labelled user-item interaction for initial-ranker training.
struct Interaction {
  int user_id = 0;
  int item_id = 0;
  /// 1 = positive (clicked/purchased), 0 = sampled negative.
  int label = 0;
};

/// One re-ranking request: a user plus a ranked list of candidate items.
/// `clicks` is filled by the click simulator (training) or left empty until
/// evaluation time (test).
struct ImpressionList {
  int user_id = 0;
  /// Item ids in ranked order (initial ranking for inputs; re-ranked for
  /// outputs).
  std::vector<int> items;
  /// Initial-ranker scores aligned with `items`.
  std::vector<float> scores;
  /// 0/1 click labels aligned with `items`; empty if not yet simulated.
  std::vector<int> clicks;
};

/// One recommendation request before initial ranking: a user plus an
/// unranked candidate pool. The experiment pipeline scores the candidates
/// with an initial ranker and keeps the top-L as the `ImpressionList`.
struct Request {
  int user_id = 0;
  std::vector<int> candidates;
};

/// A fully generated dataset following the paper's 4-way split:
/// user behavior history / initial-ranker train / re-ranking train / test.
struct Dataset {
  std::string name;
  int num_topics = 0;
  std::vector<User> users;
  std::vector<Item> items;
  /// Per user: time-ordered item ids from the behavior-history split.
  std::vector<std::vector<int>> history;
  /// Interactions for training the initial ranker.
  std::vector<Interaction> ranker_train;
  /// Requests whose initial lists train the re-rankers (clicks from DCM).
  std::vector<Request> rerank_train_requests;
  /// Requests used for final evaluation.
  std::vector<Request> test_requests;

  const User& user(int id) const { return users[id]; }
  const Item& item(int id) const { return items[id]; }
  int user_feature_dim() const {
    return users.empty() ? 0 : static_cast<int>(users[0].features.size());
  }
  int item_feature_dim() const {
    return items.empty() ? 0 : static_cast<int>(items[0].features.size());
  }
};

/// Probabilistic coverage of topic `j` by the first `upto` items of `list`
/// (Eq. 4 of the paper): `c_j = 1 - prod_v (1 - tau_v^j)`.
/// `upto < 0` means the whole list.
float TopicCoverage(const Dataset& data, const std::vector<int>& item_ids,
                    int topic, int upto = -1);

/// All-topic coverage vector `c(list_1..upto)`.
std::vector<float> CoverageVector(const Dataset& data,
                                  const std::vector<int>& item_ids,
                                  int upto = -1);

/// Marginal diversity of each position in `item_ids` (Eq. 5):
/// `d_R(R(i)) = c(R) - c(R \ {R(i)})`, returned as an
/// `item_ids.size() x m` row-major matrix flattened per item.
std::vector<std::vector<float>> MarginalDiversity(
    const Dataset& data, const std::vector<int>& item_ids);

/// `MarginalDiversity` into a row-major `(item_ids.size() x m)` block at
/// `out`, without allocating.
void MarginalDiversityInto(const Dataset& data,
                           const std::vector<int>& item_ids, float* out);

}  // namespace rapid::data

#endif  // RAPID_DATAGEN_TYPES_H_
