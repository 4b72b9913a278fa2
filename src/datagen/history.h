#ifndef RAPID_DATAGEN_HISTORY_H_
#define RAPID_DATAGEN_HISTORY_H_

#include <vector>

#include "datagen/types.h"

namespace rapid::data {

/// Topics an item is considered to belong to when splitting behavior
/// histories: every topic whose coverage is at least `threshold`, or the
/// argmax topic if none reaches it. One-hot and multi-hot items resolve to
/// exactly their nonzero topics (their weights are >= 1/3 >= threshold by
/// construction); soft GMM coverage maps to the confident components.
std::vector<int> TopicMembership(const Item& item, float threshold = 0.25f);

/// Splits a user's time-ordered behavior history into per-topic sequences
/// (paper Section III-C): sequence `j` holds the ids of the *most recent*
/// `max_len` history items belonging to topic `j`, oldest first. Topics the
/// user never interacted with yield empty sequences.
std::vector<std::vector<int>> SplitHistoryByTopic(const Dataset& data,
                                                  int user_id, int max_len,
                                                  float threshold = 0.25f);

/// The per-topic sequences of `SplitHistoryByTopic`, laid out as the
/// left-padded steps of one batched topic recurrence, without allocating.
/// Step `t` (of `max_len`) is an `(m x (q_u + q_v))` block at
/// `steps + t * m * (q_u + q_v)`: row `j` holds `[x_u, x_v]` of the item
/// topic `j`'s sequence has at step `t`, or zeros where the sequence is
/// shorter than `max_len` (padding on the left, so every sequence ends at
/// the last step). `masks[t * m + j]` is 1 on real rows and 0 on padding.
void TopicHistoryStepsInto(const Dataset& data, int user_id, int max_len,
                           float* steps, float* masks,
                           float threshold = 0.25f);

/// Empirical topic distribution of a user's history (how often each topic
/// appears among the history items' memberships, normalized). Used by the
/// adpMMR baseline and the case-study tooling.
std::vector<float> HistoryTopicDistribution(const Dataset& data, int user_id,
                                            float threshold = 0.25f);

/// `HistoryTopicDistribution` into `out[0, m)` without allocating.
void HistoryTopicDistributionInto(const Dataset& data, int user_id, float* out,
                                  float threshold = 0.25f);

}  // namespace rapid::data

#endif  // RAPID_DATAGEN_HISTORY_H_
