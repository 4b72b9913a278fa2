#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>

#include "datagen/gmm.h"
#include "datagen/history.h"
#include "datagen/simulator.h"
#include "datagen/types.h"

namespace rapid::data {
namespace {

SimConfig SmallConfig(DatasetKind kind) {
  SimConfig cfg;
  cfg.kind = kind;
  cfg.num_users = 40;
  cfg.num_items = 300;
  cfg.history_len = 20;
  return cfg;
}

TEST(SimConfigTest, TopicCountsMatchPaperDatasets) {
  SimConfig cfg;
  cfg.kind = DatasetKind::kTaobao;
  EXPECT_EQ(cfg.num_topics(), 5);
  cfg.kind = DatasetKind::kMovieLens;
  EXPECT_EQ(cfg.num_topics(), 20);
  cfg.kind = DatasetKind::kAppStore;
  EXPECT_EQ(cfg.num_topics(), 23);
}

TEST(SimulatorTest, Deterministic) {
  const SimConfig cfg = SmallConfig(DatasetKind::kTaobao);
  Dataset a = GenerateDataset(cfg, 7);
  Dataset b = GenerateDataset(cfg, 7);
  ASSERT_EQ(a.items.size(), b.items.size());
  EXPECT_EQ(a.items[10].features, b.items[10].features);
  EXPECT_EQ(a.users[5].topic_pref, b.users[5].topic_pref);
  EXPECT_EQ(a.history[3], b.history[3]);
  Dataset c = GenerateDataset(cfg, 8);
  EXPECT_NE(a.items[10].features, c.items[10].features);
}

class AllKindsTest : public ::testing::TestWithParam<DatasetKind> {};

TEST_P(AllKindsTest, StructuralInvariants) {
  const SimConfig cfg = SmallConfig(GetParam());
  Dataset data = GenerateDataset(cfg, 42);
  EXPECT_EQ(static_cast<int>(data.users.size()), cfg.num_users);
  EXPECT_EQ(static_cast<int>(data.items.size()), cfg.num_items);
  EXPECT_EQ(data.num_topics, cfg.num_topics());

  for (const Item& item : data.items) {
    ASSERT_EQ(static_cast<int>(item.topic_coverage.size()), data.num_topics);
    float sum = 0.0f, mx = 0.0f;
    for (float t : item.topic_coverage) {
      EXPECT_GE(t, 0.0f);
      EXPECT_LE(t, 1.0f);
      sum += t;
      mx = std::max(mx, t);
    }
    EXPECT_GT(mx, 0.0f) << "every item must cover some topic";
    EXPECT_NEAR(sum, 1.0f, 1e-4f) << "coverage normalized in all three sims";
  }

  for (const User& user : data.users) {
    float sum = std::accumulate(user.topic_pref.begin(),
                                user.topic_pref.end(), 0.0f);
    EXPECT_NEAR(sum, 1.0f, 1e-4f);
    EXPECT_GE(user.diversity_appetite, 0.0f);
    EXPECT_LE(user.diversity_appetite, 1.0f);
  }

  // History: right length, valid ids, no duplicates.
  for (int u = 0; u < cfg.num_users; ++u) {
    EXPECT_EQ(static_cast<int>(data.history[u].size()), cfg.history_len);
    std::set<int> uniq(data.history[u].begin(), data.history[u].end());
    EXPECT_EQ(uniq.size(), data.history[u].size());
    for (int v : data.history[u]) {
      ASSERT_GE(v, 0);
      ASSERT_LT(v, cfg.num_items);
    }
  }

  // Requests: right counts and candidate pool sizes, unique candidates.
  EXPECT_EQ(static_cast<int>(data.rerank_train_requests.size()),
            cfg.num_users * cfg.rerank_lists_per_user);
  EXPECT_EQ(static_cast<int>(data.test_requests.size()),
            cfg.num_users * cfg.test_lists_per_user);
  for (const Request& req : data.test_requests) {
    EXPECT_EQ(static_cast<int>(req.candidates.size()),
              cfg.candidates_per_request);
    std::set<int> uniq(req.candidates.begin(), req.candidates.end());
    EXPECT_EQ(uniq.size(), req.candidates.size());
  }

  // Ranker-train interactions balanced between labels.
  int pos = 0, neg = 0;
  for (const Interaction& it : data.ranker_train) {
    (it.label ? pos : neg) += 1;
  }
  EXPECT_EQ(pos, cfg.num_users * cfg.ranker_train_pos_per_user);
  EXPECT_EQ(neg, pos);
}

INSTANTIATE_TEST_SUITE_P(Kinds, AllKindsTest,
                         ::testing::Values(DatasetKind::kTaobao,
                                           DatasetKind::kMovieLens,
                                           DatasetKind::kAppStore));

TEST(SimulatorTest, AppStoreHasOneHotCoverageAndBids) {
  Dataset data = GenerateDataset(SmallConfig(DatasetKind::kAppStore), 1);
  for (const Item& item : data.items) {
    int nonzero = 0;
    for (float t : item.topic_coverage) {
      if (t > 0.0f) {
        ++nonzero;
        EXPECT_FLOAT_EQ(t, 1.0f);
      }
    }
    EXPECT_EQ(nonzero, 1);
    EXPECT_GT(item.bid, 0.0f);
  }
}

TEST(SimulatorTest, MovieLensCoverageIsNormalizedMultiHot) {
  Dataset data = GenerateDataset(SmallConfig(DatasetKind::kMovieLens), 2);
  bool saw_multi = false;
  for (const Item& item : data.items) {
    int nonzero = 0;
    float first = 0.0f;
    for (float t : item.topic_coverage) {
      if (t > 0.0f) {
        if (nonzero == 0) first = t;
        EXPECT_FLOAT_EQ(t, first) << "multi-hot weights equal";
        ++nonzero;
      }
    }
    EXPECT_GE(nonzero, 1);
    EXPECT_LE(nonzero, 3);
    if (nonzero > 1) saw_multi = true;
  }
  EXPECT_TRUE(saw_multi);
}

TEST(SimulatorTest, TaobaoCoverageIsSoft) {
  Dataset data = GenerateDataset(SmallConfig(DatasetKind::kTaobao), 3);
  // GMM posteriors: at least some items should have genuinely soft
  // (non-degenerate) coverage.
  int soft = 0;
  for (const Item& item : data.items) {
    int above = 0;
    for (float t : item.topic_coverage) {
      if (t > 0.05f && t < 0.95f) ++above;
    }
    if (above >= 2) ++soft;
  }
  EXPECT_GT(soft, 5);
}

TEST(SimulatorTest, RelevanceCalibration) {
  Dataset data = GenerateDataset(SmallConfig(DatasetKind::kTaobao), 4);
  // Mean over random pairs moderate; history items much more relevant.
  double rand_mean = 0.0;
  int n = 0;
  for (int u = 0; u < 20; ++u) {
    for (int v = 0; v < 100; ++v) {
      rand_mean += TrueRelevance(data.users[u], data.items[v]);
      ++n;
    }
  }
  rand_mean /= n;
  double hist_mean = 0.0;
  int hn = 0;
  for (int u = 0; u < 20; ++u) {
    for (int v : data.history[u]) {
      hist_mean += TrueRelevance(data.users[u], data.items[v]);
      ++hn;
    }
  }
  hist_mean /= hn;
  EXPECT_GT(rand_mean, 0.02);
  EXPECT_LT(rand_mean, 0.6);
  EXPECT_GT(hist_mean, rand_mean + 0.1)
      << "history should be visibly more relevant than random items";
}

TEST(SimulatorTest, DiversityAppetiteIsHeterogeneous) {
  SimConfig cfg = SmallConfig(DatasetKind::kMovieLens);
  cfg.num_users = 120;
  Dataset data = GenerateDataset(cfg, 5);
  int low = 0, high = 0;
  for (const User& u : data.users) {
    if (u.diversity_appetite < 0.35f) ++low;
    if (u.diversity_appetite > 0.75f) ++high;
  }
  EXPECT_GT(low, 10) << "need clearly focused users";
  EXPECT_GT(high, 10) << "need clearly diverse users";
}

TEST(CoverageTest, SingleItemMatchesItsTau) {
  Dataset data = GenerateDataset(SmallConfig(DatasetKind::kAppStore), 6);
  std::vector<int> list = {0};
  for (int j = 0; j < data.num_topics; ++j) {
    EXPECT_FLOAT_EQ(TopicCoverage(data, list, j),
                    data.items[0].topic_coverage[j]);
  }
}

TEST(CoverageTest, MonotoneInListLength) {
  Dataset data = GenerateDataset(SmallConfig(DatasetKind::kTaobao), 7);
  std::vector<int> list = {0, 1, 2, 3, 4, 5};
  for (int j = 0; j < data.num_topics; ++j) {
    float prev = 0.0f;
    for (int k = 1; k <= 6; ++k) {
      const float c = TopicCoverage(data, list, j, k);
      EXPECT_GE(c, prev - 1e-6f);
      prev = c;
    }
  }
}

TEST(CoverageTest, SubmodularDiminishingReturns) {
  // Adding an item to a superset yields no more gain than to a subset.
  Dataset data = GenerateDataset(SmallConfig(DatasetKind::kTaobao), 8);
  std::vector<int> small = {0, 1};
  std::vector<int> big = {0, 1, 2, 3};
  std::vector<int> small_plus = {0, 1, 10};
  std::vector<int> big_plus = {0, 1, 2, 3, 10};
  for (int j = 0; j < data.num_topics; ++j) {
    const float gain_small =
        TopicCoverage(data, small_plus, j) - TopicCoverage(data, small, j);
    const float gain_big =
        TopicCoverage(data, big_plus, j) - TopicCoverage(data, big, j);
    EXPECT_LE(gain_big, gain_small + 1e-6f);
  }
}

TEST(MarginalDiversityTest, MatchesDirectLeaveOneOut) {
  Dataset data = GenerateDataset(SmallConfig(DatasetKind::kTaobao), 9);
  std::vector<int> list = {3, 14, 15, 92, 65};
  auto md = MarginalDiversity(data, list);
  ASSERT_EQ(md.size(), list.size());
  for (size_t i = 0; i < list.size(); ++i) {
    std::vector<int> without = list;
    without.erase(without.begin() + i);
    for (int j = 0; j < data.num_topics; ++j) {
      const float expect =
          TopicCoverage(data, list, j) - TopicCoverage(data, without, j);
      EXPECT_NEAR(md[i][j], expect, 1e-5f);
    }
  }
}

TEST(MarginalDiversityTest, HandlesFullCoverageItems) {
  // One-hot items have tau exactly 1: leave-one-out must not divide by 0.
  Dataset data = GenerateDataset(SmallConfig(DatasetKind::kAppStore), 10);
  std::vector<int> list = {0, 1, 2, 3};
  auto md = MarginalDiversity(data, list);
  for (size_t i = 0; i < list.size(); ++i) {
    std::vector<int> without = list;
    without.erase(without.begin() + i);
    for (int j = 0; j < data.num_topics; ++j) {
      const float expect =
          TopicCoverage(data, list, j) - TopicCoverage(data, without, j);
      EXPECT_NEAR(md[i][j], expect, 1e-5f);
    }
  }
}

TEST(HistoryTest, TopicMembershipOneHot) {
  Item item;
  item.topic_coverage = {0.0f, 1.0f, 0.0f};
  auto topics = TopicMembership(item);
  ASSERT_EQ(topics.size(), 1u);
  EXPECT_EQ(topics[0], 1);
}

TEST(HistoryTest, TopicMembershipSoftFallsBackToArgmax) {
  Item item;
  item.topic_coverage = {0.2f, 0.15f, 0.1f, 0.24f, 0.21f};  // all < 0.25
  auto topics = TopicMembership(item);
  ASSERT_EQ(topics.size(), 1u);
  EXPECT_EQ(topics[0], 3);
}

TEST(HistoryTest, SplitRespectsMaxLenAndRecency) {
  Dataset data = GenerateDataset(SmallConfig(DatasetKind::kAppStore), 11);
  const int D = 3;
  auto seqs = SplitHistoryByTopic(data, 0, D);
  ASSERT_EQ(static_cast<int>(seqs.size()), data.num_topics);
  for (int j = 0; j < data.num_topics; ++j) {
    EXPECT_LE(static_cast<int>(seqs[j].size()), D);
    for (int v : seqs[j]) {
      auto topics = TopicMembership(data.item(v));
      EXPECT_TRUE(std::find(topics.begin(), topics.end(), j) != topics.end());
    }
  }
  // Every kept element appears in the original history.
  for (const auto& seq : seqs) {
    for (int v : seq) {
      EXPECT_TRUE(std::find(data.history[0].begin(), data.history[0].end(),
                            v) != data.history[0].end());
    }
  }
}

// The allocation-free step layout holds exactly SplitHistoryByTopic's
// sequences, left-padded to max_len, for every user, on soft (GMM) and
// multi-hot topic coverage alike.
TEST(HistoryTest, TopicHistoryStepsMatchSplitHistoryByTopic) {
  for (DatasetKind kind : {DatasetKind::kAppStore, DatasetKind::kTaobao}) {
    const Dataset data = GenerateDataset(SmallConfig(kind), 14);
    const int m = data.num_topics;
    const int qu = data.user_feature_dim();
    const int qv = data.item_feature_dim();
    for (int D : {1, 3, 5}) {
      std::vector<float> steps(static_cast<size_t>(D) * m * (qu + qv));
      std::vector<float> masks(static_cast<size_t>(D) * m);
      for (int u = 0; u < static_cast<int>(data.users.size()); ++u) {
        TopicHistoryStepsInto(data, u, D, steps.data(), masks.data());
        const auto seqs = SplitHistoryByTopic(data, u, D);
        for (int t = 0; t < D; ++t) {
          for (int j = 0; j < m; ++j) {
            const int len = static_cast<int>(seqs[j].size());
            const float* row =
                steps.data() + (static_cast<size_t>(t) * m + j) * (qu + qv);
            const bool real = t >= D - len;
            ASSERT_EQ(masks[static_cast<size_t>(t) * m + j], real ? 1.0f : 0.0f)
                << "user " << u << " step " << t << " topic " << j;
            std::vector<float> want(qu + qv, 0.0f);
            if (real) {
              const Item& item = data.item(seqs[j][t - (D - len)]);
              std::copy(data.users[u].features.begin(),
                        data.users[u].features.end(), want.begin());
              std::copy(item.features.begin(), item.features.end(),
                        want.begin() + qu);
            }
            ASSERT_EQ(std::vector<float>(row, row + qu + qv), want)
                << "user " << u << " step " << t << " topic " << j;
          }
        }
      }
    }
  }
}

TEST(HistoryTest, TopicDistributionSumsToOne) {
  Dataset data = GenerateDataset(SmallConfig(DatasetKind::kMovieLens), 12);
  auto dist = HistoryTopicDistribution(data, 1);
  float sum = std::accumulate(dist.begin(), dist.end(), 0.0f);
  EXPECT_NEAR(sum, 1.0f, 1e-4f);
}

TEST(GmmTest, RecoversWellSeparatedClusters) {
  std::mt19937_64 rng(13);
  std::normal_distribution<float> noise(0.0f, 0.3f);
  std::vector<std::vector<float>> points;
  const std::vector<std::vector<float>> centers = {
      {5.0f, 0.0f}, {-5.0f, 0.0f}, {0.0f, 5.0f}};
  for (int c = 0; c < 3; ++c) {
    for (int i = 0; i < 100; ++i) {
      points.push_back({centers[c][0] + noise(rng), centers[c][1] + noise(rng)});
    }
  }
  GaussianMixture gmm(3, 2);
  gmm.Fit(points, rng);
  // Every point's posterior should be confident (>0.95 on one component).
  int confident = 0;
  for (const auto& p : points) {
    auto post = gmm.Posterior(p);
    float mx = *std::max_element(post.begin(), post.end());
    if (mx > 0.95f) ++confident;
  }
  EXPECT_GT(confident, 290);
}

TEST(GmmTest, PosteriorIsDistribution) {
  std::mt19937_64 rng(14);
  std::vector<std::vector<float>> points;
  std::normal_distribution<float> n01(0.0f, 1.0f);
  for (int i = 0; i < 200; ++i) points.push_back({n01(rng), n01(rng), n01(rng)});
  GaussianMixture gmm(4, 3);
  gmm.Fit(points, rng);
  auto post = gmm.Posterior({0.5f, -0.2f, 1.0f});
  float sum = std::accumulate(post.begin(), post.end(), 0.0f);
  EXPECT_NEAR(sum, 1.0f, 1e-4f);
  for (float p : post) EXPECT_GE(p, 0.0f);
}

TEST(GmmTest, LogLikelihoodImprovesOverIterations) {
  std::mt19937_64 rng(15);
  std::vector<std::vector<float>> points;
  std::normal_distribution<float> a(2.0f, 0.5f), b(-2.0f, 0.5f);
  for (int i = 0; i < 100; ++i) {
    points.push_back({a(rng)});
    points.push_back({b(rng)});
  }
  GaussianMixture one_iter(2, 1);
  std::mt19937_64 rng1(99);
  one_iter.Fit(points, rng1, /*max_iters=*/1);
  GaussianMixture many_iter(2, 1);
  std::mt19937_64 rng2(99);
  many_iter.Fit(points, rng2, /*max_iters=*/50);
  EXPECT_GE(many_iter.log_likelihood(), one_iter.log_likelihood() - 1e-9);
}

}  // namespace
}  // namespace rapid::data
