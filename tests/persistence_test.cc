#include <gtest/gtest.h>

#include "click/dcm.h"
#include "core/rapid.h"
#include "datagen/simulator.h"
#include "rerank/neural_models.h"
#include "test_paths.h"

namespace rapid {
namespace {

class PersistenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data::SimConfig cfg;
    cfg.kind = data::DatasetKind::kTaobao;
    cfg.num_users = 20;
    cfg.num_items = 120;
    cfg.rerank_lists_per_user = 2;
    data_ = data::GenerateDataset(cfg, 101);
    click::GroundTruthClickModel dcm(&data_, click::DcmConfig{});
    std::mt19937_64 rng(2);
    for (const data::Request& req : data_.rerank_train_requests) {
      data::ImpressionList list;
      list.user_id = req.user_id;
      list.items.assign(req.candidates.begin(), req.candidates.begin() + 10);
      for (int i = 0; i < 10; ++i) list.scores.push_back(1.0f - 0.05f * i);
      list.clicks = dcm.SimulateClicks(list.user_id, list.items, rng);
      train_.push_back(std::move(list));
    }
  }
  data::Dataset data_;
  std::vector<data::ImpressionList> train_;
};

TEST_F(PersistenceTest, PrmSaveLoadPreservesScores) {
  rerank::NeuralRerankConfig cfg;
  cfg.epochs = 1;
  rerank::PrmReranker trained(cfg);
  trained.Fit(data_, train_, 5);
  const std::string path = test::UniqueTempPath("prm.bin");
  ASSERT_TRUE(trained.SaveModel(path));

  rerank::PrmReranker restored(cfg);
  ASSERT_TRUE(restored.LoadModel(data_, path));
  const auto a = trained.ScoreList(data_, train_[0]);
  const auto b = restored.ScoreList(data_, train_[0]);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_FLOAT_EQ(a[i], b[i]);
}

TEST_F(PersistenceTest, RapidSaveLoadPreservesScoresAndTheta) {
  core::RapidConfig cfg;
  cfg.train.epochs = 1;
  cfg.hidden_dim = 8;
  core::RapidReranker trained(cfg);
  trained.Fit(data_, train_, 6);
  const std::string path = test::UniqueTempPath("rapid.bin");
  ASSERT_TRUE(trained.SaveModel(path));

  core::RapidReranker restored(cfg);
  ASSERT_TRUE(restored.LoadModel(data_, path));
  EXPECT_EQ(trained.Rerank(data_, train_[1]),
            restored.Rerank(data_, train_[1]));
  EXPECT_EQ(trained.PreferenceDistribution(data_, 0),
            restored.PreferenceDistribution(data_, 0));
}

TEST_F(PersistenceTest, MismatchedConfigurationFailsToLoad) {
  core::RapidConfig cfg;
  cfg.train.epochs = 1;
  cfg.hidden_dim = 8;
  core::RapidReranker trained(cfg);
  trained.Fit(data_, train_, 7);
  const std::string path = test::UniqueTempPath("rapid2.bin");
  ASSERT_TRUE(trained.SaveModel(path));

  core::RapidConfig other = cfg;
  other.hidden_dim = 16;  // Different shapes.
  core::RapidReranker restored(other);
  EXPECT_FALSE(restored.LoadModel(data_, path));
}

TEST_F(PersistenceTest, LoadFromMissingFileFails) {
  rerank::NeuralRerankConfig cfg;
  rerank::DlcmReranker model(cfg);
  EXPECT_FALSE(model.LoadModel(data_, "/nonexistent/model.bin"));
}

TEST_F(PersistenceTest, PairwiseLossTrainsDesa) {
  rerank::NeuralRerankConfig cfg = rerank::DesaReranker::PairwiseConfig();
  cfg.epochs = 2;
  EXPECT_EQ(cfg.loss, rerank::RerankLoss::kPairwiseLogistic);
  rerank::DesaReranker desa(cfg);
  desa.Fit(data_, train_, 8);
  EXPECT_TRUE(std::isfinite(desa.final_loss()));
  EXPECT_GT(desa.final_loss(), 0.0f);
  auto out = desa.Rerank(data_, train_[0]);
  EXPECT_EQ(out.size(), train_[0].items.size());
}

TEST_F(PersistenceTest, PairwiseLossDecreasesWithTraining) {
  rerank::NeuralRerankConfig cfg = rerank::DesaReranker::PairwiseConfig();
  cfg.epochs = 1;
  rerank::DesaReranker one(cfg);
  one.Fit(data_, train_, 9);
  cfg.epochs = 6;
  rerank::DesaReranker six(cfg);
  six.Fit(data_, train_, 9);
  EXPECT_LT(six.final_loss(), one.final_loss());
}

TEST_F(PersistenceTest, PairwiseFallsBackOnDegenerateLists) {
  // All-clicked and no-clicked lists have no pairs; training must still
  // run via the pointwise fallback.
  std::vector<data::ImpressionList> degenerate = train_;
  for (auto& list : degenerate) {
    std::fill(list.clicks.begin(), list.clicks.end(), 0);
  }
  rerank::NeuralRerankConfig cfg = rerank::DesaReranker::PairwiseConfig();
  cfg.epochs = 1;
  rerank::DesaReranker desa(cfg);
  desa.Fit(data_, degenerate, 10);
  EXPECT_TRUE(std::isfinite(desa.final_loss()));
}

}  // namespace
}  // namespace rapid
