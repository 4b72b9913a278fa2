// Property suite for the graph-free inference path
// (`NeuralReranker::InferBatchLogits`, implemented by RAPID): for every
// RAPID config that takes it, the flat kernel sequence must produce the
// same bits as the autograd forward `BuildBatchLogits` under no-grad, on
// the scalar and the AVX2 backend alike. servebench cannot see a
// divergence (its oracle model takes the same path), so this suite is the
// check that the two forwards agree.
//
// The grid covers batch sizes B in {1, 2, 3, 8} and list lengths L in
// {1, 2, 20}, with a repeated list and a repeated user inside each batch
// of two or more, across both output heads, all three diversity
// functions, all three topic aggregators and hidden sizes whose gate
// widths hit the AVX2 full-tile, half-tile and masked-tail paths.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "click/dcm.h"
#include "core/rapid.h"
#include "datagen/simulator.h"
#include "nn/kernels.h"
#include "nn/variable.h"
#include "nn/workspace.h"
#include "proptest.h"

namespace rapid {
namespace {

namespace kernel = nn::kernel;

/// Exposes both forwards of a RAPID model: the protected graph forward
/// (under no-grad, exactly as `ScoreBatchInto` runs it for families
/// without the hook) and the hook itself.
class TwoPathRapid : public core::RapidReranker {
 public:
  using core::RapidReranker::RapidReranker;

  std::vector<float> GraphLogits(
      const data::Dataset& data,
      const std::vector<const data::ImpressionList*>& lists) const {
    nn::NoGradScope no_grad;
    std::mt19937_64 rng(0);
    const nn::Variable logits =
        BuildBatchLogits(data, lists, /*training=*/false, rng);
    return {logits.value().data(), logits.value().data() + logits.rows()};
  }

  /// Empty when the config has no graph-free path.
  std::vector<float> InferLogits(
      const data::Dataset& data,
      const std::vector<const data::ImpressionList*>& lists) const {
    nn::Workspace& ws = nn::Workspace::ThisThread();
    nn::Workspace::Scope scope(ws);
    std::vector<float> out(lists.size() * lists[0]->items.size());
    if (!InferBatchLogits(data, lists, ws, out.data())) return {};
    return out;
  }
};

struct Variant {
  core::OutputHead head;
  core::DiversityAggregator aggregator;
  core::DiversityFunctionKind diversity;
  int hidden;
};

// Every head, aggregator and diversity function appears at least once;
// hidden 16, 8 and 6 give gate widths 64, 32 and 24 (AVX2 16-wide tiles,
// 8-wide tiles, masked tails).
const Variant kVariants[] = {
    {core::OutputHead::kProbabilistic, core::DiversityAggregator::kLstm,
     core::DiversityFunctionKind::kProbabilisticCoverage, 16},
    {core::OutputHead::kDeterministic, core::DiversityAggregator::kLstm,
     core::DiversityFunctionKind::kConcaveOverModular, 8},
    {core::OutputHead::kProbabilistic, core::DiversityAggregator::kMean,
     core::DiversityFunctionKind::kSaturatingLinear, 6},
    {core::OutputHead::kDeterministic, core::DiversityAggregator::kMean,
     core::DiversityFunctionKind::kProbabilisticCoverage, 16},
    {core::OutputHead::kProbabilistic, core::DiversityAggregator::kNone,
     core::DiversityFunctionKind::kProbabilisticCoverage, 8},
    {core::OutputHead::kDeterministic, core::DiversityAggregator::kNone,
     core::DiversityFunctionKind::kSaturatingLinear, 6},
    {core::OutputHead::kProbabilistic, core::DiversityAggregator::kLstm,
     core::DiversityFunctionKind::kSaturatingLinear, 6},
};

/// The dataset, its candidate pools and one fitted model per variant,
/// built once per process and then only read.
struct Fixture {
  data::Dataset data;
  std::vector<std::unique_ptr<TwoPathRapid>> models;

  Fixture() {
    data::SimConfig cfg;
    cfg.kind = data::DatasetKind::kTaobao;
    cfg.num_users = 16;
    cfg.num_items = 120;
    cfg.rerank_lists_per_user = 2;
    data = data::GenerateDataset(cfg, 404);
    click::GroundTruthClickModel dcm(&data, click::DcmConfig{});
    std::mt19937_64 rng(5);
    std::vector<data::ImpressionList> train;
    for (const data::Request& req : data.rerank_train_requests) {
      data::ImpressionList list;
      list.user_id = req.user_id;
      list.items.assign(req.candidates.begin(), req.candidates.begin() + 10);
      for (int i = 0; i < 10; ++i) list.scores.push_back(1.0f - 0.05f * i);
      list.clicks = dcm.SimulateClicks(list.user_id, list.items, rng);
      train.push_back(std::move(list));
    }
    for (const Variant& v : kVariants) {
      core::RapidConfig rc;
      rc.head = v.head;
      rc.diversity_aggregator = v.aggregator;
      rc.diversity_function = v.diversity;
      rc.hidden_dim = v.hidden;
      rc.train.hidden_dim = v.hidden;
      rc.train.epochs = 1;
      models.push_back(std::make_unique<TwoPathRapid>(rc));
      models.back()->Fit(data, train, 9);
    }
  }
};

const Fixture& Shared() {
  static const Fixture* fixture = new Fixture();
  return *fixture;
}

/// A same-length batch: list `b` takes `L` random distinct candidates of a
/// random request, with random initial scores. With `B >= 2`, list 1
/// repeats list 0; with `B >= 3`, list 2 is a different list of list 0's
/// user.
std::vector<data::ImpressionList> RandomBatch(int B, int L,
                                              std::mt19937_64& rng) {
  const Fixture& f = Shared();
  const auto& requests = f.data.rerank_train_requests;
  std::uniform_int_distribution<size_t> pick(0, requests.size() - 1);
  std::uniform_real_distribution<float> score(-2.0f, 2.0f);
  std::vector<data::ImpressionList> lists(static_cast<size_t>(B));
  for (int b = 0; b < B; ++b) {
    const data::Request& req = requests[pick(rng)];
    std::vector<int> pool = req.candidates;
    std::shuffle(pool.begin(), pool.end(), rng);
    data::ImpressionList& list = lists[static_cast<size_t>(b)];
    list.user_id = req.user_id;
    list.items.assign(pool.begin(), pool.begin() + L);
    for (int i = 0; i < L; ++i) list.scores.push_back(score(rng));
  }
  if (B >= 2) lists[1] = lists[0];
  if (B >= 3) lists[2].user_id = lists[0].user_id;
  return lists;
}

/// Number of logits whose bits differ between the two paths (every logit
/// counts as differing when the hook declines or the sizes disagree).
size_t DifferingLogits(const TwoPathRapid& model,
                       const std::vector<data::ImpressionList>& lists) {
  const Fixture& f = Shared();
  std::vector<const data::ImpressionList*> ptrs;
  for (const data::ImpressionList& list : lists) ptrs.push_back(&list);
  const std::vector<float> graph = model.GraphLogits(f.data, ptrs);
  const std::vector<float> infer = model.InferLogits(f.data, ptrs);
  if (infer.size() != graph.size()) return graph.size();
  size_t differing = 0;
  for (size_t i = 0; i < graph.size(); ++i) {
    differing += std::memcmp(&graph[i], &infer[i], sizeof(float)) != 0;
  }
  // The public entry point must serve the same bits.
  const std::vector<std::vector<float>> served = model.ScoreBatch(f.data, ptrs);
  for (size_t b = 0; b < lists.size(); ++b) {
    const size_t L = lists[b].items.size();
    if (std::memcmp(served[b].data(), graph.data() + b * L,
                    L * sizeof(float)) != 0) {
      ++differing;
    }
  }
  return differing;
}

std::vector<kernel::Backend> Backends() {
  std::vector<kernel::Backend> out = {kernel::Backend::kScalar};
  if (kernel::Avx2Available()) out.push_back(kernel::Backend::kAvx2);
  return out;
}

TEST(InferPropertyTest, InferPathIsBitwiseEqualToGraphOnEveryBackend) {
  const Fixture& f = Shared();
  if (!kernel::Avx2Available()) {
    std::fprintf(stderr, "[infer] AVX2 unavailable: scalar backend only\n");
  }
  std::mt19937_64 rng(proptest::SeedFromEnv(20261021));
  size_t compared = 0;
  for (kernel::Backend backend : Backends()) {
    kernel::ScopedBackendOverride force(backend);
    for (size_t v = 0; v < f.models.size(); ++v) {
      for (int B : {1, 2, 3, 8}) {
        for (int L : {1, 2, 20}) {
          const std::vector<data::ImpressionList> lists =
              RandomBatch(B, L, rng);
          EXPECT_EQ(DifferingLogits(*f.models[v], lists), 0u)
              << kernel::BackendName(backend) << " "
              << f.models[v]->name() << " hidden " << kVariants[v].hidden
              << " B=" << B << " L=" << L;
          compared += static_cast<size_t>(B) * L;
        }
      }
    }
  }
  EXPECT_GT(compared, 0u);
}

/// Random shapes beyond the grid, shrinking to the smallest failing batch.
struct Shape {
  int variant = 0;
  int B = 1;
  int L = 1;
  uint64_t seed = 0;
};

testing::AssertionResult HoldsForRandomShapes(kernel::Backend backend,
                                              uint64_t seed) {
  kernel::ScopedBackendOverride force(backend);
  const Fixture& f = Shared();
  return proptest::ForAll(
      seed, /*trials=*/16,
      [&f](std::mt19937_64& rng) {
        Shape s;
        s.variant = std::uniform_int_distribution<int>(
            0, static_cast<int>(f.models.size()) - 1)(rng);
        s.B = std::uniform_int_distribution<int>(1, 13)(rng);
        s.L = std::uniform_int_distribution<int>(1, 20)(rng);
        s.seed = rng();
        return s;
      },
      [](const Shape& s) {
        std::vector<Shape> smaller;
        if (s.B > 1) smaller.push_back({s.variant, s.B / 2, s.L, s.seed});
        if (s.L > 1) smaller.push_back({s.variant, s.B, s.L / 2, s.seed});
        return smaller;
      },
      [&f](const Shape& s) {
        std::mt19937_64 rng(s.seed);
        return DifferingLogits(*f.models[static_cast<size_t>(s.variant)],
                               RandomBatch(s.B, s.L, rng)) == 0;
      },
      [&f](const Shape& s) {
        std::ostringstream os;
        os << f.models[static_cast<size_t>(s.variant)]->name() << " hidden "
           << kVariants[s.variant].hidden << " B=" << s.B << " L=" << s.L;
        return os.str();
      });
}

TEST(InferPropertyTest, RandomShapesMatchGraphOnScalar) {
  EXPECT_TRUE(HoldsForRandomShapes(kernel::Backend::kScalar, 20261022));
}

TEST(InferPropertyTest, RandomShapesMatchGraphOnAvx2) {
  if (!kernel::Avx2Available()) GTEST_SKIP() << "AVX2 unavailable";
  EXPECT_TRUE(HoldsForRandomShapes(kernel::Backend::kAvx2, 20261023));
}

// RAPID-trans has no graph-free path: the hook declines and
// `ScoreBatchInto` keeps serving the graph forward.
TEST(InferPropertyTest, TransformerEncoderKeepsTheGraphPath) {
  const Fixture& f = Shared();
  core::RapidConfig rc;
  rc.relevance_encoder = core::RelevanceEncoder::kTransformer;
  rc.hidden_dim = 8;
  rc.train.hidden_dim = 8;
  rc.train.epochs = 1;
  TwoPathRapid trans(rc);
  std::vector<data::ImpressionList> train;
  std::mt19937_64 rng(3);
  train = RandomBatch(4, 10, rng);
  for (data::ImpressionList& list : train) list.clicks.assign(10, 0);
  train[0].clicks[0] = 1;
  trans.Fit(f.data, train, 1);
  const std::vector<data::ImpressionList> lists = RandomBatch(3, 5, rng);
  std::vector<const data::ImpressionList*> ptrs;
  for (const data::ImpressionList& list : lists) ptrs.push_back(&list);
  EXPECT_TRUE(trans.InferLogits(f.data, ptrs).empty());
  const std::vector<float> graph = trans.GraphLogits(f.data, ptrs);
  const std::vector<std::vector<float>> served = trans.ScoreBatch(f.data, ptrs);
  for (size_t b = 0; b < lists.size(); ++b) {
    EXPECT_EQ(0, std::memcmp(served[b].data(), graph.data() + b * 5,
                             5 * sizeof(float)));
  }
}

}  // namespace
}  // namespace rapid
