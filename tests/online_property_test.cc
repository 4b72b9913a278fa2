// Property suite for the online-learning loop (online/feedback.h,
// online/trainer.h, online/policy.h): the ROADMAP invariant is that
// feedback -> trainer -> publish preserves slot wrappers and version
// monotonicity. Under arbitrary feedback schedules,
//
//   - the feedback log stays a bounded FIFO that drops (never blocks) at
//     capacity, with exact appended/dropped/drained accounting;
//   - every version the slot ever exposes is non-decreasing over time and
//     each accepted publish lands a strictly newer version;
//   - the UCB wrapper set on the slot survives every republish (the
//     published model's name keeps the "UCB(" envelope);
//   - the republished slot still serves permutations of its input.
//
// Counterexamples shrink to a minimal schedule and print a replayable
// seed (see tests/proptest.h).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <future>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "click/dcm.h"
#include "core/rapid.h"
#include "datagen/simulator.h"
#include "online/feedback.h"
#include "online/policy.h"
#include "online/trainer.h"
#include "proptest.h"
#include "serve/router.h"
#include "serve/snapshot.h"
#include "test_paths.h"

namespace rapid {
namespace {

using namespace std::chrono_literals;

// ---------------------------------------------------------------------------
// FeedbackLog: bounded FIFO with drop-never-block accounting.

struct LogOp {
  bool append = true;
  int drain = 1;  // Max events drained when !append.
};

struct LogSchedule {
  int capacity = 4;
  std::vector<LogOp> ops;
};

TEST(OnlinePropertyTest, FeedbackLogIsABoundedFifoThatDropsNeverBlocks) {
  EXPECT_TRUE(proptest::ForAll(
      /*seed=*/20260840, /*trials=*/100,
      [](std::mt19937_64& rng) {
        LogSchedule schedule;
        std::uniform_int_distribution<int> capacity(1, 8);
        std::uniform_int_distribution<int> len(1, 60);
        std::uniform_int_distribution<int> kind(0, 2);
        std::uniform_int_distribution<int> drain(1, 6);
        schedule.capacity = capacity(rng);
        schedule.ops.resize(static_cast<size_t>(len(rng)));
        for (LogOp& op : schedule.ops) {
          op.append = kind(rng) != 0;  // Bias toward appends to hit the cap.
          op.drain = drain(rng);
        }
        return schedule;
      },
      [](const LogSchedule& schedule) {
        std::vector<LogSchedule> out;
        for (std::vector<LogOp>& ops : proptest::ShrinkOps(schedule.ops)) {
          out.push_back({schedule.capacity, std::move(ops)});
        }
        return out;
      },
      [](const LogSchedule& schedule) {
        online::FeedbackLogConfig config;
        config.capacity = static_cast<size_t>(schedule.capacity);
        online::FeedbackLog log(config);
        std::deque<int> model;
        uint64_t appended = 0, dropped = 0, drained = 0;
        int next_user = 0;
        for (const LogOp& op : schedule.ops) {
          if (op.append) {
            online::FeedbackEvent event;
            event.slot = "online";
            event.list.user_id = next_user;
            event.list.items = {0, 1, 2};
            event.list.clicks = {1, 0, 1};
            const bool accepted = log.Append(std::move(event));
            const bool expect_accept =
                model.size() < static_cast<size_t>(schedule.capacity);
            if (accepted != expect_accept) return false;
            if (accepted) {
              model.push_back(next_user);
              ++appended;
            } else {
              ++dropped;
            }
            ++next_user;
            continue;
          }
          std::vector<online::FeedbackEvent> batch;
          const size_t got =
              log.Drain(static_cast<size_t>(op.drain), &batch);
          const size_t expect =
              std::min(model.size(), static_cast<size_t>(op.drain));
          if (got != expect || batch.size() != expect) return false;
          for (const online::FeedbackEvent& event : batch) {
            if (model.empty() || event.list.user_id != model.front()) {
              return false;  // FIFO violated.
            }
            model.pop_front();
            ++drained;
          }
        }
        if (log.size() != model.size()) return false;
        serve::OnlineStats stats;
        log.FillStats(&stats);
        return stats.feedback_appended == appended &&
               stats.feedback_dropped == dropped &&
               stats.feedback_drained == drained;
      },
      [](const LogSchedule& schedule) {
        std::ostringstream os;
        os << "capacity=" << schedule.capacity << " ops=[";
        for (const LogOp& op : schedule.ops) {
          os << (op.append ? "A" : ("d" + std::to_string(op.drain)));
        }
        os << "]";
        return os.str();
      }));
}

// ---------------------------------------------------------------------------
// The full loop: feedback -> trainer -> canary-guarded publish.

class OnlineLoopPropertyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data::SimConfig cfg;
    cfg.kind = data::DatasetKind::kTaobao;
    cfg.num_users = 15;
    cfg.num_items = 100;
    cfg.rerank_lists_per_user = 2;
    data_ = data::GenerateDataset(cfg, 77);
    click::GroundTruthClickModel dcm(&data_, click::DcmConfig{});
    std::mt19937_64 rng(3);
    for (const data::Request& req : data_.rerank_train_requests) {
      data::ImpressionList list;
      list.user_id = req.user_id;
      list.items.assign(req.candidates.begin(), req.candidates.begin() + 10);
      for (int i = 0; i < 10; ++i) list.scores.push_back(1.0f - 0.05f * i);
      list.clicks = dcm.SimulateClicks(list.user_id, list.items, rng);
      train_.push_back(std::move(list));
    }
  }

  std::unique_ptr<core::RapidReranker> FittedModel(uint64_t seed) {
    core::RapidConfig cfg;
    cfg.train.epochs = 1;
    cfg.hidden_dim = 8;
    auto model = std::make_unique<core::RapidReranker>(cfg);
    model->Fit(data_, train_, seed);
    return model;
  }

  /// Polls `predicate` until it holds or ~5s elapse.
  template <typename Predicate>
  static bool Eventually(Predicate predicate) {
    for (int i = 0; i < 500; ++i) {
      if (predicate()) return true;
      std::this_thread::sleep_for(10ms);
    }
    return predicate();
  }

  data::Dataset data_;
  std::vector<data::ImpressionList> train_;
};

struct LoopRun {
  int first_wave = 2;   // Feedback events before the first publish check.
  int second_wave = 2;  // Events appended afterwards to force a republish.
};

TEST_F(OnlineLoopPropertyTest, PublishesKeepVersionsMonotoneAndWrapperIntact) {
  int trial_id = 0;
  EXPECT_TRUE(proptest::ForAll(
      /*seed=*/20260841, /*trials=*/3,
      [](std::mt19937_64& rng) {
        std::uniform_int_distribution<int> wave(1, 6);
        LoopRun run;
        run.first_wave = wave(rng);
        run.second_wave = wave(rng);
        return run;
      },
      [](const LoopRun& run) {
        std::vector<LoopRun> out;
        if (run.first_wave > 1) out.push_back({1, run.second_wave});
        if (run.second_wave > 1) out.push_back({run.first_wave, 1});
        return out;
      },
      [&, this](const LoopRun& run) {
        serve::ServingRouter router(data_, {});
        auto pulls = std::make_shared<online::PullCounts>();
        router.SetSlotWrapper(
            "online", [pulls](std::shared_ptr<const rerank::Reranker> model) {
              online::OnlinePolicyConfig cfg;
              cfg.exploration = 0.0;  // Deterministic envelope.
              return std::make_shared<const online::OnlinePolicy>(
                  std::move(model), pulls, cfg);
            });

        const std::string initial_path = test::UniqueTempPath(
            "online_prop_initial_" + std::to_string(trial_id) + ".rsnp");
        if (!serve::Snapshot::Save(initial_path, *FittedModel(6), data_)) {
          return false;
        }
        const uint64_t initial = router.LoadSlot("online", initial_path);
        if (initial == 0) return false;

        online::FeedbackLog log;
        online::OnlineTrainerConfig cfg;
        cfg.slot = "online";
        cfg.min_batch = 1;
        cfg.max_batch = 4;
        cfg.publish_every_rounds = 1;
        cfg.poll_interval = 5ms;
        cfg.snapshot_path = test::UniqueTempPath("online_prop_pub_") +
                            std::to_string(trial_id++) + ".rsnp";
        online::OnlineTrainer trainer(data_, &router, &log, FittedModel(7),
                                      cfg);
        trainer.Start();

        // Version monotonicity is checked on every sample the slot ever
        // exposes, not just the endpoints.
        uint64_t last_seen = initial;
        auto versions_monotone = [&] {
          const uint64_t now = router.SlotVersion("online");
          if (now < last_seen) return false;
          last_seen = now;
          return true;
        };

        auto feed = [&](int events) {
          for (int i = 0; i < events; ++i) {
            online::FeedbackEvent event;
            event.slot = "online";
            event.model_version = last_seen;
            event.list = train_[static_cast<size_t>(i) % train_.size()];
            if (!log.Append(std::move(event))) return false;
          }
          return true;
        };

        if (!feed(run.first_wave)) return false;
        bool monotone = true;
        if (!Eventually([&] {
              monotone = monotone && versions_monotone();
              return trainer.Stats().publishes >= 1;
            })) {
          return false;
        }
        const serve::OnlineStats first_stats = trainer.Stats();
        const uint64_t after_first = first_stats.last_published_version;
        if (after_first <= initial) return false;  // Publish moved forward.

        if (!feed(run.second_wave)) return false;
        if (!Eventually([&] {
              monotone = monotone && versions_monotone();
              return trainer.Stats().publishes >= first_stats.publishes + 1;
            })) {
          return false;
        }
        trainer.Stop();
        if (!monotone || !versions_monotone()) return false;

        const serve::OnlineStats stats = trainer.Stats();
        if (stats.last_published_version <= after_first) return false;
        if (router.SlotVersion("online") != stats.last_published_version) {
          return false;
        }

        // The wrapper survived every republish: the live model still
        // carries the UCB envelope.
        const serve::RouterStats router_stats = router.stats();
        if (router_stats.slots.size() != 1) return false;
        if (router_stats.slots[0].model_name.rfind("UCB(", 0) != 0) {
          return false;
        }

        // And the republished slot still serves permutations.
        serve::RouterRequest request;
        request.slot = "online";
        request.list = train_.front();
        request.list.clicks.clear();
        std::vector<int> sorted = request.list.items;
        const serve::RouterResponse response =
            router.Submit(std::move(request)).get();
        if (response.degraded) return false;
        std::vector<int> items = response.items;
        std::sort(items.begin(), items.end());
        std::sort(sorted.begin(), sorted.end());
        router.Shutdown();
        return items == sorted;
      },
      [](const LoopRun& run) {
        std::ostringstream os;
        os << "first_wave=" << run.first_wave
           << " second_wave=" << run.second_wave;
        return os.str();
      }));
}

}  // namespace
}  // namespace rapid
