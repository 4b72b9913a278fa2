// Multi-model router harness: exercises the two claims the serving router
// exists to make measurable.
//
//  1. "swap": hot snapshot swap under sustained load. Two RAPID variants
//     are trained and snapshotted; submitter threads keep a slot saturated
//     while the main thread repeatedly `LoadSlot`s the other snapshot into
//     it. Reported: completed/submitted (must match — zero drops),
//     degraded count, responses per published version (attribution), swap
//     latencies, and throughput.
//
//  2. "admission": shed-vs-block under a burst that exceeds service
//     capacity. The same burst is replayed against a `kBlock` router
//     (requests queue up; tail latency grows with burst size) and a
//     `kShed` router (requests above the low-lane watermark get an
//     immediate fallback answer; tail latency stays bounded by the
//     watermark). Reported: p50/p99 and shed counts for both policies.
//
// Output is one JSON object on stdout (perf-trajectory artifact); progress
// goes to stderr.
//
//   ./build/bench/bench_router            # full run
//   ./build/bench/bench_router --quick    # smaller burst (smoke test)

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "serve/router.h"
#include "serve/snapshot.h"

namespace {

using Clock = std::chrono::steady_clock;

// Emulates the feature-store fetch that precedes scoring in a live
// recommender; makes one request's service time predictable so the
// admission comparison is about queueing, not model jitter.
class StallReranker : public rapid::rerank::Reranker {
 public:
  StallReranker(const rapid::rerank::Reranker& inner, int stall_us)
      : inner_(inner), stall_us_(stall_us) {}

  std::string name() const override { return inner_.name() + "+stall"; }

  std::vector<int> Rerank(
      const rapid::data::Dataset& data,
      const rapid::data::ImpressionList& list) const override {
    if (stall_us_ > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(stall_us_));
    }
    return inner_.Rerank(data, list);
  }

 private:
  const rapid::rerank::Reranker& inner_;
  const int stall_us_;
};

double ElapsedMs(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rapid;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }

  eval::PipelineConfig config;
  config.sim.kind = data::DatasetKind::kTaobao;
  config.sim.num_users = 60;
  config.sim.num_items = 400;
  config.sim.rerank_lists_per_user = 4;
  config.sim.test_lists_per_user = 2;
  config.dcm.lambda = 0.9f;
  config.seed = 2023;

  std::fprintf(stderr, "[router] building environment...\n");
  eval::Environment env(config, bench::StandardDin());

  // Two serving candidates for the A/B slot: the paper's probabilistic
  // head and the deterministic ablation. Throughput is weight-agnostic, so
  // training is kept minimal.
  std::fprintf(stderr, "[router] training two RAPID variants...\n");
  const std::string path_a = "/tmp/bench_router_a.rsnp";
  const std::string path_b = "/tmp/bench_router_b.rsnp";
  {
    core::RapidConfig cfg = bench::BenchRapidConfig();
    cfg.train.epochs = 2;
    core::RapidReranker model_a(cfg);
    model_a.Fit(env.dataset(), env.train_lists(), /*seed=*/7);
    cfg.head = core::OutputHead::kDeterministic;
    core::RapidReranker model_b(cfg);
    model_b.Fit(env.dataset(), env.train_lists(), /*seed=*/8);
    if (!serve::Snapshot::Save(path_a, model_a, env.dataset()) ||
        !serve::Snapshot::Save(path_b, model_b, env.dataset())) {
      std::fprintf(stderr, "[router] snapshot save failed\n");
      return 1;
    }
  }

  // ---------------------------------------------------------------- swap
  const int submitters = 4;
  const int requests_per_submitter = quick ? 100 : 400;
  const int swaps = quick ? 6 : 12;
  const int total = submitters * requests_per_submitter;

  const nn::arena::GlobalStats swap_arena_start =
      nn::arena::GlobalArenaStats();
  serve::RouterConfig router_cfg;
  router_cfg.num_threads = 4;
  router_cfg.max_batch = 4;
  router_cfg.max_wait_us = 100;
  router_cfg.queue_capacity = 256;
  serve::ServingRouter router(env.dataset(), router_cfg);
  if (router.LoadSlot("main", path_a) == 0) {
    std::fprintf(stderr, "[router] initial LoadSlot failed\n");
    return 1;
  }

  std::fprintf(stderr, "[router] swap-under-load: %d reqs, %d swaps...\n",
               total, swaps);
  std::vector<std::future<serve::RouterResponse>> futures(total);
  std::vector<std::thread> threads;
  const auto t0 = Clock::now();
  for (int s = 0; s < submitters; ++s) {
    threads.emplace_back([&, s] {
      for (int i = 0; i < requests_per_submitter; ++i) {
        serve::RouterRequest req;
        req.slot = "main";
        req.list = env.test_lists()[(s * requests_per_submitter + i) %
                                    env.test_lists().size()];
        futures[s * requests_per_submitter + i] = router.Submit(std::move(req));
      }
    });
  }
  // Alternate the slot between the two snapshots while the stream runs;
  // each LoadSlot builds the model off the worker threads and publishes it
  // atomically, so the only observable effect is the version histogram.
  std::vector<double> swap_ms;
  for (int i = 0; i < swaps; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(quick ? 20 : 40));
    const auto s0 = Clock::now();
    const uint64_t version =
        router.LoadSlot("main", (i % 2 == 0) ? path_b : path_a);
    swap_ms.push_back(ElapsedMs(s0));
    if (version == 0) {
      std::fprintf(stderr, "[router] mid-run LoadSlot failed\n");
      return 1;
    }
  }
  for (auto& t : threads) t.join();

  uint64_t completed = 0, degraded = 0;
  std::map<uint64_t, uint64_t> by_version;
  for (auto& f : futures) {
    const serve::RouterResponse r = f.get();
    ++completed;
    if (r.degraded) {
      ++degraded;
    } else {
      ++by_version[r.model_version];
    }
  }
  const double swap_secs =
      std::chrono::duration<double>(Clock::now() - t0).count();
  router.Shutdown();
  serve::RouterStats swap_stats = router.stats();
  bench::ArenaCountersSince(swap_arena_start, &swap_stats.total);

  double swap_ms_max = 0.0, swap_ms_sum = 0.0;
  for (double ms : swap_ms) {
    swap_ms_sum += ms;
    if (ms > swap_ms_max) swap_ms_max = ms;
  }
  std::string versions_json;
  for (const auto& [version, count] : by_version) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s\"%llu\": %llu",
                  versions_json.empty() ? "" : ", ",
                  static_cast<unsigned long long>(version),
                  static_cast<unsigned long long>(count));
    versions_json += buf;
  }
  std::fprintf(stderr,
               "[router] swap: %llu/%d completed, %llu degraded, %zu versions "
               "served, swap mean=%.1fms max=%.1fms, %.0f req/s\n",
               static_cast<unsigned long long>(completed), total,
               static_cast<unsigned long long>(degraded), by_version.size(),
               swap_ms.empty() ? 0.0 : swap_ms_sum / swap_ms.size(),
               swap_ms_max, completed / swap_secs);

  // ----------------------------------------------------- admission burst
  // Service capacity: 2 workers x 1ms per request. The burst outruns it by
  // design, so queueing policy is the only thing that differs between the
  // two routers.
  const int burst = quick ? 400 : 1600;
  const int stall_us = 1000;
  const auto loaded = serve::Snapshot::Load(path_a, env.dataset());
  if (loaded == nullptr) {
    std::fprintf(stderr, "[router] snapshot reload failed\n");
    return 1;
  }
  const auto stalled =
      std::make_shared<const StallReranker>(*loaded, stall_us);

  struct PolicyResult {
    serve::ServingStats stats;
    double submit_ms = 0.0;
    uint64_t shed = 0;
  };
  auto run_policy = [&](serve::AdmissionPolicy policy) {
    const nn::arena::GlobalStats arena_start = nn::arena::GlobalArenaStats();
    serve::RouterConfig cfg;
    cfg.num_threads = 2;
    cfg.max_batch = 1;
    cfg.max_wait_us = 0;
    cfg.queue_capacity = 4096;  // Big enough that kBlock never blocks here.
    cfg.admission.policy = policy;
    cfg.admission.low_lane_watermark = 64;
    serve::ServingRouter r(env.dataset(), cfg);
    r.InstallSlot("main", stalled);

    std::vector<std::future<serve::RouterResponse>> fs;
    fs.reserve(burst);
    const auto b0 = Clock::now();
    for (int i = 0; i < burst; ++i) {
      serve::RouterRequest req;
      req.slot = "main";
      req.lane = serve::Lane::kLow;  // Background traffic absorbs overload.
      req.list = env.test_lists()[i % env.test_lists().size()];
      fs.push_back(r.Submit(std::move(req)));
    }
    PolicyResult result;
    result.submit_ms = ElapsedMs(b0);
    for (auto& f : fs) f.get();
    r.Shutdown();
    const serve::RouterStats stats = r.stats();
    result.stats = stats.total;
    bench::ArenaCountersSince(arena_start, &result.stats);
    result.shed = stats.total.shed;
    return result;
  };

  std::fprintf(stderr, "[router] admission burst: %d reqs @ %dus each...\n",
               burst, stall_us);
  const PolicyResult block = run_policy(serve::AdmissionPolicy::kBlock);
  const PolicyResult shed = run_policy(serve::AdmissionPolicy::kShed);
  std::fprintf(stderr,
               "[router] block: p50=%.0fus p99=%.0fus shed=%llu | "
               "shed: p50=%.0fus p99=%.0fus shed=%llu\n",
               block.stats.p50_us, block.stats.p99_us,
               static_cast<unsigned long long>(block.shed), shed.stats.p50_us,
               shed.stats.p99_us, static_cast<unsigned long long>(shed.shed));

  std::printf(
      "{\"bench\": \"router\", \"hardware_threads\": %u, "
      "\"swap\": {\"submitted\": %d, \"completed\": %llu, \"dropped\": %lld, "
      "\"degraded\": %llu, \"swaps\": %d, \"swap_ms_mean\": %.2f, "
      "\"swap_ms_max\": %.2f, \"throughput_rps\": %.1f, "
      "\"responses_by_version\": {%s}, \"stats\": %s}, "
      "\"admission\": {\"burst\": %d, \"stall_us\": %d, "
      "\"low_lane_watermark\": 64, "
      "\"block\": {\"submit_ms\": %.1f, \"stats\": %s}, "
      "\"shed\": {\"submit_ms\": %.1f, \"stats\": %s}}}\n",
      std::thread::hardware_concurrency(), total,
      static_cast<unsigned long long>(completed),
      static_cast<long long>(total) - static_cast<long long>(completed),
      static_cast<unsigned long long>(degraded), swaps,
      swap_ms.empty() ? 0.0 : swap_ms_sum / swap_ms.size(), swap_ms_max,
      completed / swap_secs, versions_json.c_str(),
      swap_stats.total.ToJson().c_str(), burst, stall_us, block.submit_ms,
      block.stats.ToJson().c_str(), shed.submit_ms,
      shed.stats.ToJson().c_str());
  return 0;
}
