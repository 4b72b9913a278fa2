// Serving throughput/latency harness: trains a RAPID model once, ships it
// through the snapshot path (train -> save -> load, exactly what a serving
// process does), then replays an identical request stream through a
// one-slot `serve::ServingRouter` at worker counts 1/2/4/8 and reports
// throughput, latency percentiles, and fallback counts as JSON.
//
// The sweep runs in two modes:
//  - "compute":       requests are pure model inference. Scaling here
//                     tracks physical cores: RAPID's graph-free forward
//                     allocates nothing per op, so workers do not contend
//                     on the allocator (flat on a 1-core box).
//  - "fetch+compute": each request first emulates the feature-store /
//                     candidate-fetch RPC that precedes scoring in a live
//                     recommender (cf. arXiv:2004.06390). The router
//                     overlaps those waits across workers, so this mode
//                     demonstrates the concurrency win (>= 2x from 1 -> 4
//                     workers) even when cores are scarce.
//
// Output is one JSON object on stdout (perf-trajectory artifact); progress
// goes to stderr. Each row's `stats.arena_{allocs,heap_allocs,
// chunk_mallocs}` count that row's run only (see `ArenaCountersSince`).
//
//   ./build/bench/bench_serving            # full sweep
//   ./build/bench/bench_serving --quick    # fewer requests (smoke test)
//   ./build/bench/bench_serving --quick --check
//
// `--check` makes it a gate (tier-2 `perf_scaling_gate`): it exits 1
// unless every served answer of the sweep equals a direct `Rerank` of the
// same list, and, on a host with at least 4 hardware threads, compute-mode
// throughput at 4 workers is at least 2.0x the 1-worker figure. On smaller
// hosts the scaling clause is skipped, and the bench says so.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "serve/router.h"
#include "serve/snapshot.h"

namespace {

// Decorates a fitted re-ranker with the per-request fetch stall of a live
// deployment. Stateless around a const inner model, so it inherits the
// thread-safety contract of `rerank::Reranker`.
class FetchStallReranker : public rapid::rerank::Reranker {
 public:
  FetchStallReranker(const rapid::rerank::Reranker& inner, int stall_us)
      : inner_(inner), stall_us_(stall_us) {}

  std::string name() const override { return inner_.name() + "+fetch"; }

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

}  // namespace

int main(int argc, char** argv) {
  using namespace rapid;
  bool quick = false;
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--check") == 0) check = true;
  }
  constexpr double kMinComputeScaling4 = 2.0;

  // A mid-size universe: big enough that one Rerank call does real matrix
  // work, small enough that the whole sweep runs in a couple of minutes.
  eval::PipelineConfig config;
  config.sim.kind = data::DatasetKind::kTaobao;
  config.sim.num_users = 80;
  config.sim.num_items = 500;
  config.sim.rerank_lists_per_user = 4;
  config.sim.test_lists_per_user = 2;
  config.dcm.lambda = 0.9f;
  config.seed = 2023;

  std::fprintf(stderr, "[serving] building environment...\n");
  eval::Environment env(config, bench::StandardDin());

  std::fprintf(stderr, "[serving] training RAPID...\n");
  core::RapidConfig rapid_config = bench::BenchRapidConfig();
  rapid_config.train.epochs = 2;  // Throughput is weight-agnostic.
  core::RapidReranker trained(rapid_config);
  trained.Fit(env.dataset(), env.train_lists(), /*seed=*/7);

  // Snapshot round trip: serve what a production process would load.
  const std::string snapshot_path = "/tmp/bench_serving.rsnp";
  if (!serve::Snapshot::Save(snapshot_path, trained, env.dataset())) {
    std::fprintf(stderr, "[serving] snapshot save failed\n");
    return 1;
  }
  const std::shared_ptr<const rerank::Reranker> model =
      serve::Snapshot::Load(snapshot_path, env.dataset());
  if (model == nullptr) {
    std::fprintf(stderr, "[serving] snapshot load failed\n");
    return 1;
  }

  // Identical request stream for every (mode, thread count) cell: the test
  // lists repeated to a fixed total.
  const int total_requests = quick ? 200 : 1000;
  std::vector<const data::ImpressionList*> stream;
  stream.reserve(total_requests);
  for (int i = 0; i < total_requests; ++i) {
    stream.push_back(&env.test_lists()[i % env.test_lists().size()]);
  }
  // The answer every served request must match: a direct Rerank.
  std::vector<std::vector<int>> expected;
  expected.reserve(stream.size());
  for (const data::ImpressionList* list : stream) {
    expected.push_back(model->Rerank(env.dataset(), *list));
  }
  uint64_t mismatched = 0;

  struct Mode {
    const char* name;
    int stall_us;
  };
  const Mode modes[] = {{"compute", 0}, {"fetch+compute", 1500}};

  // Every (mode, threads) cell is repeated: the ledger gate compares the
  // median (stable on a shared box), while min and raw samples ride along
  // under non-gated keys for manual inspection.
  const int repetitions = 5;

  std::string results_json;
  bool first = true;
  double compute_scaling_4 = 0.0;
  for (const Mode& mode : modes) {
    const auto served =
        std::make_shared<FetchStallReranker>(*model, mode.stall_us);
    double throughput_1 = 0.0;
    for (int threads : {1, 2, 4, 8}) {
      serve::ServingStats stats;  // From the last repetition.
      const bench::RepeatStats reps = bench::Repeat(repetitions, [&] {
        const nn::arena::GlobalStats arena_start =
            nn::arena::GlobalArenaStats();
        serve::RouterConfig serving;
        serving.num_threads = threads;
        serving.max_batch = 4;
        serving.max_wait_us = 100;
        serving.queue_capacity = 256;
        serving.deadline_us = 0;  // Measure the pure model path.
        serve::ServingRouter router(env.dataset(), serving);
        router.InstallSlot("main", served);

        const auto t0 = std::chrono::steady_clock::now();
        std::vector<std::future<serve::RouterResponse>> futures;
        futures.reserve(stream.size());
        for (const data::ImpressionList* list : stream) {
          futures.push_back(router.Submit({"main", serve::Lane::kHigh, *list}));
        }
        std::vector<serve::RouterResponse> responses;
        responses.reserve(futures.size());
        for (auto& f : futures) responses.push_back(f.get());
        const double secs = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
        router.Shutdown();
        stats = router.stats().total;
        bench::ArenaCountersSince(arena_start, &stats);
        for (size_t i = 0; i < responses.size(); ++i) {
          mismatched += responses[i].degraded ||
                        responses[i].items != expected[i];
        }
        return static_cast<double>(total_requests) / secs;
      });

      const double throughput = reps.median;
      if (threads == 1) throughput_1 = throughput;
      if (threads == 4 && mode.stall_us == 0) {
        compute_scaling_4 = throughput_1 > 0 ? throughput / throughput_1 : 0.0;
      }
      std::fprintf(
          stderr,
          "[serving] %-13s threads=%d  %7.0f req/s median of %d "
          "(min %.0f, %.2fx vs 1 thread)  p50=%.0fus p99=%.0fus\n",
          mode.name, threads, throughput, repetitions, reps.min,
          throughput_1 > 0 ? throughput / throughput_1 : 1.0, stats.p50_us,
          stats.p99_us);
      char row[1024];
      std::snprintf(row, sizeof(row),
                    "%s  {\"mode\": \"%s\", \"threads\": %d, "
                    "\"fetch_stall_us\": %d, \"throughput_rps\": %.1f, "
                    "\"throughput_rps_min\": %.1f, "
                    "\"throughput_rps_samples\": %s, "
                    "\"speedup_vs_1\": %.2f, \"stats\": %s}",
                    first ? "" : ",\n", mode.name, threads, mode.stall_us,
                    throughput, reps.min, reps.SamplesJson().c_str(),
                    throughput_1 > 0 ? throughput / throughput_1 : 1.0,
                    stats.ToJson().c_str());
      results_json += row;
      first = false;
    }
  }

  // Final pass: a tight deadline at 4 threads to exercise the graceful
  // degradation path under load.
  const nn::arena::GlobalStats arena_start = nn::arena::GlobalArenaStats();
  serve::RouterConfig serving;
  serving.num_threads = 4;
  serving.deadline_us = quick ? 2000 : 5000;
  serving.fallback = serve::FallbackPolicy::kInitialOrder;
  serve::ServingRouter router(env.dataset(), serving);
  router.InstallSlot("main", model);
  std::vector<std::future<serve::RouterResponse>> futures;
  for (const data::ImpressionList* list : stream) {
    futures.push_back(router.Submit({"main", serve::Lane::kHigh, *list}));
  }
  for (auto& f : futures) f.get();
  router.Shutdown();
  serve::ServingStats stats = router.stats().total;
  bench::ArenaCountersSince(arena_start, &stats);
  std::fprintf(stderr,
               "[serving] deadline=%lldus: %llu/%llu degraded to fallback\n",
               static_cast<long long>(serving.deadline_us),
               static_cast<unsigned long long>(stats.fallbacks),
               static_cast<unsigned long long>(stats.requests));

  const unsigned hardware_threads = std::thread::hardware_concurrency();
  std::printf(
      "{\"bench\": \"serving\", \"requests\": %d, \"list_len\": %d, "
      "\"hardware_threads\": %u, \"compute_scaling_4t\": %.2f, "
      "\"answers_mismatched\": %llu, \"results\": [\n%s\n], "
      "\"deadline_run\": {\"threads\": 4, \"deadline_us\": %lld, "
      "\"stats\": %s}}\n",
      total_requests, config.list_len, hardware_threads, compute_scaling_4,
      static_cast<unsigned long long>(mismatched), results_json.c_str(),
      static_cast<long long>(serving.deadline_us), stats.ToJson().c_str());

  if (!check) return 0;
  bool ok = true;
  if (mismatched > 0) {
    std::fprintf(stderr,
                 "[serving] CHECK FAILED: %llu served answers differ from a "
                 "direct Rerank\n",
                 static_cast<unsigned long long>(mismatched));
    ok = false;
  }
  if (hardware_threads < 4) {
    std::fprintf(stderr,
                 "[serving] %u hardware threads (< 4): skipping the "
                 "compute-scaling clause\n",
                 hardware_threads);
  } else if (compute_scaling_4 < kMinComputeScaling4) {
    std::fprintf(stderr,
                 "[serving] CHECK FAILED: compute mode at 4 workers is "
                 "%.2fx the 1-worker throughput (need >= %.1fx)\n",
                 compute_scaling_4, kMinComputeScaling4);
    ok = false;
  }
  std::fprintf(stderr, "[serving] check %s: 4-worker compute scaling %.2fx, "
               "%llu mismatched answers\n",
               ok ? "passed" : "FAILED", compute_scaling_4,
               static_cast<unsigned long long>(mismatched));
  return ok ? 0 : 1;
}
