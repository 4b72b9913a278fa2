#include "serve/metrics.h"

#include <algorithm>
#include <bit>
#include <cstdio>

#include "nn/arena.h"

namespace rapid::serve {

int ServingStats::LatencyBucketIndex(uint64_t us) {
  constexpr int kBits = kLatencySubBucketBits;
  if (us < (1u << kBits)) return static_cast<int>(us);
  // Octave = position of the highest set bit; the next kBits bits select
  // the sub-bucket, giving a fixed relative resolution of 2^-kBits
  // (~12.5% bucket width, ~9% mean error).
  const int octave = 63 - std::countl_zero(us);
  const int sub = static_cast<int>((us >> (octave - kBits)) & ((1 << kBits) - 1));
  const int index = ((octave - kBits + 1) << kBits) + sub;
  return index < kLatencyHistBins ? index : kLatencyHistBins - 1;
}

double ServingStats::LatencyBucketValue(int index) {
  constexpr int kBits = kLatencySubBucketBits;
  if (index < (1 << kBits)) return index;
  const int octave = (index >> kBits) + kBits - 1;
  const int sub = index & ((1 << kBits) - 1);
  const double base = static_cast<double>(1ull << octave);
  return base + sub * (base / (1 << kBits));
}

void ServingStats::RecomputeLatencyPercentiles() {
  uint64_t total = 0;
  for (int i = 0; i < kLatencyHistBins; ++i) total += latency_hist[i];
  if (total == 0) return;
  auto percentile = [&](double q) -> double {
    const uint64_t rank =
        static_cast<uint64_t>(q * static_cast<double>(total - 1));
    uint64_t seen = 0;
    for (int i = 0; i < kLatencyHistBins; ++i) {
      seen += latency_hist[i];
      if (seen > rank) return LatencyBucketValue(i);
    }
    return LatencyBucketValue(kLatencyHistBins - 1);
  };
  p50_us = percentile(0.50);
  p95_us = percentile(0.95);
  p99_us = percentile(0.99);
}

void ServingMetrics::RecordRequest(uint64_t latency_us, bool fallback) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  if (fallback) fallbacks_.fetch_add(1, std::memory_order_relaxed);
  total_us_.fetch_add(latency_us, std::memory_order_relaxed);
  uint64_t prev = max_us_.load(std::memory_order_relaxed);
  while (prev < latency_us &&
         !max_us_.compare_exchange_weak(prev, latency_us,
                                        std::memory_order_relaxed)) {
  }
  buckets_[ServingStats::LatencyBucketIndex(latency_us)].fetch_add(
      1, std::memory_order_relaxed);
}

void ServingMetrics::RecordShed() {
  shed_.fetch_add(1, std::memory_order_relaxed);
}

void ServingMetrics::RecordQueueDepth(int depth) {
  int prev = max_queue_depth_.load(std::memory_order_relaxed);
  while (prev < depth &&
         !max_queue_depth_.compare_exchange_weak(prev, depth,
                                                 std::memory_order_relaxed)) {
  }
}

void ServingMetrics::RecordBatch(int size) {
  if (size <= 0) return;
  batches_.fetch_add(1, std::memory_order_relaxed);
  batched_lists_.fetch_add(static_cast<uint64_t>(size),
                           std::memory_order_relaxed);
  int prev = max_batch_size_.load(std::memory_order_relaxed);
  while (prev < size &&
         !max_batch_size_.compare_exchange_weak(prev, size,
                                                std::memory_order_relaxed)) {
  }
  const int bin = std::min(size - 1, ServingStats::kBatchHistBins - 1);
  batch_hist_[bin].fetch_add(1, std::memory_order_relaxed);
}

ServingStats ServingMetrics::Snapshot() const {
  ServingStats s;
  s.requests = requests_.load(std::memory_order_relaxed);
  s.fallbacks = fallbacks_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  s.max_us = max_us_.load(std::memory_order_relaxed);
  s.max_queue_depth = max_queue_depth_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.batched_lists = batched_lists_.load(std::memory_order_relaxed);
  s.max_batch_size = max_batch_size_.load(std::memory_order_relaxed);
  for (int i = 0; i < ServingStats::kBatchHistBins; ++i) {
    s.batch_size_hist[i] = batch_hist_[i].load(std::memory_order_relaxed);
  }
  const nn::arena::GlobalStats arena = nn::arena::GlobalArenaStats();
  s.arena_heap_allocs = arena.heap_allocs;
  s.arena_allocs = arena.arena_allocs;
  s.arena_chunk_mallocs = arena.chunk_mallocs;
  s.arena_reserved_bytes = arena.reserved_bytes;
  s.arena_high_water_bytes = arena.high_water_bytes;
  if (s.requests == 0) return s;
  s.mean_us = static_cast<double>(total_us_.load(std::memory_order_relaxed)) /
              static_cast<double>(s.requests);
  for (int i = 0; i < kNumBuckets; ++i) {
    s.latency_hist[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  s.RecomputeLatencyPercentiles();
  return s;
}

double CacheStats::hit_rate() const {
  const uint64_t lookups = hits + misses;
  return lookups == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(lookups);
}

std::string CacheStats::ToTable() const {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "  cache hits      %10llu (hit rate %3.0f%%)\n"
                "  cache misses    %10llu\n"
                "  cache inserts   %10llu\n"
                "  cache evictions %10llu\n"
                "  cache expired   %10llu\n"
                "  cache bypass    %10llu\n"
                "  cache swept     %10llu\n"
                "  cache deferred  %10llu\n"
                "  cache negative  %10llu hits, %llu inserts\n",
                static_cast<unsigned long long>(hits), 100.0 * hit_rate(),
                static_cast<unsigned long long>(misses),
                static_cast<unsigned long long>(inserts),
                static_cast<unsigned long long>(evictions),
                static_cast<unsigned long long>(expired),
                static_cast<unsigned long long>(bypass),
                static_cast<unsigned long long>(swept),
                static_cast<unsigned long long>(deferred),
                static_cast<unsigned long long>(negative_hits),
                static_cast<unsigned long long>(negative_inserts));
  return buf;
}

std::string CacheStats::ToJson() const {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"hits\": %llu, \"misses\": %llu, \"inserts\": %llu, "
                "\"evictions\": %llu, \"expired\": %llu, \"bypass\": %llu, "
                "\"swept\": %llu, \"deferred\": %llu, "
                "\"negative_hits\": %llu, \"negative_inserts\": %llu, "
                "\"hit_rate\": %.3f}",
                static_cast<unsigned long long>(hits),
                static_cast<unsigned long long>(misses),
                static_cast<unsigned long long>(inserts),
                static_cast<unsigned long long>(evictions),
                static_cast<unsigned long long>(expired),
                static_cast<unsigned long long>(bypass),
                static_cast<unsigned long long>(swept),
                static_cast<unsigned long long>(deferred),
                static_cast<unsigned long long>(negative_hits),
                static_cast<unsigned long long>(negative_inserts),
                hit_rate());
  return buf;
}

std::string NetStats::ToTable() const {
  char buf[1024];
  std::snprintf(buf, sizeof(buf),
                "  net accepted    %10llu (active %llu, rejected %llu)\n"
                "  net closed      %10llu idle, %llu slow, %llu protocol\n"
                "  net frames in   %10llu (%llu bytes)\n"
                "  net frames out  %10llu (%llu bytes, %llu errors)\n"
                "  net decode errs %10llu\n"
                "  net dropped     %10llu\n"
                "  net admin       %10llu stats, %llu loads\n"
                "  net feedback    %10llu\n"
                "  net max inflight%10d per connection\n",
                static_cast<unsigned long long>(connections_accepted),
                static_cast<unsigned long long>(connections_active),
                static_cast<unsigned long long>(connections_rejected),
                static_cast<unsigned long long>(closed_idle),
                static_cast<unsigned long long>(closed_slow),
                static_cast<unsigned long long>(closed_protocol_error),
                static_cast<unsigned long long>(frames_in),
                static_cast<unsigned long long>(bytes_in),
                static_cast<unsigned long long>(frames_out),
                static_cast<unsigned long long>(bytes_out),
                static_cast<unsigned long long>(error_frames_out),
                static_cast<unsigned long long>(decode_errors),
                static_cast<unsigned long long>(dropped_responses),
                static_cast<unsigned long long>(stats_frames),
                static_cast<unsigned long long>(load_frames),
                static_cast<unsigned long long>(feedback_frames),
                max_inflight_per_conn);
  return buf;
}

std::string NetStats::ToJson() const {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"connections_accepted\": %llu, \"connections_active\": %llu, "
      "\"connections_rejected\": %llu, \"closed_idle\": %llu, "
      "\"closed_slow\": %llu, \"closed_protocol_error\": %llu, "
      "\"frames_in\": %llu, \"frames_out\": %llu, "
      "\"error_frames_out\": %llu, \"decode_errors\": %llu, "
      "\"bytes_in\": %llu, \"bytes_out\": %llu, "
      "\"dropped_responses\": %llu, \"stats_frames\": %llu, "
      "\"load_frames\": %llu, \"feedback_frames\": %llu, "
      "\"max_inflight_per_conn\": %d}",
      static_cast<unsigned long long>(connections_accepted),
      static_cast<unsigned long long>(connections_active),
      static_cast<unsigned long long>(connections_rejected),
      static_cast<unsigned long long>(closed_idle),
      static_cast<unsigned long long>(closed_slow),
      static_cast<unsigned long long>(closed_protocol_error),
      static_cast<unsigned long long>(frames_in),
      static_cast<unsigned long long>(frames_out),
      static_cast<unsigned long long>(error_frames_out),
      static_cast<unsigned long long>(decode_errors),
      static_cast<unsigned long long>(bytes_in),
      static_cast<unsigned long long>(bytes_out),
      static_cast<unsigned long long>(dropped_responses),
      static_cast<unsigned long long>(stats_frames),
      static_cast<unsigned long long>(load_frames),
      static_cast<unsigned long long>(feedback_frames),
      max_inflight_per_conn);
  return buf;
}

std::string OnlineStats::ToTable() const {
  char buf[1024];
  std::snprintf(buf, sizeof(buf),
                "  feedback        %10llu appended, %llu dropped, "
                "%llu drained\n"
                "  train rounds    %10llu (%llu lists)\n"
                "  publishes       %10llu (rejected %llu, skipped %llu)\n"
                "  published ver   %10llu\n",
                static_cast<unsigned long long>(feedback_appended),
                static_cast<unsigned long long>(feedback_dropped),
                static_cast<unsigned long long>(feedback_drained),
                static_cast<unsigned long long>(train_rounds),
                static_cast<unsigned long long>(trained_lists),
                static_cast<unsigned long long>(publishes),
                static_cast<unsigned long long>(publish_rejected),
                static_cast<unsigned long long>(publish_skipped),
                static_cast<unsigned long long>(last_published_version));
  return buf;
}

std::string OnlineStats::ToJson() const {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"feedback_appended\": %llu, \"feedback_dropped\": %llu, "
      "\"feedback_drained\": %llu, \"train_rounds\": %llu, "
      "\"trained_lists\": %llu, \"publishes\": %llu, "
      "\"publish_rejected\": %llu, \"publish_skipped\": %llu, "
      "\"last_published_version\": %llu}",
      static_cast<unsigned long long>(feedback_appended),
      static_cast<unsigned long long>(feedback_dropped),
      static_cast<unsigned long long>(feedback_drained),
      static_cast<unsigned long long>(train_rounds),
      static_cast<unsigned long long>(trained_lists),
      static_cast<unsigned long long>(publishes),
      static_cast<unsigned long long>(publish_rejected),
      static_cast<unsigned long long>(publish_skipped),
      static_cast<unsigned long long>(last_published_version));
  return buf;
}

std::string PageStats::ToTable() const {
  char buf[1024];
  std::snprintf(buf, sizeof(buf),
                "  pages           %10llu (%llu lists, max %d per page)\n"
                "  page joint      %10llu\n"
                "  page degraded   %10llu\n"
                "  page redundancy %10llu millitopics\n",
                static_cast<unsigned long long>(pages),
                static_cast<unsigned long long>(page_lists),
                max_lists_per_page,
                static_cast<unsigned long long>(joint_pages),
                static_cast<unsigned long long>(degraded_pages),
                static_cast<unsigned long long>(redundancy_millitopics));
  std::string out = buf;
  out += "  lists/page hist ";
  for (int i = 0; i < kListsHistBins; ++i) {
    std::snprintf(buf, sizeof(buf), "%s%llu", i == 0 ? "" : " ",
                  static_cast<unsigned long long>(lists_per_page_hist[i]));
    out += buf;
  }
  out += "\n";
  return out;
}

std::string PageStats::ToJson() const {
  char buf[1024];
  std::snprintf(buf, sizeof(buf),
                "{\"pages\": %llu, \"page_lists\": %llu, "
                "\"joint_pages\": %llu, \"degraded_pages\": %llu, "
                "\"redundancy_millitopics\": %llu, "
                "\"max_lists_per_page\": %d, \"lists_per_page_hist\": [",
                static_cast<unsigned long long>(pages),
                static_cast<unsigned long long>(page_lists),
                static_cast<unsigned long long>(joint_pages),
                static_cast<unsigned long long>(degraded_pages),
                static_cast<unsigned long long>(redundancy_millitopics),
                max_lists_per_page);
  std::string out = buf;
  for (int i = 0; i < kListsHistBins; ++i) {
    std::snprintf(buf, sizeof(buf), "%s%llu", i == 0 ? "" : ", ",
                  static_cast<unsigned long long>(lists_per_page_hist[i]));
    out += buf;
  }
  out += "]}";
  return out;
}

std::string ServingStats::ToTable() const {
  char buf[1024];
  const double mean_batch =
      batches == 0 ? 0.0
                   : static_cast<double>(batched_lists) /
                         static_cast<double>(batches);
  std::snprintf(buf, sizeof(buf),
                "  requests        %10llu\n"
                "  fallbacks       %10llu\n"
                "  shed            %10llu\n"
                "  p50 latency     %10.0f us\n"
                "  p95 latency     %10.0f us\n"
                "  p99 latency     %10.0f us\n"
                "  mean latency    %10.0f us\n"
                "  max latency     %10llu us\n"
                "  max queue depth %10d\n"
                "  model batches   %10llu (mean size %.2f, max %d)\n"
                "  batched lists   %10llu\n"
                "  arena allocs    %10llu (heap %llu, chunks %llu)\n"
                "  arena bytes     %10llu reserved (high water %llu)\n",
                static_cast<unsigned long long>(requests),
                static_cast<unsigned long long>(fallbacks),
                static_cast<unsigned long long>(shed), p50_us, p95_us,
                p99_us, mean_us, static_cast<unsigned long long>(max_us),
                max_queue_depth, static_cast<unsigned long long>(batches),
                mean_batch, max_batch_size,
                static_cast<unsigned long long>(batched_lists),
                static_cast<unsigned long long>(arena_allocs),
                static_cast<unsigned long long>(arena_heap_allocs),
                static_cast<unsigned long long>(arena_chunk_mallocs),
                static_cast<unsigned long long>(arena_reserved_bytes),
                static_cast<unsigned long long>(arena_high_water_bytes));
  return buf;
}

std::string ServingStats::ToJson() const {
  char buf[1024];
  int n = std::snprintf(
      buf, sizeof(buf),
      "{\"requests\": %llu, \"fallbacks\": %llu, \"shed\": %llu, "
      "\"p50_us\": %.1f, \"p95_us\": %.1f, \"p99_us\": %.1f, "
      "\"mean_us\": %.1f, \"max_us\": %llu, "
      "\"max_queue_depth\": %d, \"batches\": %llu, "
      "\"batched_lists\": %llu, \"max_batch_size\": %d, "
      "\"arena_allocs\": %llu, \"arena_heap_allocs\": %llu, "
      "\"arena_chunk_mallocs\": %llu, \"arena_reserved_bytes\": %llu, "
      "\"arena_high_water_bytes\": %llu, "
      "\"batch_size_hist\": [",
      static_cast<unsigned long long>(requests),
      static_cast<unsigned long long>(fallbacks),
      static_cast<unsigned long long>(shed), p50_us, p95_us, p99_us, mean_us,
      static_cast<unsigned long long>(max_us), max_queue_depth,
      static_cast<unsigned long long>(batches),
      static_cast<unsigned long long>(batched_lists), max_batch_size,
      static_cast<unsigned long long>(arena_allocs),
      static_cast<unsigned long long>(arena_heap_allocs),
      static_cast<unsigned long long>(arena_chunk_mallocs),
      static_cast<unsigned long long>(arena_reserved_bytes),
      static_cast<unsigned long long>(arena_high_water_bytes));
  std::string out(buf, static_cast<size_t>(n));
  for (int i = 0; i < kBatchHistBins; ++i) {
    std::snprintf(buf, sizeof(buf), i == 0 ? "%llu" : ", %llu",
                  static_cast<unsigned long long>(batch_size_hist[i]));
    out += buf;
  }
  out += "]}";
  return out;
}

}  // namespace rapid::serve
