#ifndef RAPID_SERVE_METRICS_H_
#define RAPID_SERVE_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

namespace rapid::serve {

/// A point-in-time summary of a `ServingMetrics` instance, safe to copy
/// around and render after the router has been shut down.
struct ServingStats {
  /// Size of the fixed realized-batch-size histogram: bin `i` counts
  /// model-bound batches of exactly `i + 1` requests; the last bin absorbs
  /// everything at or above `kBatchHistBins`.
  static constexpr int kBatchHistBins = 16;

  /// Latency histogram geometry (HDR-style: 32 octaves x 8 sub-buckets,
  /// ~9% relative error). The raw bucket counts travel with the snapshot
  /// so fleet merges can sum histograms and recompute exact percentiles
  /// instead of averaging per-shard percentile points.
  static constexpr int kLatencySubBucketBits = 3;
  static constexpr int kLatencyHistBins = 32 << kLatencySubBucketBits;

  /// Bucket index for a latency sample, in microseconds.
  static int LatencyBucketIndex(uint64_t us);
  /// Representative (lower-bound) latency of a bucket, in microseconds.
  static double LatencyBucketValue(int index);

  /// Completed requests (including degraded and shed ones).
  uint64_t requests = 0;
  /// Requests answered by the fallback heuristic after a deadline miss.
  uint64_t fallbacks = 0;
  /// Requests rejected by admission control (load shedding) and answered
  /// immediately by the fallback heuristic instead of entering the queue.
  uint64_t shed = 0;
  /// End-to-end (submit -> response ready) latency percentiles, in
  /// microseconds. Bucketed with ~9% resolution; 0 when no requests.
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  double mean_us = 0.0;
  uint64_t max_us = 0;
  /// Highest queue depth observed at submit time.
  int max_queue_depth = 0;
  /// Model-bound micro-batches executed via the batched forward path
  /// (`Reranker::RerankBatch`), including size-1 batches.
  uint64_t batches = 0;
  /// Requests served through those batches (sum of realized batch sizes).
  uint64_t batched_lists = 0;
  /// Largest realized batch.
  int max_batch_size = 0;
  /// Realized batch-size distribution; see `kBatchHistBins`.
  std::array<uint64_t, kBatchHistBins> batch_size_hist{};
  /// Raw latency bucket counts (see `kLatencyHistBins`); the source of
  /// truth for the percentile points above when stats are merged.
  std::array<uint64_t, kLatencyHistBins> latency_hist{};

  /// Process-wide scratch-arena telemetry (see nn/arena.h), captured at
  /// `Snapshot()` time from `nn::arena::GlobalArenaStats()`. The
  /// steady-state invariant the counters make observable: once every
  /// worker's first batch has warmed its arena, `arena_heap_allocs` and
  /// `arena_chunk_mallocs` stop moving while `arena_allocs` keeps growing.
  /// Per-process values: they travel in the binary stats scrape, and a
  /// fleet merge sums them (the high-water mark takes the max).
  uint64_t arena_heap_allocs = 0;
  /// Bump allocations served from thread arenas (inference temporaries).
  uint64_t arena_allocs = 0;
  /// 1 MiB chunk mallocs backing the arenas (growth events).
  uint64_t arena_chunk_mallocs = 0;
  /// Bytes currently reserved by all thread arenas.
  uint64_t arena_reserved_bytes = 0;
  /// Peak bytes live inside any single arena scope, process lifetime.
  uint64_t arena_high_water_bytes = 0;

  /// Recomputes p50/p95/p99 from `latency_hist`. No-op when the
  /// histogram is empty (keeps whatever percentile points were set).
  void RecomputeLatencyPercentiles();

  /// Two-column human-readable table.
  std::string ToTable() const;
  /// Flat JSON object (no trailing newline), e.g. for bench output.
  std::string ToJson() const;
};

/// Point-in-time counters of the router-level result cache (see
/// serve/result_cache.h), reported per slot and in aggregate by
/// `RouterStats`. All zero when caching is disabled.
struct CacheStats {
  /// Lookups answered from the cache (inline, bypassing the queue).
  uint64_t hits = 0;
  /// Lookups that found no usable entry (absent, expired, or dead).
  uint64_t misses = 0;
  /// Entries written after a model answered a cache miss.
  uint64_t inserts = 0;
  /// Entries displaced by the LRU capacity bound.
  uint64_t evictions = 0;
  /// Entries discarded because their TTL elapsed.
  uint64_t expired = 0;
  /// Requests that skipped the cache entirely (slot on the bypass list).
  uint64_t bypass = 0;
  /// Dead-version entries reclaimed by the background sweep after a swap.
  uint64_t swept = 0;
  /// Results not stored because their key had not been seen before
  /// (`CachePolicy::admit_on_second_hit`): the first miss only records a
  /// sighting; a repeat miss admits. 0 when the policy is off.
  uint64_t deferred = 0;
  /// Rejected requests (unknown slot / invalid ids) answered from the
  /// negative cache instead of re-running the bounds check or the
  /// fallback heuristic. Not part of `hit_rate()` — every submission
  /// probes the negative side when the policy is on, and counting those
  /// probes as misses would wreck the positive hit rate.
  uint64_t negative_hits = 0;
  /// Degraded answers remembered by the negative cache.
  uint64_t negative_inserts = 0;

  /// hits / (hits + misses); 0 when no lookups happened.
  double hit_rate() const;
  /// Two-column human-readable block matching `ServingStats::ToTable`.
  std::string ToTable() const;
  /// Flat JSON object (no trailing newline).
  std::string ToJson() const;
};

/// Point-in-time counters of the network front-end (`net::Server`),
/// surfaced through `RouterStats::net` when a server wraps the router.
/// Defined here (not in net/) so `RouterStats` can embed and render it
/// without the serve layer depending on sockets.
struct NetStats {
  /// Connections accepted over the server's lifetime.
  uint64_t connections_accepted = 0;
  /// Currently open connections.
  uint64_t connections_active = 0;
  /// Accepts refused because `max_connections` were already open.
  uint64_t connections_rejected = 0;
  /// Connections closed for crossing an idle timeout.
  uint64_t closed_idle = 0;
  /// Slow clients disconnected: write buffer over the cap, or no write
  /// progress for the stall timeout while responses were pending.
  uint64_t closed_slow = 0;
  /// Connections closed because framing was lost (bad magic/version or an
  /// oversized length) — the codec rejected the stream, not a crash.
  uint64_t closed_protocol_error = 0;
  /// Well-framed score requests parsed off the wire.
  uint64_t frames_in = 0;
  /// Response frames fully written to a socket.
  uint64_t frames_out = 0;
  /// Error frames sent for malformed-but-framed payloads / unknown types.
  uint64_t error_frames_out = 0;
  /// Frames whose payload failed strict decoding (connection survives).
  uint64_t decode_errors = 0;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  /// Responses whose connection was gone when they completed (slow-client
  /// or error disconnects only — a graceful drain keeps this at 0).
  uint64_t dropped_responses = 0;
  /// Stats scrapes (`kStatsRequest` frames) parsed off the wire.
  uint64_t stats_frames = 0;
  /// Remote load requests (`kLoadSlotRequest` frames) parsed off the
  /// wire, counting refused ones (remote load disabled).
  uint64_t load_frames = 0;
  /// Feedback frames (`kFeedback`) parsed off the wire, counting ones
  /// refused because no feedback log was configured.
  uint64_t feedback_frames = 0;
  /// Peak in-flight requests observed on any single connection.
  int max_inflight_per_conn = 0;

  /// Two-column human-readable block matching `ServingStats::ToTable`.
  std::string ToTable() const;
  /// Flat JSON object (no trailing newline).
  std::string ToJson() const;
};

/// Point-in-time counters of the online learning loop (`src/online/`:
/// feedback log + background trainer), surfaced through
/// `RouterStats::online` when the loop wraps a router. Defined here for
/// the same reason as `NetStats`: the serve layer embeds and renders the
/// numbers without depending on the online subsystem.
struct OnlineStats {
  /// Feedback events accepted into the bounded log.
  uint64_t feedback_appended = 0;
  /// Feedback events rejected because the log was full (or closed).
  uint64_t feedback_dropped = 0;
  /// Feedback events handed to a drainer (the trainer).
  uint64_t feedback_drained = 0;
  /// Fine-tune rounds the trainer completed.
  uint64_t train_rounds = 0;
  /// Feedback lists consumed across those rounds.
  uint64_t trained_lists = 0;
  /// Snapshots published through the canary-guarded `LoadSlot` path.
  uint64_t publishes = 0;
  /// Publish attempts rejected (canary failure or snapshot I/O error);
  /// the previous version kept serving.
  uint64_t publish_rejected = 0;
  /// Publish cadences skipped because no new feedback had arrived.
  uint64_t publish_skipped = 0;
  /// Slot version of the newest accepted publish (0 before the first).
  uint64_t last_published_version = 0;

  /// Two-column human-readable block matching `ServingStats::ToTable`.
  std::string ToTable() const;
  /// Flat JSON object (no trailing newline).
  std::string ToJson() const;
};

/// Point-in-time counters of the page-level reranking path (`src/page/`
/// served through `net::Server`'s `kPageRequest` dispatch), surfaced
/// through `RouterStats::page` when a network front-end serves pages.
/// Defined here for the same reason as `NetStats`: the serve layer embeds
/// and renders the numbers without depending on the page subsystem.
struct PageStats {
  /// Size of the fixed lists-per-page histogram: bin `i` counts pages
  /// carrying exactly `i + 1` lists; the last bin absorbs everything at or
  /// above `kListsHistBins`.
  static constexpr int kListsHistBins = 8;

  /// Page requests served end to end (one `kPageRequest` frame each).
  uint64_t pages = 0;
  /// Candidate lists carried by those pages (sum of lists per page).
  uint64_t page_lists = 0;
  /// Pages served with the joint cross-list pass (the rest ran the
  /// independent per-list baseline the caller requested).
  uint64_t joint_pages = 0;
  /// Pages with at least one degraded list (fallback answered) — the
  /// cross-list pass is skipped and the router's per-list orders returned.
  uint64_t degraded_pages = 0;
  /// Lists-per-page distribution; see `kListsHistBins`.
  std::array<uint64_t, kListsHistBins> lists_per_page_hist{};
  /// Cross-list redundancy observed on served pages, accumulated in
  /// milli-topics (1000 x the mean-topic coverage mass duplicated across
  /// sibling lists; see `page::CrossListRedundancy`).
  uint64_t redundancy_millitopics = 0;
  /// Largest page seen, in lists.
  int max_lists_per_page = 0;

  /// Two-column human-readable block matching `ServingStats::ToTable`.
  std::string ToTable() const;
  /// Flat JSON object (no trailing newline).
  std::string ToJson() const;
};

/// Lock-free serving-side metrics: request/fallback/shed counters, an
/// HDR-style log-bucketed latency histogram (32 octaves x 8 sub-buckets,
/// ~9% relative error), and a max queue-depth gauge. All recording methods
/// are safe to call concurrently from workers and submitters; `Snapshot`
/// may race with recording and yields a merely slightly stale view.
class ServingMetrics {
 public:
  /// Records one completed request with its end-to-end latency.
  void RecordRequest(uint64_t latency_us, bool fallback);

  /// Records one request shed by admission control (call in addition to
  /// `RecordRequest` for the fallback answer it received).
  void RecordShed();

  /// Records the queue depth seen when a request was enqueued.
  void RecordQueueDepth(int depth);

  /// Records one model-bound micro-batch of `size` requests executed
  /// through the batched forward path (size-1 batches included — the
  /// distribution shows how well batching amortizes under real load).
  void RecordBatch(int size);

  /// Summarizes counters and percentile estimates.
  ServingStats Snapshot() const;

 private:
  // Bucket geometry lives on ServingStats so snapshots can carry the raw
  // histogram across the wire and mergers can recompute percentiles.
  static constexpr int kSubBucketBits = ServingStats::kLatencySubBucketBits;
  static constexpr int kNumBuckets = ServingStats::kLatencyHistBins;

  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> fallbacks_{0};
  std::atomic<uint64_t> shed_{0};
  std::atomic<uint64_t> total_us_{0};
  std::atomic<uint64_t> max_us_{0};
  std::atomic<int> max_queue_depth_{0};
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> batched_lists_{0};
  std::atomic<int> max_batch_size_{0};
  std::array<std::atomic<uint64_t>, ServingStats::kBatchHistBins>
      batch_hist_{};
};

}  // namespace rapid::serve

#endif  // RAPID_SERVE_METRICS_H_
