#include "serve/stats_merge.h"

#include <algorithm>

namespace rapid::serve {

void MergeInto(ServingStats* dst, const ServingStats& src) {
  // Percentiles are recomputed from the summed latency histograms, so they
  // are exact fleet percentiles, not blends of per-shard points. The mean
  // is request-weighted, which is exact as well.
  const uint64_t requests = dst->requests + src.requests;
  dst->mean_us = requests == 0
                     ? 0.0
                     : (dst->mean_us * static_cast<double>(dst->requests) +
                        src.mean_us * static_cast<double>(src.requests)) /
                           static_cast<double>(requests);
  for (int i = 0; i < ServingStats::kLatencyHistBins; ++i) {
    dst->latency_hist[i] += src.latency_hist[i];
  }
  dst->RecomputeLatencyPercentiles();
  dst->requests = requests;
  dst->fallbacks += src.fallbacks;
  dst->shed += src.shed;
  dst->max_us = std::max(dst->max_us, src.max_us);
  dst->max_queue_depth = std::max(dst->max_queue_depth, src.max_queue_depth);
  dst->batches += src.batches;
  dst->batched_lists += src.batched_lists;
  dst->max_batch_size = std::max(dst->max_batch_size, src.max_batch_size);
  for (int i = 0; i < ServingStats::kBatchHistBins; ++i) {
    dst->batch_size_hist[i] += src.batch_size_hist[i];
  }
  // Arena counters are per process, so a fleet view sums them; the high
  // water mark is a peak, so it takes the max.
  dst->arena_heap_allocs += src.arena_heap_allocs;
  dst->arena_allocs += src.arena_allocs;
  dst->arena_chunk_mallocs += src.arena_chunk_mallocs;
  dst->arena_reserved_bytes += src.arena_reserved_bytes;
  dst->arena_high_water_bytes =
      std::max(dst->arena_high_water_bytes, src.arena_high_water_bytes);
}

void MergeInto(CacheStats* dst, const CacheStats& src) {
  dst->hits += src.hits;
  dst->misses += src.misses;
  dst->inserts += src.inserts;
  dst->evictions += src.evictions;
  dst->expired += src.expired;
  dst->bypass += src.bypass;
  dst->swept += src.swept;
  dst->deferred += src.deferred;
  dst->negative_hits += src.negative_hits;
  dst->negative_inserts += src.negative_inserts;
}

void MergeInto(NetStats* dst, const NetStats& src) {
  dst->connections_accepted += src.connections_accepted;
  dst->connections_active += src.connections_active;
  dst->connections_rejected += src.connections_rejected;
  dst->closed_idle += src.closed_idle;
  dst->closed_slow += src.closed_slow;
  dst->closed_protocol_error += src.closed_protocol_error;
  dst->frames_in += src.frames_in;
  dst->frames_out += src.frames_out;
  dst->error_frames_out += src.error_frames_out;
  dst->decode_errors += src.decode_errors;
  dst->bytes_in += src.bytes_in;
  dst->bytes_out += src.bytes_out;
  dst->dropped_responses += src.dropped_responses;
  dst->stats_frames += src.stats_frames;
  dst->load_frames += src.load_frames;
  dst->feedback_frames += src.feedback_frames;
  dst->max_inflight_per_conn =
      std::max(dst->max_inflight_per_conn, src.max_inflight_per_conn);
}

void MergeInto(OnlineStats* dst, const OnlineStats& src) {
  dst->feedback_appended += src.feedback_appended;
  dst->feedback_dropped += src.feedback_dropped;
  dst->feedback_drained += src.feedback_drained;
  dst->train_rounds += src.train_rounds;
  dst->trained_lists += src.trained_lists;
  dst->publishes += src.publishes;
  dst->publish_rejected += src.publish_rejected;
  dst->publish_skipped += src.publish_skipped;
  dst->last_published_version =
      std::max(dst->last_published_version, src.last_published_version);
}

void MergeInto(PageStats* dst, const PageStats& src) {
  dst->pages += src.pages;
  dst->page_lists += src.page_lists;
  dst->joint_pages += src.joint_pages;
  dst->degraded_pages += src.degraded_pages;
  for (int i = 0; i < PageStats::kListsHistBins; ++i) {
    dst->lists_per_page_hist[i] += src.lists_per_page_hist[i];
  }
  dst->redundancy_millitopics += src.redundancy_millitopics;
  dst->max_lists_per_page =
      std::max(dst->max_lists_per_page, src.max_lists_per_page);
}

void MergeInto(RouterStats* dst, const RouterStats& src) {
  MergeInto(&dst->total, src.total);
  MergeInto(&dst->cache, src.cache);
  dst->unknown_slot += src.unknown_slot;
  dst->invalid_ids += src.invalid_ids;
  dst->canary_rejected += src.canary_rejected;
  dst->quota_shed += src.quota_shed;
  if (src.has_net) {
    MergeInto(&dst->net, src.net);
    dst->has_net = true;
  }
  if (src.has_online) {
    MergeInto(&dst->online, src.online);
    dst->has_online = true;
  }
  if (src.has_page) {
    MergeInto(&dst->page, src.page);
    dst->has_page = true;
  }
  for (const RouterStats::SlotEntry& slot : src.slots) {
    auto it = std::find_if(dst->slots.begin(), dst->slots.end(),
                           [&slot](const RouterStats::SlotEntry& entry) {
                             return entry.slot == slot.slot;
                           });
    if (it == dst->slots.end()) {
      dst->slots.push_back(slot);
      continue;
    }
    MergeInto(&it->stats, slot.stats);
    MergeInto(&it->cache, slot.cache);
    // Mid-rollout version skew: report the newest published version (the
    // one the fleet is converging to) rather than an arbitrary shard's.
    if (slot.version > it->version) {
      it->version = slot.version;
      it->model_name = slot.model_name;
    }
  }
  std::sort(dst->slots.begin(), dst->slots.end(),
            [](const RouterStats::SlotEntry& a,
               const RouterStats::SlotEntry& b) { return a.slot < b.slot; });
}

}  // namespace rapid::serve
