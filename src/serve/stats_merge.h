#ifndef RAPID_SERVE_STATS_MERGE_H_
#define RAPID_SERVE_STATS_MERGE_H_

#include "serve/router.h"

namespace rapid::serve {

/// Fleet-wide stats aggregation: fold per-shard snapshots into one view
/// that renders through the same `ToTable`/`ToJson` as a single process.
///
/// Counters sum, gauges and maxima take the max, and latency percentiles
/// are **exact**: snapshots carry their raw latency histograms
/// (`ServingStats::latency_hist`; the wire decoder refuses a stats payload
/// without one), the merge sums them bucket-wise and recomputes
/// p50/p95/p99 from the fleet histogram. `mean_us` (request-weighted) and
/// `max_us` are exact too.

/// Folds `src` into `dst` (sums, maxes, exact histogram percentiles; the
/// per-process arena counters sum, their high-water mark maxes).
void MergeInto(ServingStats* dst, const ServingStats& src);

/// Folds `src` into `dst` (pure counter sums).
void MergeInto(CacheStats* dst, const CacheStats& src);

/// Folds `src` into `dst`: counters sum, `connections_active` sums (each
/// shard's gauge counts distinct sockets), `max_inflight_per_conn` maxes.
void MergeInto(NetStats* dst, const NetStats& src);

/// Folds `src` into `dst`: counters sum, `last_published_version` maxes.
void MergeInto(OnlineStats* dst, const OnlineStats& src);

/// Folds `src` into `dst`: counters and the lists-per-page histogram sum,
/// `max_lists_per_page` maxes.
void MergeInto(PageStats* dst, const PageStats& src);

/// Folds a full per-shard snapshot into `dst`: totals and cache merge as
/// above, rejection counters sum, per-slot entries merge by slot name
/// (a slot present on several shards becomes one entry; mid-rollout
/// version skew keeps the highest version and its model name). `dst->net`
/// merges only when `src.has_net` — a fleet view has net counters as soon
/// as any shard reported them.
void MergeInto(RouterStats* dst, const RouterStats& src);

}  // namespace rapid::serve

#endif  // RAPID_SERVE_STATS_MERGE_H_
