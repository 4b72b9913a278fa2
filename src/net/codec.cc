#include "net/codec.h"

#include <cstdint>
#include <cstring>

namespace rapid::net {

namespace {

// The wire format is defined little-endian; every supported target of this
// repo (x86-64, aarch64 Linux) is little-endian, so encode/decode are raw
// byte copies. A big-endian port would swap here, in one place.

template <typename T>
void Append(std::vector<uint8_t>* out, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  const size_t at = out->size();
  out->resize(at + sizeof(T));
  std::memcpy(out->data() + at, &value, sizeof(T));
}

void AppendBytes(std::vector<uint8_t>* out, const void* data, size_t n) {
  if (n == 0) return;  // Empty vectors may hand over a null data().
  const size_t at = out->size();
  out->resize(at + n);
  std::memcpy(out->data() + at, data, n);
}

void AppendString(std::vector<uint8_t>* out, std::string_view s) {
  // The length prefix is 16-bit: truncate oversized strings to what it can
  // describe rather than emit a desynchronized frame (prefix says 64KiB-n,
  // payload carries more). Decoders additionally cap accepted lengths at
  // CodecLimits::max_string_bytes.
  if (s.size() > UINT16_MAX) s = s.substr(0, UINT16_MAX);
  Append<uint16_t>(out, static_cast<uint16_t>(s.size()));
  AppendBytes(out, s.data(), s.size());
}

/// Bounds-checked sequential reader over one frame payload. Every `Read*`
/// fails (returns false) instead of reading past `size_`; a parser that
/// only ever advances through this class cannot overrun the buffer no
/// matter what the length fields claim.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  template <typename T>
  bool Read(T* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (size_ - pos_ < sizeof(T)) return false;
    std::memcpy(out, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  bool ReadString(std::string* out, uint32_t max_bytes) {
    uint16_t len = 0;
    if (!Read(&len) || len > max_bytes || size_ - pos_ < len) return false;
    out->assign(reinterpret_cast<const char*>(data_ + pos_), len);
    pos_ += len;
    return true;
  }

  template <typename T>
  bool ReadArray(std::vector<T>* out, uint32_t max_elems) {
    uint32_t count = 0;
    if (!Read(&count) || count > max_elems) return false;
    // Checked before the resize: a hostile count can never size an
    // allocation beyond max_elems or read past the payload.
    if ((size_ - pos_) / sizeof(T) < count) return false;
    out->resize(count);
    if (count > 0) {
      std::memcpy(out->data(), data_ + pos_, count * sizeof(T));
      pos_ += count * sizeof(T);
    }
    return true;
  }

  bool AtEnd() const { return pos_ == size_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

void AppendFrame(std::vector<uint8_t>* out, FrameType type,
                 uint64_t request_id, const std::vector<uint8_t>& payload) {
  out->reserve(out->size() + kFrameHeaderBytes + payload.size());
  Append<uint32_t>(out, kFrameMagic);
  Append<uint8_t>(out, kProtocolVersion);
  Append<uint8_t>(out, static_cast<uint8_t>(type));
  Append<uint16_t>(out, 0);  // flags
  Append<uint64_t>(out, request_id);
  Append<uint32_t>(out, static_cast<uint32_t>(payload.size()));
  AppendBytes(out, payload.data(), payload.size());
}

constexpr uint8_t kFlagDegraded = 1;
constexpr uint8_t kFlagShed = 2;
constexpr uint8_t kFlagCacheHit = 4;

// --- Binary RouterStats payload -------------------------------------------
//
// The structured stats format the shard layer merges: plain field dumps in
// declaration order, each nested block prefixed by nothing (the layout IS
// the schema, strict on both ends — a field added later must extend the
// encoder and decoder together, which one test pins).

void AppendServingStats(std::vector<uint8_t>* out,
                        const serve::ServingStats& s) {
  Append<uint64_t>(out, s.requests);
  Append<uint64_t>(out, s.fallbacks);
  Append<uint64_t>(out, s.shed);
  Append<double>(out, s.p50_us);
  Append<double>(out, s.p95_us);
  Append<double>(out, s.p99_us);
  Append<double>(out, s.mean_us);
  Append<uint64_t>(out, s.max_us);
  Append<int32_t>(out, s.max_queue_depth);
  Append<uint64_t>(out, s.batches);
  Append<uint64_t>(out, s.batched_lists);
  Append<int32_t>(out, s.max_batch_size);
  Append<uint32_t>(out, serve::ServingStats::kBatchHistBins);
  AppendBytes(out, s.batch_size_hist.data(),
              s.batch_size_hist.size() * sizeof(uint64_t));
  // Raw latency buckets travel with the snapshot so fleet merges can
  // recompute exact percentiles (see serve/stats_merge.h).
  Append<uint32_t>(out, serve::ServingStats::kLatencyHistBins);
  AppendBytes(out, s.latency_hist.data(),
              s.latency_hist.size() * sizeof(uint64_t));
  Append<uint64_t>(out, s.arena_heap_allocs);
  Append<uint64_t>(out, s.arena_allocs);
  Append<uint64_t>(out, s.arena_chunk_mallocs);
  Append<uint64_t>(out, s.arena_reserved_bytes);
  Append<uint64_t>(out, s.arena_high_water_bytes);
}

bool ReadServingStats(ByteReader* reader, serve::ServingStats* s) {
  int32_t max_queue_depth = 0, max_batch_size = 0;
  uint32_t bins = 0;
  if (!reader->Read(&s->requests) || !reader->Read(&s->fallbacks) ||
      !reader->Read(&s->shed) || !reader->Read(&s->p50_us) ||
      !reader->Read(&s->p95_us) || !reader->Read(&s->p99_us) ||
      !reader->Read(&s->mean_us) || !reader->Read(&s->max_us) ||
      !reader->Read(&max_queue_depth) || !reader->Read(&s->batches) ||
      !reader->Read(&s->batched_lists) || !reader->Read(&max_batch_size) ||
      !reader->Read(&bins) ||
      bins != serve::ServingStats::kBatchHistBins) {
    return false;
  }
  s->max_queue_depth = max_queue_depth;
  s->max_batch_size = max_batch_size;
  for (uint64_t& bin : s->batch_size_hist) {
    if (!reader->Read(&bin)) return false;
  }
  uint32_t latency_bins = 0;
  if (!reader->Read(&latency_bins) ||
      latency_bins != serve::ServingStats::kLatencyHistBins) {
    return false;
  }
  for (uint64_t& bin : s->latency_hist) {
    if (!reader->Read(&bin)) return false;
  }
  return reader->Read(&s->arena_heap_allocs) &&
         reader->Read(&s->arena_allocs) &&
         reader->Read(&s->arena_chunk_mallocs) &&
         reader->Read(&s->arena_reserved_bytes) &&
         reader->Read(&s->arena_high_water_bytes);
}

void AppendCacheStats(std::vector<uint8_t>* out, const serve::CacheStats& s) {
  Append<uint64_t>(out, s.hits);
  Append<uint64_t>(out, s.misses);
  Append<uint64_t>(out, s.inserts);
  Append<uint64_t>(out, s.evictions);
  Append<uint64_t>(out, s.expired);
  Append<uint64_t>(out, s.bypass);
  Append<uint64_t>(out, s.swept);
  Append<uint64_t>(out, s.deferred);
  Append<uint64_t>(out, s.negative_hits);
  Append<uint64_t>(out, s.negative_inserts);
}

bool ReadCacheStats(ByteReader* reader, serve::CacheStats* s) {
  return reader->Read(&s->hits) && reader->Read(&s->misses) &&
         reader->Read(&s->inserts) && reader->Read(&s->evictions) &&
         reader->Read(&s->expired) && reader->Read(&s->bypass) &&
         reader->Read(&s->swept) && reader->Read(&s->deferred) &&
         reader->Read(&s->negative_hits) &&
         reader->Read(&s->negative_inserts);
}

void AppendNetStats(std::vector<uint8_t>* out, const serve::NetStats& s) {
  Append<uint64_t>(out, s.connections_accepted);
  Append<uint64_t>(out, s.connections_active);
  Append<uint64_t>(out, s.connections_rejected);
  Append<uint64_t>(out, s.closed_idle);
  Append<uint64_t>(out, s.closed_slow);
  Append<uint64_t>(out, s.closed_protocol_error);
  Append<uint64_t>(out, s.frames_in);
  Append<uint64_t>(out, s.frames_out);
  Append<uint64_t>(out, s.error_frames_out);
  Append<uint64_t>(out, s.decode_errors);
  Append<uint64_t>(out, s.bytes_in);
  Append<uint64_t>(out, s.bytes_out);
  Append<uint64_t>(out, s.dropped_responses);
  Append<uint64_t>(out, s.stats_frames);
  Append<uint64_t>(out, s.load_frames);
  Append<uint64_t>(out, s.feedback_frames);
  Append<int32_t>(out, s.max_inflight_per_conn);
}

bool ReadNetStats(ByteReader* reader, serve::NetStats* s) {
  int32_t max_inflight = 0;
  if (!reader->Read(&s->connections_accepted) ||
      !reader->Read(&s->connections_active) ||
      !reader->Read(&s->connections_rejected) ||
      !reader->Read(&s->closed_idle) || !reader->Read(&s->closed_slow) ||
      !reader->Read(&s->closed_protocol_error) ||
      !reader->Read(&s->frames_in) || !reader->Read(&s->frames_out) ||
      !reader->Read(&s->error_frames_out) ||
      !reader->Read(&s->decode_errors) || !reader->Read(&s->bytes_in) ||
      !reader->Read(&s->bytes_out) || !reader->Read(&s->dropped_responses) ||
      !reader->Read(&s->stats_frames) || !reader->Read(&s->load_frames) ||
      !reader->Read(&s->feedback_frames) || !reader->Read(&max_inflight)) {
    return false;
  }
  s->max_inflight_per_conn = max_inflight;
  return true;
}

void AppendOnlineStats(std::vector<uint8_t>* out,
                       const serve::OnlineStats& s) {
  Append<uint64_t>(out, s.feedback_appended);
  Append<uint64_t>(out, s.feedback_dropped);
  Append<uint64_t>(out, s.feedback_drained);
  Append<uint64_t>(out, s.train_rounds);
  Append<uint64_t>(out, s.trained_lists);
  Append<uint64_t>(out, s.publishes);
  Append<uint64_t>(out, s.publish_rejected);
  Append<uint64_t>(out, s.publish_skipped);
  Append<uint64_t>(out, s.last_published_version);
}

bool ReadOnlineStats(ByteReader* reader, serve::OnlineStats* s) {
  return reader->Read(&s->feedback_appended) &&
         reader->Read(&s->feedback_dropped) &&
         reader->Read(&s->feedback_drained) &&
         reader->Read(&s->train_rounds) && reader->Read(&s->trained_lists) &&
         reader->Read(&s->publishes) && reader->Read(&s->publish_rejected) &&
         reader->Read(&s->publish_skipped) &&
         reader->Read(&s->last_published_version);
}

void AppendPageStats(std::vector<uint8_t>* out, const serve::PageStats& s) {
  Append<uint64_t>(out, s.pages);
  Append<uint64_t>(out, s.page_lists);
  Append<uint64_t>(out, s.joint_pages);
  Append<uint64_t>(out, s.degraded_pages);
  Append<uint32_t>(out, serve::PageStats::kListsHistBins);
  AppendBytes(out, s.lists_per_page_hist.data(),
              s.lists_per_page_hist.size() * sizeof(uint64_t));
  Append<uint64_t>(out, s.redundancy_millitopics);
  Append<int32_t>(out, s.max_lists_per_page);
}

bool ReadPageStats(ByteReader* reader, serve::PageStats* s) {
  uint32_t bins = 0;
  if (!reader->Read(&s->pages) || !reader->Read(&s->page_lists) ||
      !reader->Read(&s->joint_pages) || !reader->Read(&s->degraded_pages) ||
      !reader->Read(&bins) || bins != serve::PageStats::kListsHistBins) {
    return false;
  }
  for (uint64_t& bin : s->lists_per_page_hist) {
    if (!reader->Read(&bin)) return false;
  }
  int32_t max_lists = 0;
  if (!reader->Read(&s->redundancy_millitopics) || !reader->Read(&max_lists)) {
    return false;
  }
  s->max_lists_per_page = max_lists;
  return true;
}

void AppendRouterStats(std::vector<uint8_t>* out,
                       const serve::RouterStats& s) {
  AppendServingStats(out, s.total);
  AppendCacheStats(out, s.cache);
  Append<uint64_t>(out, s.unknown_slot);
  Append<uint64_t>(out, s.invalid_ids);
  Append<uint64_t>(out, s.canary_rejected);
  Append<uint64_t>(out, s.quota_shed);
  Append<uint8_t>(out, s.has_net ? 1 : 0);
  if (s.has_net) AppendNetStats(out, s.net);
  Append<uint8_t>(out, s.has_online ? 1 : 0);
  if (s.has_online) AppendOnlineStats(out, s.online);
  Append<uint8_t>(out, s.has_page ? 1 : 0);
  if (s.has_page) AppendPageStats(out, s.page);
  Append<uint32_t>(out, static_cast<uint32_t>(s.slots.size()));
  for (const serve::RouterStats::SlotEntry& slot : s.slots) {
    AppendString(out, slot.slot);
    AppendString(out, slot.model_name);
    Append<uint64_t>(out, slot.version);
    AppendServingStats(out, slot.stats);
    AppendCacheStats(out, slot.cache);
  }
}

bool ReadRouterStats(ByteReader* reader, serve::RouterStats* s,
                     const CodecLimits& limits) {
  uint8_t has_net = 0;
  uint32_t num_slots = 0;
  if (!ReadServingStats(reader, &s->total) ||
      !ReadCacheStats(reader, &s->cache) || !reader->Read(&s->unknown_slot) ||
      !reader->Read(&s->invalid_ids) || !reader->Read(&s->canary_rejected) ||
      !reader->Read(&s->quota_shed) || !reader->Read(&has_net) ||
      has_net > 1) {
    return false;
  }
  s->has_net = has_net != 0;
  if (s->has_net && !ReadNetStats(reader, &s->net)) return false;
  uint8_t has_online = 0;
  if (!reader->Read(&has_online) || has_online > 1) return false;
  s->has_online = has_online != 0;
  if (s->has_online && !ReadOnlineStats(reader, &s->online)) return false;
  uint8_t has_page = 0;
  if (!reader->Read(&has_page) || has_page > 1) return false;
  s->has_page = has_page != 0;
  if (s->has_page && !ReadPageStats(reader, &s->page)) return false;
  if (!reader->Read(&num_slots) || num_slots > limits.max_items) return false;
  s->slots.clear();
  s->slots.reserve(num_slots);
  for (uint32_t i = 0; i < num_slots; ++i) {
    serve::RouterStats::SlotEntry entry;
    if (!reader->ReadString(&entry.slot, limits.max_string_bytes) ||
        !reader->ReadString(&entry.model_name, limits.max_string_bytes) ||
        !reader->Read(&entry.version) ||
        !ReadServingStats(reader, &entry.stats) ||
        !ReadCacheStats(reader, &entry.cache)) {
      return false;
    }
    s->slots.push_back(std::move(entry));
  }
  return true;
}

}  // namespace

void EncodeScoreRequest(const WireRequest& request,
                        std::vector<uint8_t>* out) {
  std::vector<uint8_t> payload;
  AppendString(&payload, request.slot);
  Append<uint8_t>(&payload, request.lane == serve::Lane::kHigh ? 0 : 1);
  Append<int64_t>(&payload, request.deadline_us);
  Append<int32_t>(&payload, request.list.user_id);
  Append<uint32_t>(&payload,
                   static_cast<uint32_t>(request.list.items.size()));
  AppendBytes(&payload, request.list.items.data(),
              request.list.items.size() * sizeof(int));
  Append<uint32_t>(&payload,
                   static_cast<uint32_t>(request.list.scores.size()));
  AppendBytes(&payload, request.list.scores.data(),
              request.list.scores.size() * sizeof(float));
  AppendFrame(out, FrameType::kScoreRequest, request.request_id, payload);
}

void EncodeScoreResponse(const WireResponse& response,
                         std::vector<uint8_t>* out) {
  std::vector<uint8_t> payload;
  uint8_t flags = 0;
  if (response.degraded) flags |= kFlagDegraded;
  if (response.shed) flags |= kFlagShed;
  if (response.cache_hit) flags |= kFlagCacheHit;
  Append<uint8_t>(&payload, flags);
  Append<uint64_t>(&payload, response.model_version);
  AppendString(&payload, response.model_name);
  Append<int64_t>(&payload, response.server_latency_us);
  Append<uint32_t>(&payload, static_cast<uint32_t>(response.items.size()));
  AppendBytes(&payload, response.items.data(),
              response.items.size() * sizeof(int));
  AppendFrame(out, FrameType::kScoreResponse, response.request_id, payload);
}

void EncodeError(uint64_t request_id, std::string_view message,
                 std::vector<uint8_t>* out) {
  std::vector<uint8_t> payload;
  AppendString(&payload, message.substr(0, 255));
  AppendFrame(out, FrameType::kError, request_id, payload);
}

void EncodeStatsRequest(const WireStatsRequest& request,
                        std::vector<uint8_t>* out) {
  std::vector<uint8_t> payload;
  Append<uint8_t>(&payload, static_cast<uint8_t>(request.format));
  AppendFrame(out, FrameType::kStatsRequest, request.request_id, payload);
}

void EncodeStatsResponse(const WireStatsResponse& response,
                         std::vector<uint8_t>* out) {
  std::vector<uint8_t> payload;
  Append<uint8_t>(&payload, static_cast<uint8_t>(response.format));
  if (response.format == StatsFormat::kBinary) {
    AppendRouterStats(&payload, response.stats);
  } else {
    // kJson / kPrometheus: raw bytes, not a length-prefixed string — the
    // text body routinely exceeds the string limit, and the frame length
    // already bounds it.
    AppendBytes(&payload, response.text.data(), response.text.size());
  }
  AppendFrame(out, FrameType::kStatsResponse, response.request_id, payload);
}

void EncodeLoadRequest(const WireLoadRequest& request,
                       std::vector<uint8_t>* out) {
  std::vector<uint8_t> payload;
  AppendString(&payload, request.slot);
  AppendString(&payload, request.path);
  AppendFrame(out, FrameType::kLoadSlotRequest, request.request_id, payload);
}

void EncodeLoadResponse(const WireLoadResponse& response,
                        std::vector<uint8_t>* out) {
  std::vector<uint8_t> payload;
  Append<uint64_t>(&payload, response.version);
  AppendString(&payload, std::string_view(response.message).substr(0, 255));
  AppendFrame(out, FrameType::kLoadSlotResponse, response.request_id,
              payload);
}

DecodeStatus ExtractFrame(const uint8_t* data, size_t size, size_t* consumed,
                          Frame* out, const CodecLimits& limits) {
  if (size < kFrameHeaderBytes) {
    // Reject a wrong magic as soon as 4 bytes are visible — no point
    // waiting for a full header that can never become valid.
    if (size >= sizeof(uint32_t)) {
      uint32_t magic = 0;
      std::memcpy(&magic, data, sizeof(magic));
      if (magic != kFrameMagic) return DecodeStatus::kError;
    }
    return DecodeStatus::kNeedMore;
  }
  ByteReader reader(data, kFrameHeaderBytes);
  uint32_t magic = 0;
  uint8_t version = 0, type = 0;
  uint16_t flags = 0;
  uint64_t request_id = 0;
  uint32_t payload_len = 0;
  reader.Read(&magic);
  reader.Read(&version);
  reader.Read(&type);
  reader.Read(&flags);
  reader.Read(&request_id);
  reader.Read(&payload_len);
  if (magic != kFrameMagic || version != kProtocolVersion || flags != 0 ||
      payload_len > limits.max_payload_bytes) {
    return DecodeStatus::kError;
  }
  if (size - kFrameHeaderBytes < payload_len) return DecodeStatus::kNeedMore;
  out->header.version = version;
  out->header.type = static_cast<FrameType>(type);
  out->header.request_id = request_id;
  out->header.payload_len = payload_len;
  out->payload.assign(data + kFrameHeaderBytes,
                      data + kFrameHeaderBytes + payload_len);
  *consumed = kFrameHeaderBytes + payload_len;
  return DecodeStatus::kOk;
}

bool ParseScoreRequest(const Frame& frame, WireRequest* out,
                       const CodecLimits& limits) {
  if (frame.header.type != FrameType::kScoreRequest) return false;
  out->request_id = frame.header.request_id;
  ByteReader reader(frame.payload.data(), frame.payload.size());
  uint8_t lane = 0;
  if (!reader.ReadString(&out->slot, limits.max_string_bytes) ||
      !reader.Read(&lane) || lane > 1 || !reader.Read(&out->deadline_us) ||
      !reader.Read(&out->list.user_id) ||
      !reader.ReadArray(&out->list.items, limits.max_items) ||
      !reader.ReadArray(&out->list.scores, limits.max_items)) {
    return false;
  }
  out->lane = lane == 0 ? serve::Lane::kHigh : serve::Lane::kLow;
  out->list.clicks.clear();
  return reader.AtEnd();
}

bool ParseScoreResponse(const Frame& frame, WireResponse* out,
                        const CodecLimits& limits) {
  if (frame.header.type != FrameType::kScoreResponse) return false;
  out->request_id = frame.header.request_id;
  ByteReader reader(frame.payload.data(), frame.payload.size());
  uint8_t flags = 0;
  if (!reader.Read(&flags) || !reader.Read(&out->model_version) ||
      !reader.ReadString(&out->model_name, limits.max_string_bytes) ||
      !reader.Read(&out->server_latency_us) ||
      !reader.ReadArray(&out->items, limits.max_items)) {
    return false;
  }
  out->degraded = (flags & kFlagDegraded) != 0;
  out->shed = (flags & kFlagShed) != 0;
  out->cache_hit = (flags & kFlagCacheHit) != 0;
  return reader.AtEnd();
}

bool ParseError(const Frame& frame, WireError* out,
                const CodecLimits& limits) {
  if (frame.header.type != FrameType::kError) return false;
  out->request_id = frame.header.request_id;
  ByteReader reader(frame.payload.data(), frame.payload.size());
  return reader.ReadString(&out->message, limits.max_string_bytes) &&
         reader.AtEnd();
}

bool ParseStatsRequest(const Frame& frame, WireStatsRequest* out,
                       const CodecLimits& limits) {
  (void)limits;
  if (frame.header.type != FrameType::kStatsRequest) return false;
  out->request_id = frame.header.request_id;
  ByteReader reader(frame.payload.data(), frame.payload.size());
  uint8_t format = 0;
  if (!reader.Read(&format) || format > 2 || !reader.AtEnd()) return false;
  out->format = static_cast<StatsFormat>(format);
  return true;
}

bool ParseStatsResponse(const Frame& frame, WireStatsResponse* out,
                        const CodecLimits& limits) {
  if (frame.header.type != FrameType::kStatsResponse) return false;
  out->request_id = frame.header.request_id;
  ByteReader reader(frame.payload.data(), frame.payload.size());
  uint8_t format = 0;
  if (!reader.Read(&format) || format > 2) return false;
  out->format = static_cast<StatsFormat>(format);
  if (out->format != StatsFormat::kBinary) {
    // Everything after the format byte is the text body (JSON or
    // Prometheus exposition).
    out->text.assign(
        reinterpret_cast<const char*>(frame.payload.data()) + 1,
        frame.payload.size() - 1);
    out->stats = serve::RouterStats{};
    return true;
  }
  out->text.clear();
  out->stats = serve::RouterStats{};
  return ReadRouterStats(&reader, &out->stats, limits) && reader.AtEnd();
}

void EncodeFeedback(const WireFeedback& feedback, std::vector<uint8_t>* out) {
  std::vector<uint8_t> payload;
  AppendString(&payload, feedback.slot);
  Append<uint64_t>(&payload, feedback.model_version);
  Append<int32_t>(&payload, feedback.user_id);
  Append<uint32_t>(&payload, static_cast<uint32_t>(feedback.items.size()));
  AppendBytes(&payload, feedback.items.data(),
              feedback.items.size() * sizeof(int));
  Append<uint32_t>(&payload, static_cast<uint32_t>(feedback.clicks.size()));
  AppendBytes(&payload, feedback.clicks.data(), feedback.clicks.size());
  AppendFrame(out, FrameType::kFeedback, feedback.request_id, payload);
}

void EncodeFeedbackAck(const WireFeedbackAck& ack,
                       std::vector<uint8_t>* out) {
  std::vector<uint8_t> payload;
  Append<uint8_t>(&payload, ack.accepted ? 1 : 0);
  AppendString(&payload, std::string_view(ack.message).substr(0, 255));
  AppendFrame(out, FrameType::kFeedbackAck, ack.request_id, payload);
}

bool ParseFeedback(const Frame& frame, WireFeedback* out,
                   const CodecLimits& limits) {
  if (frame.header.type != FrameType::kFeedback) return false;
  out->request_id = frame.header.request_id;
  ByteReader reader(frame.payload.data(), frame.payload.size());
  if (!reader.ReadString(&out->slot, limits.max_string_bytes) ||
      !reader.Read(&out->model_version) || !reader.Read(&out->user_id) ||
      !reader.ReadArray(&out->items, limits.max_items) ||
      !reader.ReadArray(&out->clicks, limits.max_items)) {
    return false;
  }
  // One label per served item — a mismatch is an internally inconsistent
  // payload, not something the trainer should guess about.
  if (out->clicks.size() != out->items.size()) return false;
  for (const uint8_t click : out->clicks) {
    if (click > 1) return false;
  }
  return reader.AtEnd();
}

bool ParseFeedbackAck(const Frame& frame, WireFeedbackAck* out,
                      const CodecLimits& limits) {
  if (frame.header.type != FrameType::kFeedbackAck) return false;
  out->request_id = frame.header.request_id;
  ByteReader reader(frame.payload.data(), frame.payload.size());
  uint8_t accepted = 0;
  if (!reader.Read(&accepted) || accepted > 1 ||
      !reader.ReadString(&out->message, limits.max_string_bytes) ||
      !reader.AtEnd()) {
    return false;
  }
  out->accepted = accepted != 0;
  return true;
}

void EncodePageRequest(const WirePageRequest& request,
                       std::vector<uint8_t>* out) {
  std::vector<uint8_t> payload;
  AppendString(&payload, request.slot);
  Append<uint8_t>(&payload, request.lane == serve::Lane::kHigh ? 0 : 1);
  Append<int64_t>(&payload, request.deadline_us);
  Append<int32_t>(&payload, request.user_id);
  Append<float>(&payload, request.diversity_budget);
  Append<uint8_t>(&payload, request.joint ? 1 : 0);
  Append<int32_t>(&payload, request.top_k);
  Append<uint32_t>(&payload, static_cast<uint32_t>(request.lists.size()));
  for (const data::ImpressionList& list : request.lists) {
    Append<uint32_t>(&payload, static_cast<uint32_t>(list.items.size()));
    AppendBytes(&payload, list.items.data(),
                list.items.size() * sizeof(int));
    Append<uint32_t>(&payload, static_cast<uint32_t>(list.scores.size()));
    AppendBytes(&payload, list.scores.data(),
                list.scores.size() * sizeof(float));
  }
  AppendFrame(out, FrameType::kPageRequest, request.request_id, payload);
}

void EncodePageResponse(const WirePageResponse& response,
                        std::vector<uint8_t>* out) {
  std::vector<uint8_t> payload;
  Append<uint8_t>(&payload, response.degraded ? kFlagDegraded : 0);
  Append<uint64_t>(&payload, response.model_version);
  AppendString(&payload, response.model_name);
  Append<int64_t>(&payload, response.server_latency_us);
  Append<float>(&payload, response.page_coverage);
  Append<float>(&payload, response.cross_list_redundancy);
  Append<uint32_t>(&payload, static_cast<uint32_t>(response.lists.size()));
  for (const std::vector<int>& list : response.lists) {
    Append<uint32_t>(&payload, static_cast<uint32_t>(list.size()));
    AppendBytes(&payload, list.data(), list.size() * sizeof(int));
  }
  AppendFrame(out, FrameType::kPageResponse, response.request_id, payload);
}

bool ParsePageRequest(const Frame& frame, WirePageRequest* out,
                      const CodecLimits& limits) {
  if (frame.header.type != FrameType::kPageRequest) return false;
  out->request_id = frame.header.request_id;
  ByteReader reader(frame.payload.data(), frame.payload.size());
  uint8_t lane = 0;
  uint32_t num_lists = 0;
  if (!reader.ReadString(&out->slot, limits.max_string_bytes) ||
      !reader.Read(&lane) || lane > 1 || !reader.Read(&out->deadline_us) ||
      !reader.Read(&out->user_id) || !reader.Read(&out->diversity_budget) ||
      !reader.Read(&out->joint) || out->joint > 1 ||
      !reader.Read(&out->top_k) || out->top_k < 0 ||
      !reader.Read(&num_lists) || num_lists == 0 ||
      num_lists > limits.max_lists_per_page) {
    return false;
  }
  out->lane = lane == 0 ? serve::Lane::kHigh : serve::Lane::kLow;
  out->lists.clear();
  out->lists.reserve(num_lists);
  for (uint32_t l = 0; l < num_lists; ++l) {
    data::ImpressionList list;
    if (!reader.ReadArray(&list.items, limits.max_items) ||
        !reader.ReadArray(&list.scores, limits.max_items)) {
      return false;
    }
    out->lists.push_back(std::move(list));
  }
  return reader.AtEnd();
}

bool ParsePageResponse(const Frame& frame, WirePageResponse* out,
                       const CodecLimits& limits) {
  if (frame.header.type != FrameType::kPageResponse) return false;
  out->request_id = frame.header.request_id;
  ByteReader reader(frame.payload.data(), frame.payload.size());
  uint8_t flags = 0;
  uint32_t num_lists = 0;
  if (!reader.Read(&flags) || flags > kFlagDegraded ||
      !reader.Read(&out->model_version) ||
      !reader.ReadString(&out->model_name, limits.max_string_bytes) ||
      !reader.Read(&out->server_latency_us) ||
      !reader.Read(&out->page_coverage) ||
      !reader.Read(&out->cross_list_redundancy) ||
      !reader.Read(&num_lists) || num_lists > limits.max_lists_per_page) {
    return false;
  }
  out->degraded = (flags & kFlagDegraded) != 0;
  out->lists.clear();
  out->lists.reserve(num_lists);
  for (uint32_t l = 0; l < num_lists; ++l) {
    std::vector<int> items;
    if (!reader.ReadArray(&items, limits.max_items)) return false;
    out->lists.push_back(std::move(items));
  }
  return reader.AtEnd();
}

bool ParseLoadRequest(const Frame& frame, WireLoadRequest* out,
                      const CodecLimits& limits) {
  if (frame.header.type != FrameType::kLoadSlotRequest) return false;
  out->request_id = frame.header.request_id;
  ByteReader reader(frame.payload.data(), frame.payload.size());
  return reader.ReadString(&out->slot, limits.max_string_bytes) &&
         reader.ReadString(&out->path, limits.max_string_bytes) &&
         reader.AtEnd();
}

bool ParseLoadResponse(const Frame& frame, WireLoadResponse* out,
                       const CodecLimits& limits) {
  if (frame.header.type != FrameType::kLoadSlotResponse) return false;
  out->request_id = frame.header.request_id;
  ByteReader reader(frame.payload.data(), frame.payload.size());
  return reader.Read(&out->version) &&
         reader.ReadString(&out->message, limits.max_string_bytes) &&
         reader.AtEnd();
}

}  // namespace rapid::net
