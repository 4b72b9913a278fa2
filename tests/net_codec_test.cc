#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "net/codec.h"

namespace rapid {
namespace {

net::WireRequest SampleRequest(uint64_t id = 7) {
  net::WireRequest request;
  request.request_id = id;
  request.slot = "main";
  request.lane = serve::Lane::kLow;
  request.deadline_us = 2500;
  request.list.user_id = 42;
  for (int i = 0; i < 10; ++i) {
    request.list.items.push_back(100 + i);
    request.list.scores.push_back(1.0f - 0.1f * static_cast<float>(i));
  }
  return request;
}

net::WireResponse SampleResponse(uint64_t id = 7) {
  net::WireResponse response;
  response.request_id = id;
  response.degraded = true;
  response.cache_hit = true;
  response.model_name = "rapid-v2";
  response.model_version = 9;
  response.server_latency_us = 1234;
  response.items = {3, 1, 4, 1, 5};
  return response;
}

std::vector<uint8_t> Encoded(const net::WireRequest& request) {
  std::vector<uint8_t> bytes;
  net::EncodeScoreRequest(request, &bytes);
  return bytes;
}

// ---------------------------------------------------------------------------
// Round trips

TEST(NetCodecTest, ScoreRequestRoundTrips) {
  const net::WireRequest request = SampleRequest();
  const std::vector<uint8_t> bytes = Encoded(request);
  ASSERT_GE(bytes.size(), net::kFrameHeaderBytes);

  size_t consumed = 0;
  net::Frame frame;
  ASSERT_EQ(net::ExtractFrame(bytes.data(), bytes.size(), &consumed, &frame),
            net::DecodeStatus::kOk);
  EXPECT_EQ(consumed, bytes.size());
  EXPECT_EQ(frame.header.type, net::FrameType::kScoreRequest);
  EXPECT_EQ(frame.header.request_id, request.request_id);

  net::WireRequest decoded;
  ASSERT_TRUE(net::ParseScoreRequest(frame, &decoded));
  EXPECT_EQ(decoded.request_id, request.request_id);
  EXPECT_EQ(decoded.slot, request.slot);
  EXPECT_EQ(decoded.lane, request.lane);
  EXPECT_EQ(decoded.deadline_us, request.deadline_us);
  EXPECT_EQ(decoded.list.user_id, request.list.user_id);
  EXPECT_EQ(decoded.list.items, request.list.items);
  EXPECT_EQ(decoded.list.scores, request.list.scores);
}

TEST(NetCodecTest, ScoreResponseAndErrorRoundTrip) {
  const net::WireResponse response = SampleResponse();
  std::vector<uint8_t> bytes;
  net::EncodeScoreResponse(response, &bytes);
  net::EncodeError(11, "slot unknown", &bytes);  // Appended, same buffer.

  size_t consumed = 0;
  net::Frame frame;
  ASSERT_EQ(net::ExtractFrame(bytes.data(), bytes.size(), &consumed, &frame),
            net::DecodeStatus::kOk);
  net::WireResponse decoded;
  ASSERT_TRUE(net::ParseScoreResponse(frame, &decoded));
  EXPECT_EQ(decoded.request_id, response.request_id);
  EXPECT_EQ(decoded.degraded, response.degraded);
  EXPECT_EQ(decoded.shed, response.shed);
  EXPECT_EQ(decoded.cache_hit, response.cache_hit);
  EXPECT_EQ(decoded.model_name, response.model_name);
  EXPECT_EQ(decoded.model_version, response.model_version);
  EXPECT_EQ(decoded.server_latency_us, response.server_latency_us);
  EXPECT_EQ(decoded.items, response.items);

  // Second frame in the same flat buffer: the error report.
  const size_t first = consumed;
  ASSERT_EQ(net::ExtractFrame(bytes.data() + first, bytes.size() - first,
                              &consumed, &frame),
            net::DecodeStatus::kOk);
  EXPECT_EQ(first + consumed, bytes.size());
  net::WireError error;
  ASSERT_TRUE(net::ParseError(frame, &error));
  EXPECT_EQ(error.request_id, 11u);
  EXPECT_EQ(error.message, "slot unknown");
}

TEST(NetCodecTest, RandomizedRequestsRoundTripExactly) {
  std::mt19937_64 rng(20260805);
  std::uniform_int_distribution<int> num_items(0, 64);
  std::uniform_int_distribution<int> slot_len(0, 32);
  std::uniform_real_distribution<float> score(-10.0f, 10.0f);
  for (int trial = 0; trial < 200; ++trial) {
    net::WireRequest request;
    request.request_id = rng();
    const int n = slot_len(rng);
    for (int i = 0; i < n; ++i) {
      request.slot.push_back(static_cast<char>('a' + (rng() % 26)));
    }
    request.lane = (rng() & 1) ? serve::Lane::kLow : serve::Lane::kHigh;
    request.deadline_us = static_cast<int64_t>(rng() % 1'000'000);
    request.list.user_id = static_cast<int>(rng() % 10'000);
    const int items = num_items(rng);
    for (int i = 0; i < items; ++i) {
      request.list.items.push_back(static_cast<int>(rng() % 100'000));
      request.list.scores.push_back(score(rng));
    }

    const std::vector<uint8_t> bytes = Encoded(request);
    size_t consumed = 0;
    net::Frame frame;
    ASSERT_EQ(net::ExtractFrame(bytes.data(), bytes.size(), &consumed, &frame),
              net::DecodeStatus::kOk)
        << trial;
    ASSERT_EQ(consumed, bytes.size()) << trial;
    net::WireRequest decoded;
    ASSERT_TRUE(net::ParseScoreRequest(frame, &decoded)) << trial;
    EXPECT_EQ(decoded.request_id, request.request_id);
    EXPECT_EQ(decoded.slot, request.slot);
    EXPECT_EQ(decoded.lane, request.lane);
    EXPECT_EQ(decoded.deadline_us, request.deadline_us);
    EXPECT_EQ(decoded.list.user_id, request.list.user_id);
    EXPECT_EQ(decoded.list.items, request.list.items);
    // Scores must survive bit-exactly (they feed the cache fingerprint).
    ASSERT_EQ(decoded.list.scores.size(), request.list.scores.size());
    if (!request.list.scores.empty()) {
      EXPECT_EQ(0, std::memcmp(decoded.list.scores.data(),
                               request.list.scores.data(),
                               request.list.scores.size() * sizeof(float)));
    }
  }
}

// ---------------------------------------------------------------------------
// Framing robustness: torn, corrupt, and hostile buffers

TEST(NetCodecTest, EveryTruncationIsNeedMoreNeverError) {
  const std::vector<uint8_t> bytes = Encoded(SampleRequest());
  // Any strict prefix of a valid frame is an incomplete read in progress:
  // the decoder must ask for more bytes, not kill the connection. (A
  // prefix shorter than the magic cannot be vetted yet either.)
  for (size_t size = 0; size < bytes.size(); ++size) {
    size_t consumed = 0;
    net::Frame frame;
    EXPECT_EQ(net::ExtractFrame(bytes.data(), size, &consumed, &frame),
              net::DecodeStatus::kNeedMore)
        << "prefix of " << size << " bytes";
  }
}

struct CorruptCase {
  const char* name;
  size_t offset;      // Byte to overwrite...
  uint8_t value;      // ...with this value.
};

TEST(NetCodecTest, CorruptHeadersAreRejectedWithoutCrash) {
  const std::vector<uint8_t> valid = Encoded(SampleRequest());
  const CorruptCase cases[] = {
      {"bad magic byte 0", 0, 0x00},
      {"bad magic byte 3", 3, 0xFF},
      {"unknown version", 4, 99},
      {"reserved flags set", 6, 0x01},
      {"reserved flags high byte", 7, 0x80},
  };
  for (const CorruptCase& c : cases) {
    std::vector<uint8_t> bytes = valid;
    bytes[c.offset] = c.value;
    size_t consumed = 0;
    net::Frame frame;
    EXPECT_EQ(net::ExtractFrame(bytes.data(), bytes.size(), &consumed, &frame),
              net::DecodeStatus::kError)
        << c.name;
  }

  // An oversized payload length is rejected from the header alone — the
  // decoder must not wait for (or allocate) a gigabyte that will never
  // arrive.
  std::vector<uint8_t> bytes = valid;
  const uint32_t huge = 0x40000000;
  std::memcpy(bytes.data() + 16, &huge, sizeof(huge));
  size_t consumed = 0;
  net::Frame frame;
  EXPECT_EQ(net::ExtractFrame(bytes.data(), bytes.size(), &consumed, &frame),
            net::DecodeStatus::kError);

  // A length just past the configured cap is equally dead, even though the
  // header itself is well-formed.
  net::CodecLimits limits;
  limits.max_payload_bytes = 64;
  std::vector<uint8_t> capped = valid;
  const uint32_t over = 65;
  std::memcpy(capped.data() + 16, &over, sizeof(over));
  EXPECT_EQ(
      net::ExtractFrame(capped.data(), capped.size(), &consumed, &frame, limits),
      net::DecodeStatus::kError);
}

TEST(NetCodecTest, ZeroLengthPayloadFramesParseCleanly) {
  // Hand-build a header-only frame (payload_len = 0) of each type. The
  // framing layer accepts it; the payload parsers reject it as truncated
  // without reading out of bounds.
  for (uint8_t type = 1; type <= 3; ++type) {
    std::vector<uint8_t> bytes(net::kFrameHeaderBytes, 0);
    std::memcpy(bytes.data(), &net::kFrameMagic, 4);
    bytes[4] = net::kProtocolVersion;
    bytes[5] = type;
    const uint64_t id = 5;
    std::memcpy(bytes.data() + 8, &id, sizeof(id));

    size_t consumed = 0;
    net::Frame frame;
    ASSERT_EQ(net::ExtractFrame(bytes.data(), bytes.size(), &consumed, &frame),
              net::DecodeStatus::kOk)
        << int{type};
    EXPECT_EQ(frame.payload.size(), 0u);
    net::WireRequest request;
    net::WireResponse response;
    net::WireError error;
    // Every payload starts with at least a length word, so a zero-byte
    // payload is truncated for all three types.
    EXPECT_FALSE(net::ParseScoreRequest(frame, &request)) << int{type};
    EXPECT_FALSE(net::ParseScoreResponse(frame, &response)) << int{type};
    EXPECT_FALSE(net::ParseError(frame, &error)) << int{type};
  }
}

TEST(NetCodecTest, ItemCountPointingPastPayloadEndFailsCleanly) {
  std::vector<uint8_t> bytes = Encoded(SampleRequest());
  // The item-count word sits after slot (u16 len + 4 bytes of "main"),
  // lane (u8), deadline (i64), and user id (i32) in the payload. Inflate
  // it so the declared array runs far past the payload end.
  const size_t count_off = net::kFrameHeaderBytes + 2 + 4 + 1 + 8 + 4;
  ASSERT_LT(count_off + 4, bytes.size());
  const uint32_t absurd = 0x00FFFFFF;
  std::memcpy(bytes.data() + count_off, &absurd, sizeof(absurd));

  size_t consumed = 0;
  net::Frame frame;
  ASSERT_EQ(net::ExtractFrame(bytes.data(), bytes.size(), &consumed, &frame),
            net::DecodeStatus::kOk);  // Framing is intact...
  net::WireRequest decoded;
  EXPECT_FALSE(net::ParseScoreRequest(frame, &decoded));  // ...payload not.
}

TEST(NetCodecTest, SingleBitFlipsNeverCrashTheDecoder) {
  const std::vector<uint8_t> valid = Encoded(SampleRequest());
  // Exhaustive single-bit corruption over the whole frame: every outcome
  // (accept, need-more, error, parse failure) is acceptable — crashing,
  // hanging, or reading out of bounds is not. ASan/UBSan builds give this
  // test its teeth.
  for (size_t byte = 0; byte < valid.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> bytes = valid;
      bytes[byte] ^= static_cast<uint8_t>(1u << bit);
      size_t consumed = 0;
      net::Frame frame;
      const net::DecodeStatus status =
          net::ExtractFrame(bytes.data(), bytes.size(), &consumed, &frame);
      if (status == net::DecodeStatus::kOk) {
        net::WireRequest decoded;
        net::WireResponse response;
        net::WireError error;
        net::ParseScoreRequest(frame, &decoded);
        net::ParseScoreResponse(frame, &response);
        net::ParseError(frame, &error);
      }
    }
  }
}

TEST(NetCodecTest, RandomGarbageBuffersNeverCrashTheDecoder) {
  std::mt19937_64 rng(97);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<uint8_t> bytes(rng() % 256);
    for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng());
    size_t consumed = 0;
    net::Frame frame;
    const net::DecodeStatus status =
        net::ExtractFrame(bytes.data(), bytes.size(), &consumed, &frame);
    if (status == net::DecodeStatus::kOk) {
      EXPECT_LE(consumed, bytes.size());
      net::WireRequest request;
      net::ParseScoreRequest(frame, &request);
    }
  }
}

TEST(NetCodecTest, LimitsBoundItemAndStringSizes) {
  net::CodecLimits limits;
  limits.max_items = 4;
  net::WireRequest request = SampleRequest();  // 10 items > 4 allowed.
  const std::vector<uint8_t> bytes = Encoded(request);
  size_t consumed = 0;
  net::Frame frame;
  ASSERT_EQ(net::ExtractFrame(bytes.data(), bytes.size(), &consumed, &frame),
            net::DecodeStatus::kOk);
  net::WireRequest decoded;
  EXPECT_FALSE(net::ParseScoreRequest(frame, &decoded, limits));
  EXPECT_TRUE(net::ParseScoreRequest(frame, &decoded));  // Default limits ok.

  net::CodecLimits tight;
  tight.max_string_bytes = 2;
  EXPECT_FALSE(net::ParseScoreRequest(frame, &decoded, tight));  // "main" > 2.
}

// ---------------------------------------------------------------------------
// Admin frames (stats scrape, remote load)

net::Frame ExtractOne(const std::vector<uint8_t>& bytes) {
  size_t consumed = 0;
  net::Frame frame;
  EXPECT_EQ(net::ExtractFrame(bytes.data(), bytes.size(), &consumed, &frame),
            net::DecodeStatus::kOk);
  EXPECT_EQ(consumed, bytes.size());
  return frame;
}

TEST(NetCodecTest, StatsRequestRoundTrips) {
  net::WireStatsRequest request;
  request.request_id = 21;
  request.format = net::StatsFormat::kJson;
  std::vector<uint8_t> bytes;
  net::EncodeStatsRequest(request, &bytes);
  const net::Frame frame = ExtractOne(bytes);
  EXPECT_EQ(frame.header.type, net::FrameType::kStatsRequest);

  net::WireStatsRequest decoded;
  ASSERT_TRUE(net::ParseStatsRequest(frame, &decoded));
  EXPECT_EQ(decoded.request_id, 21u);
  EXPECT_EQ(decoded.format, net::StatsFormat::kJson);
}

TEST(NetCodecTest, BinaryStatsResponseRoundTripsEveryField) {
  net::WireStatsResponse response;
  response.request_id = 22;
  response.format = net::StatsFormat::kBinary;
  serve::RouterStats& stats = response.stats;
  stats.total.requests = 1000;
  stats.total.fallbacks = 10;
  stats.total.shed = 5;
  stats.total.p50_us = 120.5;
  stats.total.p99_us = 900.25;
  stats.total.mean_us = 150.0;
  stats.total.max_us = 5000;
  stats.total.max_queue_depth = 17;
  stats.total.batches = 64;
  stats.total.batched_lists = 512;
  stats.total.max_batch_size = 8;
  stats.total.batch_size_hist[3] = 12;
  stats.total.latency_hist[0] = 40;
  stats.total.latency_hist[200] = 2;
  stats.total.arena_heap_allocs = 31;
  stats.total.arena_allocs = 2048;
  stats.total.arena_chunk_mallocs = 3;
  stats.total.arena_reserved_bytes = 3u << 20;
  stats.total.arena_high_water_bytes = 70'000;
  stats.cache.hits = 7;
  stats.cache.negative_hits = 3;
  stats.cache.negative_inserts = 4;
  stats.unknown_slot = 2;
  stats.invalid_ids = 9;
  stats.canary_rejected = 1;
  stats.quota_shed = 6;
  stats.has_net = true;
  stats.net.frames_in = 111;
  stats.net.stats_frames = 4;
  stats.net.load_frames = 2;
  stats.net.feedback_frames = 15;
  stats.net.max_inflight_per_conn = 13;
  stats.has_page = true;
  stats.page.pages = 41;
  stats.page.page_lists = 123;
  stats.page.joint_pages = 40;
  stats.page.degraded_pages = 1;
  stats.page.lists_per_page_hist[2] = 39;
  stats.page.lists_per_page_hist[7] = 2;
  stats.page.redundancy_millitopics = 523;
  stats.page.max_lists_per_page = 12;
  stats.has_online = true;
  stats.online.feedback_appended = 90;
  stats.online.feedback_dropped = 1;
  stats.online.feedback_drained = 88;
  stats.online.train_rounds = 11;
  stats.online.trained_lists = 88;
  stats.online.publishes = 3;
  stats.online.publish_rejected = 1;
  stats.online.publish_skipped = 2;
  stats.online.last_published_version = 4;
  serve::RouterStats::SlotEntry slot;
  slot.slot = "main";
  slot.model_name = "rapid-v2";
  slot.version = 5;
  slot.stats.requests = 1000;
  slot.cache.hits = 7;
  stats.slots.push_back(slot);

  std::vector<uint8_t> bytes;
  net::EncodeStatsResponse(response, &bytes);
  const net::Frame frame = ExtractOne(bytes);
  EXPECT_EQ(frame.header.type, net::FrameType::kStatsResponse);

  net::WireStatsResponse decoded;
  ASSERT_TRUE(net::ParseStatsResponse(frame, &decoded));
  EXPECT_EQ(decoded.request_id, 22u);
  EXPECT_EQ(decoded.format, net::StatsFormat::kBinary);
  EXPECT_EQ(decoded.stats.total.requests, 1000u);
  EXPECT_DOUBLE_EQ(decoded.stats.total.p50_us, 120.5);
  EXPECT_DOUBLE_EQ(decoded.stats.total.p99_us, 900.25);
  EXPECT_EQ(decoded.stats.total.max_us, 5000u);
  EXPECT_EQ(decoded.stats.total.max_queue_depth, 17);
  EXPECT_EQ(decoded.stats.total.batch_size_hist[3], 12u);
  EXPECT_EQ(decoded.stats.total.latency_hist[0], 40u);
  EXPECT_EQ(decoded.stats.total.latency_hist[200], 2u);
  EXPECT_EQ(decoded.stats.total.arena_heap_allocs, 31u);
  EXPECT_EQ(decoded.stats.total.arena_allocs, 2048u);
  EXPECT_EQ(decoded.stats.total.arena_chunk_mallocs, 3u);
  EXPECT_EQ(decoded.stats.total.arena_reserved_bytes, 3u << 20);
  EXPECT_EQ(decoded.stats.total.arena_high_water_bytes, 70'000u);
  EXPECT_EQ(decoded.stats.cache.negative_hits, 3u);
  EXPECT_EQ(decoded.stats.cache.negative_inserts, 4u);
  EXPECT_EQ(decoded.stats.unknown_slot, 2u);
  EXPECT_EQ(decoded.stats.invalid_ids, 9u);
  EXPECT_EQ(decoded.stats.canary_rejected, 1u);
  EXPECT_EQ(decoded.stats.quota_shed, 6u);
  ASSERT_TRUE(decoded.stats.has_net);
  EXPECT_EQ(decoded.stats.net.frames_in, 111u);
  EXPECT_EQ(decoded.stats.net.stats_frames, 4u);
  EXPECT_EQ(decoded.stats.net.load_frames, 2u);
  EXPECT_EQ(decoded.stats.net.feedback_frames, 15u);
  EXPECT_EQ(decoded.stats.net.max_inflight_per_conn, 13);
  ASSERT_TRUE(decoded.stats.has_online);
  EXPECT_EQ(decoded.stats.online.feedback_appended, 90u);
  EXPECT_EQ(decoded.stats.online.feedback_dropped, 1u);
  EXPECT_EQ(decoded.stats.online.feedback_drained, 88u);
  EXPECT_EQ(decoded.stats.online.train_rounds, 11u);
  EXPECT_EQ(decoded.stats.online.trained_lists, 88u);
  EXPECT_EQ(decoded.stats.online.publishes, 3u);
  EXPECT_EQ(decoded.stats.online.publish_rejected, 1u);
  EXPECT_EQ(decoded.stats.online.publish_skipped, 2u);
  EXPECT_EQ(decoded.stats.online.last_published_version, 4u);
  ASSERT_TRUE(decoded.stats.has_page);
  EXPECT_EQ(decoded.stats.page.pages, 41u);
  EXPECT_EQ(decoded.stats.page.page_lists, 123u);
  EXPECT_EQ(decoded.stats.page.joint_pages, 40u);
  EXPECT_EQ(decoded.stats.page.degraded_pages, 1u);
  EXPECT_EQ(decoded.stats.page.lists_per_page_hist[2], 39u);
  EXPECT_EQ(decoded.stats.page.lists_per_page_hist[7], 2u);
  EXPECT_EQ(decoded.stats.page.redundancy_millitopics, 523u);
  EXPECT_EQ(decoded.stats.page.max_lists_per_page, 12);
  ASSERT_EQ(decoded.stats.slots.size(), 1u);
  EXPECT_EQ(decoded.stats.slots[0].slot, "main");
  EXPECT_EQ(decoded.stats.slots[0].model_name, "rapid-v2");
  EXPECT_EQ(decoded.stats.slots[0].version, 5u);
  EXPECT_EQ(decoded.stats.slots[0].stats.requests, 1000u);
  EXPECT_EQ(decoded.stats.slots[0].cache.hits, 7u);
}

TEST(NetCodecTest, JsonStatsResponseCarriesArbitrarilyLongText) {
  net::WireStatsResponse response;
  response.request_id = 23;
  response.format = net::StatsFormat::kJson;
  // Deliberately far beyond max_string_bytes: the JSON rendering is raw
  // payload, not a length-prefixed string.
  response.text.assign(10'000, 'x');
  std::vector<uint8_t> bytes;
  net::EncodeStatsResponse(response, &bytes);
  net::WireStatsResponse decoded;
  ASSERT_TRUE(net::ParseStatsResponse(ExtractOne(bytes), &decoded));
  EXPECT_EQ(decoded.format, net::StatsFormat::kJson);
  EXPECT_EQ(decoded.text, response.text);
}

TEST(NetCodecTest, PrometheusStatsResponseUsesTheTextChannel) {
  net::WireStatsResponse response;
  response.request_id = 25;
  response.format = net::StatsFormat::kPrometheus;
  response.text = "# TYPE rapid_requests_total counter\nrapid_requests_total 5\n";
  std::vector<uint8_t> bytes;
  net::EncodeStatsResponse(response, &bytes);
  net::WireStatsResponse decoded;
  ASSERT_TRUE(net::ParseStatsResponse(ExtractOne(bytes), &decoded));
  EXPECT_EQ(decoded.format, net::StatsFormat::kPrometheus);
  EXPECT_EQ(decoded.text, response.text);
}

TEST(NetCodecTest, LoadFramesRoundTrip) {
  net::WireLoadRequest request;
  request.request_id = 31;
  request.slot = "main";
  request.path = "/snapshots/model.rsnp";
  std::vector<uint8_t> bytes;
  net::EncodeLoadRequest(request, &bytes);
  net::Frame frame = ExtractOne(bytes);
  EXPECT_EQ(frame.header.type, net::FrameType::kLoadSlotRequest);
  net::WireLoadRequest decoded_request;
  ASSERT_TRUE(net::ParseLoadRequest(frame, &decoded_request));
  EXPECT_EQ(decoded_request.request_id, 31u);
  EXPECT_EQ(decoded_request.slot, "main");
  EXPECT_EQ(decoded_request.path, "/snapshots/model.rsnp");

  net::WireLoadResponse response;
  response.request_id = 31;
  response.version = 0;  // A refusal carries its reason.
  response.message = "canary rejected";
  bytes.clear();
  net::EncodeLoadResponse(response, &bytes);
  net::WireLoadResponse decoded_response;
  ASSERT_TRUE(net::ParseLoadResponse(ExtractOne(bytes), &decoded_response));
  EXPECT_EQ(decoded_response.request_id, 31u);
  EXPECT_EQ(decoded_response.version, 0u);
  EXPECT_EQ(decoded_response.message, "canary rejected");
}

TEST(NetCodecTest, OversizedStringsTruncateWithoutDesynchronizingFrames) {
  // A string longer than the 16-bit length prefix can describe must not
  // emit a frame whose prefix disagrees with its payload: the encoder
  // clamps to 64KiB-1 bytes and the next frame on the buffer still parses.
  net::WireLoadRequest request;
  request.request_id = 77;
  request.slot = "main";
  request.path = std::string(100000, 'p');
  std::vector<uint8_t> bytes;
  net::EncodeLoadRequest(request, &bytes);
  net::WireLoadResponse trailer;
  trailer.request_id = 78;
  trailer.version = 5;
  trailer.message = "next frame intact";
  net::EncodeLoadResponse(trailer, &bytes);

  net::CodecLimits big;
  big.max_string_bytes = 1u << 17;  // Decode bound above the encode clamp.

  size_t consumed = 0;
  net::Frame frame;
  ASSERT_EQ(
      net::ExtractFrame(bytes.data(), bytes.size(), &consumed, &frame, big),
      net::DecodeStatus::kOk);
  net::WireLoadRequest decoded;
  ASSERT_TRUE(net::ParseLoadRequest(frame, &decoded, big));
  EXPECT_EQ(decoded.slot, "main");
  EXPECT_EQ(decoded.path.size(), 65535u);
  EXPECT_EQ(decoded.path, request.path.substr(0, 65535));

  // The frame boundary survived the truncation: the trailing frame is
  // exactly the remaining bytes and decodes cleanly.
  size_t consumed2 = 0;
  net::Frame frame2;
  ASSERT_EQ(net::ExtractFrame(bytes.data() + consumed, bytes.size() - consumed,
                              &consumed2, &frame2, big),
            net::DecodeStatus::kOk);
  EXPECT_EQ(consumed2, bytes.size() - consumed);
  net::WireLoadResponse decoded2;
  ASSERT_TRUE(net::ParseLoadResponse(frame2, &decoded2, big));
  EXPECT_EQ(decoded2.request_id, 78u);
  EXPECT_EQ(decoded2.message, "next frame intact");
}

TEST(NetCodecTest, FeedbackFramesRoundTrip) {
  net::WireFeedback feedback;
  feedback.request_id = 41;
  feedback.slot = "online";
  feedback.model_version = 6;
  feedback.user_id = 42;
  feedback.items = {9, 3, 7, 1};
  feedback.clicks = {1, 0, 0, 1};
  std::vector<uint8_t> bytes;
  net::EncodeFeedback(feedback, &bytes);
  net::Frame frame = ExtractOne(bytes);
  EXPECT_EQ(frame.header.type, net::FrameType::kFeedback);
  net::WireFeedback decoded;
  ASSERT_TRUE(net::ParseFeedback(frame, &decoded));
  EXPECT_EQ(decoded.request_id, 41u);
  EXPECT_EQ(decoded.slot, "online");
  EXPECT_EQ(decoded.model_version, 6u);
  EXPECT_EQ(decoded.user_id, 42);
  EXPECT_EQ(decoded.items, feedback.items);
  EXPECT_EQ(decoded.clicks, feedback.clicks);

  net::WireFeedbackAck ack;
  ack.request_id = 41;
  ack.accepted = false;
  ack.message = "feedback log full or closed";
  bytes.clear();
  net::EncodeFeedbackAck(ack, &bytes);
  net::WireFeedbackAck decoded_ack;
  ASSERT_TRUE(net::ParseFeedbackAck(ExtractOne(bytes), &decoded_ack));
  EXPECT_EQ(decoded_ack.request_id, 41u);
  EXPECT_FALSE(decoded_ack.accepted);
  EXPECT_EQ(decoded_ack.message, "feedback log full or closed");
}

TEST(NetCodecTest, FeedbackClickLabelsMustAlignAndBeBinary) {
  net::WireFeedback feedback;
  feedback.request_id = 42;
  feedback.slot = "online";
  feedback.user_id = 1;
  feedback.items = {5, 6, 7};
  feedback.clicks = {1, 0, 1};
  std::vector<uint8_t> bytes;
  net::EncodeFeedback(feedback, &bytes);

  // Click count sits last on the wire; shrink it so the arrays disagree.
  {
    std::vector<uint8_t> torn = bytes;
    const size_t clicks_count_off = torn.size() - feedback.clicks.size() - 4;
    const uint32_t two = 2;
    std::memcpy(torn.data() + clicks_count_off, &two, sizeof(two));
    // Fix the header length so framing still accepts the shorter payload.
    const uint32_t payload_len =
        static_cast<uint32_t>(torn.size() - 1 - net::kFrameHeaderBytes);
    std::memcpy(torn.data() + 16, &payload_len, 4);
    torn.pop_back();
    net::WireFeedback decoded;
    EXPECT_FALSE(net::ParseFeedback(ExtractOne(torn), &decoded));
  }

  // A click label other than 0/1 is rejected, not clamped.
  {
    std::vector<uint8_t> bad = bytes;
    bad[bad.size() - 1] = 7;
    net::WireFeedback decoded;
    EXPECT_FALSE(net::ParseFeedback(ExtractOne(bad), &decoded));
  }
}

net::WirePageRequest SamplePageRequest(uint64_t id = 31) {
  net::WirePageRequest request;
  request.request_id = id;
  request.slot = "main";
  request.lane = serve::Lane::kLow;
  request.deadline_us = 9000;
  request.user_id = 17;
  request.diversity_budget = 1.75f;
  request.joint = 1;
  request.top_k = 5;
  for (int l = 0; l < 3; ++l) {
    data::ImpressionList list;
    for (int i = 0; i < 4 + l; ++i) {
      list.items.push_back(l * 100 + i);
      list.scores.push_back(0.9f - 0.05f * static_cast<float>(i));
    }
    request.lists.push_back(std::move(list));
  }
  return request;
}

TEST(NetCodecTest, PageRequestRoundTrips) {
  const net::WirePageRequest request = SamplePageRequest();
  std::vector<uint8_t> bytes;
  net::EncodePageRequest(request, &bytes);
  const net::Frame frame = ExtractOne(bytes);
  EXPECT_EQ(frame.header.type, net::FrameType::kPageRequest);

  net::WirePageRequest decoded;
  ASSERT_TRUE(net::ParsePageRequest(frame, &decoded));
  EXPECT_EQ(decoded.request_id, request.request_id);
  EXPECT_EQ(decoded.slot, request.slot);
  EXPECT_EQ(decoded.lane, request.lane);
  EXPECT_EQ(decoded.deadline_us, request.deadline_us);
  EXPECT_EQ(decoded.user_id, request.user_id);
  EXPECT_FLOAT_EQ(decoded.diversity_budget, request.diversity_budget);
  EXPECT_EQ(decoded.joint, request.joint);
  EXPECT_EQ(decoded.top_k, request.top_k);
  ASSERT_EQ(decoded.lists.size(), request.lists.size());
  for (size_t l = 0; l < request.lists.size(); ++l) {
    EXPECT_EQ(decoded.lists[l].items, request.lists[l].items);
    EXPECT_EQ(decoded.lists[l].scores, request.lists[l].scores);
  }
}

TEST(NetCodecTest, PageResponseRoundTrips) {
  net::WirePageResponse response;
  response.request_id = 32;
  response.degraded = true;
  response.model_name = "rapid-v3";
  response.model_version = 12;
  response.server_latency_us = 777;
  response.page_coverage = 0.625f;
  response.cross_list_redundancy = 0.125f;
  response.lists = {{5, 3, 1}, {}, {9, 8, 7, 6}};

  std::vector<uint8_t> bytes;
  net::EncodePageResponse(response, &bytes);
  const net::Frame frame = ExtractOne(bytes);
  EXPECT_EQ(frame.header.type, net::FrameType::kPageResponse);

  net::WirePageResponse decoded;
  ASSERT_TRUE(net::ParsePageResponse(frame, &decoded));
  EXPECT_EQ(decoded.request_id, 32u);
  EXPECT_TRUE(decoded.degraded);
  EXPECT_EQ(decoded.model_name, "rapid-v3");
  EXPECT_EQ(decoded.model_version, 12u);
  EXPECT_EQ(decoded.server_latency_us, 777);
  EXPECT_FLOAT_EQ(decoded.page_coverage, 0.625f);
  EXPECT_FLOAT_EQ(decoded.cross_list_redundancy, 0.125f);
  EXPECT_EQ(decoded.lists, response.lists);
}

TEST(NetCodecTest, PageRequestLimitsListsAndItems) {
  net::CodecLimits limits;
  limits.max_lists_per_page = 2;
  net::WirePageRequest request = SamplePageRequest();  // 3 lists.
  std::vector<uint8_t> bytes;
  net::EncodePageRequest(request, &bytes);
  net::Frame frame = ExtractOne(bytes);
  net::WirePageRequest decoded;
  EXPECT_FALSE(net::ParsePageRequest(frame, &decoded, limits));

  // An empty page carries no lists to score — rejected outright.
  request.lists.clear();
  bytes.clear();
  net::EncodePageRequest(request, &bytes);
  frame = ExtractOne(bytes);
  EXPECT_FALSE(net::ParsePageRequest(frame, &decoded));

  net::CodecLimits tight;
  tight.max_items = 3;
  net::WirePageRequest big = SamplePageRequest();  // Lists of 4..6 items.
  bytes.clear();
  net::EncodePageRequest(big, &bytes);
  frame = ExtractOne(bytes);
  EXPECT_FALSE(net::ParsePageRequest(frame, &decoded, tight));
}

TEST(NetCodecTest, TruncatedStatsResponseFailsCleanly) {
  net::WireStatsResponse response;
  response.request_id = 24;
  response.format = net::StatsFormat::kBinary;
  response.stats.total.requests = 5;
  std::vector<uint8_t> full;
  net::EncodeStatsResponse(response, &full);
  // Chop the payload but fix up the header length so framing still parses:
  // strict payload decoding must reject every truncation, never crash.
  for (size_t cut = net::kFrameHeaderBytes; cut < full.size(); cut += 7) {
    std::vector<uint8_t> bytes(full.begin(), full.begin() + static_cast<ptrdiff_t>(cut));
    const uint32_t payload_len = static_cast<uint32_t>(cut - net::kFrameHeaderBytes);
    std::memcpy(bytes.data() + 16, &payload_len, 4);
    size_t consumed = 0;
    net::Frame frame;
    ASSERT_EQ(net::ExtractFrame(bytes.data(), bytes.size(), &consumed, &frame),
              net::DecodeStatus::kOk);
    net::WireStatsResponse decoded;
    EXPECT_FALSE(net::ParseStatsResponse(frame, &decoded)) << "cut=" << cut;
  }
}

}  // namespace
}  // namespace rapid
