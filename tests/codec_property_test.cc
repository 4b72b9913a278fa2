#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "net/codec.h"
#include "proptest.h"

// Property-based coverage of the wire codec: decode(encode(x)) == x for
// every frame type (checked structurally *and* by re-encoding to the same
// bytes), and no input buffer — random or a mutation of a valid frame —
// may crash the decoder. The example-based tests in net_codec_test.cc pin
// the layout; these sweep the input space around it.

namespace rapid {
namespace {

std::string RandomSlot(std::mt19937_64& rng, size_t max_len = 24) {
  std::string out;
  const size_t n = rng() % (max_len + 1);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(static_cast<char>('a' + rng() % 26));
  }
  return out;
}

// ---------------------------------------------------------------------------
// decode . encode = id

net::WireFeedback RandomFeedback(std::mt19937_64& rng) {
  net::WireFeedback feedback;
  feedback.request_id = rng();
  feedback.slot = RandomSlot(rng);
  feedback.model_version = rng() % 1000;
  feedback.user_id = static_cast<int>(rng() % 10'000);
  const size_t n = rng() % 64;
  for (size_t i = 0; i < n; ++i) {
    feedback.items.push_back(static_cast<int>(rng() % 100'000));
    feedback.clicks.push_back(static_cast<uint8_t>(rng() & 1));
  }
  return feedback;
}

std::vector<net::WireFeedback> ShrinkFeedback(const net::WireFeedback& f) {
  std::vector<net::WireFeedback> out;
  if (!f.items.empty()) {
    net::WireFeedback half = f;
    half.items.resize(f.items.size() / 2);
    half.clicks.resize(f.items.size() / 2);
    out.push_back(std::move(half));
    net::WireFeedback one_less = f;
    one_less.items.pop_back();
    one_less.clicks.pop_back();
    out.push_back(std::move(one_less));
  }
  if (!f.slot.empty()) {
    net::WireFeedback no_slot = f;
    no_slot.slot.clear();
    out.push_back(std::move(no_slot));
  }
  return out;
}

std::string DescribeFeedback(const net::WireFeedback& f) {
  std::ostringstream os;
  os << "slot='" << f.slot << "' user=" << f.user_id << " items="
     << f.items.size();
  return os.str();
}

TEST(CodecPropertyTest, FeedbackDecodeEncodeIsIdentity) {
  EXPECT_TRUE(proptest::ForAll(
      20260808, 300, RandomFeedback, ShrinkFeedback,
      [](const net::WireFeedback& feedback) {
        std::vector<uint8_t> bytes;
        net::EncodeFeedback(feedback, &bytes);
        size_t consumed = 0;
        net::Frame frame;
        if (net::ExtractFrame(bytes.data(), bytes.size(), &consumed,
                              &frame) != net::DecodeStatus::kOk ||
            consumed != bytes.size()) {
          return false;
        }
        net::WireFeedback decoded;
        if (!net::ParseFeedback(frame, &decoded)) return false;
        if (decoded.request_id != feedback.request_id ||
            decoded.slot != feedback.slot ||
            decoded.model_version != feedback.model_version ||
            decoded.user_id != feedback.user_id ||
            decoded.items != feedback.items ||
            decoded.clicks != feedback.clicks) {
          return false;
        }
        // Re-encode: identity must hold byte-for-byte, not just field-wise.
        std::vector<uint8_t> again;
        net::EncodeFeedback(decoded, &again);
        return again == bytes;
      },
      DescribeFeedback));
}

net::WireRequest RandomScoreRequest(std::mt19937_64& rng) {
  net::WireRequest request;
  request.request_id = rng();
  request.slot = RandomSlot(rng);
  request.lane = (rng() & 1) ? serve::Lane::kLow : serve::Lane::kHigh;
  request.deadline_us = static_cast<int64_t>(rng() % 1'000'000);
  request.list.user_id = static_cast<int>(rng() % 10'000);
  const size_t n = rng() % 48;
  std::uniform_real_distribution<float> score(-100.0f, 100.0f);
  for (size_t i = 0; i < n; ++i) {
    request.list.items.push_back(static_cast<int>(rng() % 100'000));
    request.list.scores.push_back(score(rng));
  }
  return request;
}

std::vector<net::WireRequest> ShrinkScoreRequest(const net::WireRequest& r) {
  std::vector<net::WireRequest> out;
  if (!r.list.items.empty()) {
    net::WireRequest half = r;
    half.list.items.resize(r.list.items.size() / 2);
    half.list.scores.resize(r.list.items.size() / 2);
    out.push_back(std::move(half));
  }
  if (!r.slot.empty()) {
    net::WireRequest no_slot = r;
    no_slot.slot.clear();
    out.push_back(std::move(no_slot));
  }
  return out;
}

TEST(CodecPropertyTest, ScoreRequestDecodeEncodeIsIdentity) {
  EXPECT_TRUE(proptest::ForAll(
      20260809, 300, RandomScoreRequest, ShrinkScoreRequest,
      [](const net::WireRequest& request) {
        std::vector<uint8_t> bytes;
        net::EncodeScoreRequest(request, &bytes);
        size_t consumed = 0;
        net::Frame frame;
        if (net::ExtractFrame(bytes.data(), bytes.size(), &consumed,
                              &frame) != net::DecodeStatus::kOk) {
          return false;
        }
        net::WireRequest decoded;
        if (!net::ParseScoreRequest(frame, &decoded)) return false;
        std::vector<uint8_t> again;
        net::EncodeScoreRequest(decoded, &again);
        return again == bytes;
      },
      [](const net::WireRequest& r) {
        return "slot='" + r.slot + "' items=" +
               std::to_string(r.list.items.size());
      }));
}

serve::RouterStats RandomRouterStats(std::mt19937_64& rng) {
  serve::RouterStats stats;
  stats.total.requests = rng() % 100'000;
  stats.total.fallbacks = rng() % 100;
  stats.total.shed = rng() % 100;
  stats.total.p50_us = static_cast<double>(rng() % 10'000);
  stats.total.p95_us = static_cast<double>(rng() % 10'000);
  stats.total.p99_us = static_cast<double>(rng() % 10'000);
  stats.total.mean_us = static_cast<double>(rng() % 10'000);
  stats.total.max_us = rng() % 1'000'000;
  stats.total.batches = rng() % 1000;
  stats.total.batched_lists = rng() % 1000;
  stats.total.arena_heap_allocs = rng() % 10'000;
  stats.total.arena_allocs = rng() % 10'000'000;
  stats.total.arena_chunk_mallocs = rng() % 100;
  stats.total.arena_reserved_bytes = rng() % (64u << 20);
  stats.total.arena_high_water_bytes = rng() % (1u << 20);
  for (int i = 0; i < 6; ++i) {
    stats.total.batch_size_hist[rng() % stats.total.batch_size_hist.size()] =
        rng() % 50;
    stats.total.latency_hist[rng() % serve::ServingStats::kLatencyHistBins] =
        rng() % 50;
  }
  stats.cache.hits = rng() % 1000;
  stats.cache.misses = rng() % 1000;
  stats.unknown_slot = rng() % 10;
  if (rng() & 1) {
    stats.has_net = true;
    stats.net.frames_in = rng() % 10'000;
    stats.net.feedback_frames = rng() % 1000;
    stats.net.dropped_responses = rng() % 10;
  }
  if (rng() & 1) {
    stats.has_online = true;
    stats.online.feedback_appended = rng() % 10'000;
    stats.online.feedback_dropped = rng() % 100;
    stats.online.train_rounds = rng() % 1000;
    stats.online.publishes = rng() % 100;
    stats.online.last_published_version = rng() % 100;
  }
  if (rng() & 1) {
    stats.has_page = true;
    stats.page.pages = rng() % 10'000;
    stats.page.page_lists = rng() % 100'000;
    stats.page.joint_pages = rng() % 10'000;
    stats.page.degraded_pages = rng() % 100;
    for (int i = 0; i < 3; ++i) {
      stats.page.lists_per_page_hist[rng() %
                                     serve::PageStats::kListsHistBins] =
          rng() % 50;
    }
    stats.page.redundancy_millitopics = rng() % 100'000;
    stats.page.max_lists_per_page = static_cast<int>(rng() % 64);
  }
  const size_t slots = rng() % 4;
  for (size_t i = 0; i < slots; ++i) {
    serve::RouterStats::SlotEntry slot;
    slot.slot = RandomSlot(rng, 12);
    slot.model_name = RandomSlot(rng, 12);
    slot.version = rng() % 100;
    slot.stats.requests = rng() % 10'000;
    slot.cache.hits = rng() % 100;
    stats.slots.push_back(std::move(slot));
  }
  return stats;
}

std::vector<serve::RouterStats> ShrinkRouterStats(
    const serve::RouterStats& s) {
  std::vector<serve::RouterStats> out;
  if (!s.slots.empty()) {
    serve::RouterStats fewer = s;
    fewer.slots.pop_back();
    out.push_back(std::move(fewer));
  }
  if (s.has_online) {
    serve::RouterStats no_online = s;
    no_online.has_online = false;
    no_online.online = serve::OnlineStats{};
    out.push_back(std::move(no_online));
  }
  if (s.has_net) {
    serve::RouterStats no_net = s;
    no_net.has_net = false;
    no_net.net = serve::NetStats{};
    out.push_back(std::move(no_net));
  }
  if (s.has_page) {
    serve::RouterStats no_page = s;
    no_page.has_page = false;
    no_page.page = serve::PageStats{};
    out.push_back(std::move(no_page));
  }
  return out;
}

TEST(CodecPropertyTest, BinaryStatsDecodeEncodeIsIdentity) {
  EXPECT_TRUE(proptest::ForAll(
      20260810, 150, RandomRouterStats, ShrinkRouterStats,
      [](const serve::RouterStats& stats) {
        net::WireStatsResponse response;
        response.request_id = 99;
        response.format = net::StatsFormat::kBinary;
        response.stats = stats;
        std::vector<uint8_t> bytes;
        net::EncodeStatsResponse(response, &bytes);
        size_t consumed = 0;
        net::Frame frame;
        if (net::ExtractFrame(bytes.data(), bytes.size(), &consumed,
                              &frame) != net::DecodeStatus::kOk) {
          return false;
        }
        net::WireStatsResponse decoded;
        if (!net::ParseStatsResponse(frame, &decoded)) return false;
        std::vector<uint8_t> again;
        net::EncodeStatsResponse(decoded, &again);
        return again == bytes;
      },
      [](const serve::RouterStats& s) {
        return "slots=" + std::to_string(s.slots.size()) +
               (s.has_net ? " net" : "") + (s.has_online ? " online" : "");
      }));
}

TEST(CodecPropertyTest, LoadFramesDecodeEncodeIsIdentity) {
  struct LoadPair {
    net::WireLoadRequest request;
    net::WireLoadResponse response;
  };
  EXPECT_TRUE(proptest::ForAll(
      20260811, 200,
      [](std::mt19937_64& rng) {
        LoadPair pair;
        pair.request.request_id = rng();
        pair.request.slot = RandomSlot(rng);
        pair.request.path = "/tmp/" + RandomSlot(rng, 40);
        pair.response.request_id = rng();
        pair.response.version = rng() % 100;
        pair.response.message = RandomSlot(rng, 40);
        return pair;
      },
      [](const LoadPair& p) {
        std::vector<LoadPair> out;
        if (!p.request.path.empty() || !p.response.message.empty()) {
          LoadPair bare = p;
          bare.request.path.clear();
          bare.response.message.clear();
          out.push_back(std::move(bare));
        }
        return out;
      },
      [](const LoadPair& pair) {
        std::vector<uint8_t> bytes;
        net::EncodeLoadRequest(pair.request, &bytes);
        net::EncodeLoadResponse(pair.response, &bytes);
        size_t consumed = 0;
        net::Frame frame;
        if (net::ExtractFrame(bytes.data(), bytes.size(), &consumed,
                              &frame) != net::DecodeStatus::kOk) {
          return false;
        }
        net::WireLoadRequest request;
        if (!net::ParseLoadRequest(frame, &request) ||
            request.slot != pair.request.slot ||
            request.path != pair.request.path) {
          return false;
        }
        net::Frame frame2;
        size_t consumed2 = 0;
        if (net::ExtractFrame(bytes.data() + consumed,
                              bytes.size() - consumed, &consumed2,
                              &frame2) != net::DecodeStatus::kOk) {
          return false;
        }
        net::WireLoadResponse response;
        return net::ParseLoadResponse(frame2, &response) &&
               response.version == pair.response.version &&
               response.message == pair.response.message;
      },
      [](const LoadPair& p) { return "slot='" + p.request.slot + "'"; }));
}

net::WirePageRequest RandomPageRequest(std::mt19937_64& rng) {
  net::WirePageRequest request;
  request.request_id = rng();
  request.slot = RandomSlot(rng);
  request.lane = (rng() & 1) ? serve::Lane::kLow : serve::Lane::kHigh;
  request.deadline_us = static_cast<int64_t>(rng() % 1'000'000);
  request.user_id = static_cast<int>(rng() % 10'000);
  std::uniform_real_distribution<float> budget(0.0f, 8.0f);
  request.diversity_budget = budget(rng);
  request.joint = static_cast<uint8_t>(rng() & 1);
  request.top_k = static_cast<int>(rng() % 20);
  const size_t num_lists = 1 + rng() % 6;
  std::uniform_real_distribution<float> score(-100.0f, 100.0f);
  for (size_t l = 0; l < num_lists; ++l) {
    data::ImpressionList list;
    const size_t n = rng() % 32;
    for (size_t i = 0; i < n; ++i) {
      list.items.push_back(static_cast<int>(rng() % 100'000));
      list.scores.push_back(score(rng));
    }
    request.lists.push_back(std::move(list));
  }
  return request;
}

std::vector<net::WirePageRequest> ShrinkPageRequest(
    const net::WirePageRequest& r) {
  std::vector<net::WirePageRequest> out;
  if (r.lists.size() > 1) {
    net::WirePageRequest fewer = r;
    fewer.lists.pop_back();
    out.push_back(std::move(fewer));
  }
  if (!r.lists.empty() && !r.lists.back().items.empty()) {
    net::WirePageRequest smaller = r;
    smaller.lists.back().items.resize(r.lists.back().items.size() / 2);
    smaller.lists.back().scores.resize(r.lists.back().items.size() / 2);
    out.push_back(std::move(smaller));
  }
  if (!r.slot.empty()) {
    net::WirePageRequest no_slot = r;
    no_slot.slot.clear();
    out.push_back(std::move(no_slot));
  }
  return out;
}

std::string DescribePageRequest(const net::WirePageRequest& r) {
  std::ostringstream os;
  os << "slot='" << r.slot << "' lists=" << r.lists.size();
  for (const data::ImpressionList& list : r.lists) {
    os << " n=" << list.items.size();
  }
  return os.str();
}

TEST(CodecPropertyTest, PageRequestDecodeEncodeIsIdentity) {
  EXPECT_TRUE(proptest::ForAll(
      20260814, 300, RandomPageRequest, ShrinkPageRequest,
      [](const net::WirePageRequest& request) {
        std::vector<uint8_t> bytes;
        net::EncodePageRequest(request, &bytes);
        size_t consumed = 0;
        net::Frame frame;
        if (net::ExtractFrame(bytes.data(), bytes.size(), &consumed,
                              &frame) != net::DecodeStatus::kOk ||
            consumed != bytes.size()) {
          return false;
        }
        net::WirePageRequest decoded;
        if (!net::ParsePageRequest(frame, &decoded)) return false;
        if (decoded.lists.size() != request.lists.size()) return false;
        std::vector<uint8_t> again;
        net::EncodePageRequest(decoded, &again);
        return again == bytes;
      },
      DescribePageRequest));
}

net::WirePageResponse RandomPageResponse(std::mt19937_64& rng) {
  net::WirePageResponse response;
  response.request_id = rng();
  response.degraded = (rng() & 1) != 0;
  response.model_name = RandomSlot(rng);
  response.model_version = rng() % 1000;
  response.server_latency_us = static_cast<int64_t>(rng() % 1'000'000);
  std::uniform_real_distribution<float> unit(0.0f, 1.0f);
  response.page_coverage = unit(rng);
  response.cross_list_redundancy = unit(rng);
  const size_t num_lists = rng() % 6;
  for (size_t l = 0; l < num_lists; ++l) {
    std::vector<int> items(rng() % 32);
    for (int& item : items) item = static_cast<int>(rng() % 100'000);
    response.lists.push_back(std::move(items));
  }
  return response;
}

TEST(CodecPropertyTest, PageResponseDecodeEncodeIsIdentity) {
  EXPECT_TRUE(proptest::ForAll(
      20260815, 300, RandomPageResponse,
      [](const net::WirePageResponse& r) {
        std::vector<net::WirePageResponse> out;
        if (!r.lists.empty()) {
          net::WirePageResponse fewer = r;
          fewer.lists.pop_back();
          out.push_back(std::move(fewer));
        }
        return out;
      },
      [](const net::WirePageResponse& response) {
        std::vector<uint8_t> bytes;
        net::EncodePageResponse(response, &bytes);
        size_t consumed = 0;
        net::Frame frame;
        if (net::ExtractFrame(bytes.data(), bytes.size(), &consumed,
                              &frame) != net::DecodeStatus::kOk) {
          return false;
        }
        net::WirePageResponse decoded;
        if (!net::ParsePageResponse(frame, &decoded)) return false;
        std::vector<uint8_t> again;
        net::EncodePageResponse(decoded, &again);
        return again == bytes;
      },
      [](const net::WirePageResponse& r) {
        return "lists=" + std::to_string(r.lists.size());
      }));
}

TEST(CodecPropertyTest, EveryStrictPagePrefixIsNeedMore) {
  EXPECT_TRUE(proptest::ForAll(
      20260816, 60, RandomPageRequest, ShrinkPageRequest,
      [](const net::WirePageRequest& request) {
        std::vector<uint8_t> bytes;
        net::EncodePageRequest(request, &bytes);
        for (size_t size = 0; size < bytes.size(); ++size) {
          size_t consumed = 0;
          net::Frame frame;
          if (net::ExtractFrame(bytes.data(), size, &consumed, &frame) !=
              net::DecodeStatus::kNeedMore) {
            return false;
          }
        }
        return true;
      },
      DescribePageRequest));
}

// ---------------------------------------------------------------------------
// No input may crash the decoder

bool DecoderSurvives(const std::vector<uint8_t>& bytes) {
  size_t consumed = 0;
  net::Frame frame;
  const net::DecodeStatus status =
      net::ExtractFrame(bytes.data(), bytes.size(), &consumed, &frame);
  if (status == net::DecodeStatus::kOk) {
    if (consumed > bytes.size()) return false;
    // Throw every parser at the frame; any accept/reject outcome is fine,
    // crashing or reading out of bounds (ASan's department) is not.
    net::WireRequest request;
    net::WireResponse response;
    net::WireStatsRequest stats_request;
    net::WireStatsResponse stats_response;
    net::WireLoadRequest load_request;
    net::WireLoadResponse load_response;
    net::WireFeedback feedback;
    net::WireFeedbackAck ack;
    net::WirePageRequest page_request;
    net::WirePageResponse page_response;
    net::WireError error;
    net::ParseScoreRequest(frame, &request);
    net::ParseScoreResponse(frame, &response);
    net::ParseStatsRequest(frame, &stats_request);
    net::ParseStatsResponse(frame, &stats_response);
    net::ParseLoadRequest(frame, &load_request);
    net::ParseLoadResponse(frame, &load_response);
    net::ParseFeedback(frame, &feedback);
    net::ParseFeedbackAck(frame, &ack);
    net::ParsePageRequest(frame, &page_request);
    net::ParsePageResponse(frame, &page_response);
    net::ParseError(frame, &error);
  }
  return true;
}

TEST(CodecPropertyTest, ArbitraryBytesNeverCrashAnyParser) {
  EXPECT_TRUE(proptest::ForAll(
      20260812, 600,
      [](std::mt19937_64& rng) {
        std::vector<uint8_t> bytes(rng() % 512);
        for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng());
        return bytes;
      },
      proptest::ShrinkBytes, DecoderSurvives, proptest::DescribeBytes));
}

TEST(CodecPropertyTest, MutatedValidFramesNeverCrashAnyParser) {
  // Start from real frames of every type and corrupt them: mutations keep
  // enough structure to reach the payload parsers, where the interesting
  // bounds checks live.
  EXPECT_TRUE(proptest::ForAll(
      20260813, 600,
      [](std::mt19937_64& rng) {
        std::vector<uint8_t> bytes;
        switch (rng() % 6) {
          case 0:
            net::EncodeFeedback(RandomFeedback(rng), &bytes);
            break;
          case 1:
            net::EncodeScoreRequest(RandomScoreRequest(rng), &bytes);
            break;
          case 2: {
            net::WireStatsResponse response;
            response.format = net::StatsFormat::kBinary;
            response.stats = RandomRouterStats(rng);
            net::EncodeStatsResponse(response, &bytes);
            break;
          }
          case 3:
            net::EncodePageRequest(RandomPageRequest(rng), &bytes);
            break;
          case 4:
            net::EncodePageResponse(RandomPageResponse(rng), &bytes);
            break;
          default: {
            net::WireFeedbackAck ack;
            ack.accepted = true;
            ack.message = RandomSlot(rng);
            net::EncodeFeedbackAck(ack, &bytes);
            break;
          }
        }
        const size_t flips = 1 + rng() % 8;
        for (size_t i = 0; i < flips && !bytes.empty(); ++i) {
          bytes[rng() % bytes.size()] ^= static_cast<uint8_t>(1u << (rng() % 8));
        }
        if ((rng() % 4) == 0 && !bytes.empty()) {
          bytes.resize(rng() % bytes.size());  // Also tear the tail off.
        }
        return bytes;
      },
      proptest::ShrinkBytes, DecoderSurvives, proptest::DescribeBytes));
}

}  // namespace
}  // namespace rapid
