#include "serve/snapshot.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>

#include "rerank/neural_models.h"

namespace rapid::serve {

namespace {

constexpr uint32_t kMagic = 0x52534E50;  // "RSNP"
// Layout: magic, version, family tag (int32), Header, weight blob, canary
// trailer (see below). Readers accept exactly this version and reject
// every other one.
constexpr uint32_t kVersion = 3;

// Canary trailer: [payload][payload_len u32][kCanaryMagic u32] at EOF.
// Payload: user_id i32, n u32, item ids i32[n], initial scores f32[n],
// m u32, expected model scores f32[m], tolerance f32. Anchored at the file
// *end* so readers recover it without parsing the weight blob, and model
// loads (which stop at the end of the blob) never see it.
constexpr uint32_t kCanaryMagic = 0x43534E50;  // "RSNC"
// A probe is a handful of items; anything bigger is a corrupt length.
constexpr uint32_t kMaxCanaryPayload = 1u << 16;
constexpr int kCanaryProbeItems = 10;

struct Header {
  int32_t hidden_dim = 0;
  int32_t max_seq_len = 0;
  int32_t relevance_encoder = 0;
  int32_t diversity_aggregator = 0;
  int32_t head = 0;
  int32_t diversity_function = 0;
  int32_t train_hidden_dim = 0;
  int32_t train_epochs = 0;
  int32_t train_batch_size = 0;
  float train_learning_rate = 0.0f;
  float train_grad_clip = 0.0f;
  int32_t train_loss = 0;
  // Dataset fingerprint: the loader must serve the same feature space the
  // model was trained on, or every forward pass would shape-mismatch.
  int32_t num_topics = 0;
  int32_t user_feature_dim = 0;
  int32_t item_feature_dim = 0;
};

void FingerprintHeader(const data::Dataset& data, Header* h) {
  h->num_topics = data.num_topics;
  h->user_feature_dim = data.user_feature_dim();
  h->item_feature_dim = data.item_feature_dim();
}

Header MakeHeader(const core::RapidConfig& cfg, const data::Dataset& data) {
  Header h;
  h.hidden_dim = cfg.hidden_dim;
  h.max_seq_len = cfg.max_seq_len;
  h.relevance_encoder = static_cast<int32_t>(cfg.relevance_encoder);
  h.diversity_aggregator = static_cast<int32_t>(cfg.diversity_aggregator);
  h.head = static_cast<int32_t>(cfg.head);
  h.diversity_function = static_cast<int32_t>(cfg.diversity_function);
  h.train_hidden_dim = cfg.train.hidden_dim;
  h.train_epochs = cfg.train.epochs;
  h.train_batch_size = cfg.train.batch_size;
  h.train_learning_rate = cfg.train.learning_rate;
  h.train_grad_clip = cfg.train.grad_clip;
  h.train_loss = static_cast<int32_t>(cfg.train.loss);
  FingerprintHeader(data, &h);
  return h;
}

// Header for the baseline families, which share `NeuralRerankConfig` only:
// the RAPID-specific architecture fields stay at their defaults.
Header MakeHeader(const rerank::NeuralRerankConfig& cfg,
                  const data::Dataset& data) {
  core::RapidConfig rapid_cfg;
  rapid_cfg.hidden_dim = cfg.hidden_dim;
  rapid_cfg.train = cfg;
  return MakeHeader(rapid_cfg, data);
}

core::RapidConfig ConfigFromHeader(const Header& h) {
  core::RapidConfig cfg;
  cfg.hidden_dim = h.hidden_dim;
  cfg.max_seq_len = h.max_seq_len;
  cfg.relevance_encoder =
      static_cast<core::RelevanceEncoder>(h.relevance_encoder);
  cfg.diversity_aggregator =
      static_cast<core::DiversityAggregator>(h.diversity_aggregator);
  cfg.head = static_cast<core::OutputHead>(h.head);
  cfg.diversity_function =
      static_cast<core::DiversityFunctionKind>(h.diversity_function);
  cfg.train.hidden_dim = h.train_hidden_dim;
  cfg.train.epochs = h.train_epochs;
  cfg.train.batch_size = h.train_batch_size;
  cfg.train.learning_rate = h.train_learning_rate;
  cfg.train.grad_clip = h.train_grad_clip;
  cfg.train.loss = static_cast<rerank::RerankLoss>(h.train_loss);
  return cfg;
}

bool KnownFamily(int32_t tag) {
  return tag >= static_cast<int32_t>(SnapshotFamily::kRapid) &&
         tag <= static_cast<int32_t>(SnapshotFamily::kDesa);
}

bool ReadHeader(std::istream& in, Header* h, SnapshotFamily* family) {
  uint32_t magic = 0, version = 0;
  int32_t family_tag = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  in.read(reinterpret_cast<char*>(&version), sizeof(version));
  in.read(reinterpret_cast<char*>(&family_tag), sizeof(family_tag));
  if (!in || magic != kMagic || version != kVersion ||
      !KnownFamily(family_tag)) {
    return false;
  }
  in.read(reinterpret_cast<char*>(h), sizeof(*h));
  if (!in) return false;
  *family = static_cast<SnapshotFamily>(family_tag);
  return true;
}

// Deterministic probe list: the dataset's first user over its first few
// items, with synthetic descending initial scores. The specific choice is
// arbitrary — the probe only needs to exercise the forward pass — but it
// must be reproducible so the load-time check is exact.
CanaryProbe MakeCanaryProbe(const rerank::NeuralReranker& model,
                            const data::Dataset& data) {
  CanaryProbe probe;
  if (data.users.empty() || data.items.empty()) return probe;
  probe.list.user_id = data.users.front().id;
  const int n = std::min<int>(kCanaryProbeItems,
                              static_cast<int>(data.items.size()));
  for (int i = 0; i < n; ++i) {
    probe.list.items.push_back(data.items[static_cast<size_t>(i)].id);
    probe.list.scores.push_back(1.0f - 0.05f * static_cast<float>(i));
  }
  probe.expected_scores = model.ScoreList(data, probe.list);
  return probe;
}

template <typename T>
void PutTrailer(std::string* buf, T v) {
  buf->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

bool WriteCanaryTrailer(std::ostream& out, const CanaryProbe& probe) {
  std::string payload;
  PutTrailer<int32_t>(&payload, probe.list.user_id);
  PutTrailer<uint32_t>(&payload,
                       static_cast<uint32_t>(probe.list.items.size()));
  for (int id : probe.list.items) PutTrailer<int32_t>(&payload, id);
  for (float s : probe.list.scores) PutTrailer<float>(&payload, s);
  PutTrailer<uint32_t>(&payload,
                       static_cast<uint32_t>(probe.expected_scores.size()));
  for (float s : probe.expected_scores) PutTrailer<float>(&payload, s);
  PutTrailer<float>(&payload, probe.tolerance);
  const uint32_t len = static_cast<uint32_t>(payload.size());
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  out.write(reinterpret_cast<const char*>(&len), sizeof(len));
  out.write(reinterpret_cast<const char*>(&kCanaryMagic),
            sizeof(kCanaryMagic));
  return static_cast<bool>(out);
}

bool WriteSnapshot(const std::string& path, SnapshotFamily family,
                   const Header& header, const rerank::NeuralReranker& model,
                   const data::Dataset& data) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  const uint32_t magic = kMagic;
  const uint32_t version = kVersion;
  const int32_t family_tag = static_cast<int32_t>(family);
  out.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
  out.write(reinterpret_cast<const char*>(&version), sizeof(version));
  out.write(reinterpret_cast<const char*>(&family_tag), sizeof(family_tag));
  out.write(reinterpret_cast<const char*>(&header), sizeof(header));
  if (!out) return false;
  if (!model.SaveModel(out)) return false;
  // Auto-record the canary so every LoadSlot of this file is validated
  // without the caller wiring SetCanary. An empty dataset (no probe to
  // record) writes an empty-but-well-formed trailer; ReadCanary reports it
  // as absent.
  return WriteCanaryTrailer(out, MakeCanaryProbe(model, data));
}

bool FingerprintMatches(const Header& h, const data::Dataset& data) {
  return h.num_topics == data.num_topics &&
         h.user_feature_dim == data.user_feature_dim() &&
         h.item_feature_dim == data.item_feature_dim();
}

std::unique_ptr<rerank::NeuralReranker> MakeModel(SnapshotFamily family,
                                                  const Header& h) {
  const core::RapidConfig cfg = ConfigFromHeader(h);
  switch (family) {
    case SnapshotFamily::kRapid:
      return std::make_unique<core::RapidReranker>(cfg);
    case SnapshotFamily::kDlcm:
      return std::make_unique<rerank::DlcmReranker>(cfg.train);
    case SnapshotFamily::kPrm:
      return std::make_unique<rerank::PrmReranker>(cfg.train);
    case SnapshotFamily::kSetRank:
      return std::make_unique<rerank::SetRankReranker>(cfg.train);
    case SnapshotFamily::kSrga:
      return std::make_unique<rerank::SrgaReranker>(cfg.train);
    case SnapshotFamily::kDesa:
      return std::make_unique<rerank::DesaReranker>(cfg.train);
  }
  return nullptr;
}

}  // namespace

const char* SnapshotFamilyName(SnapshotFamily family) {
  switch (family) {
    case SnapshotFamily::kRapid:
      return "RAPID";
    case SnapshotFamily::kDlcm:
      return "DLCM";
    case SnapshotFamily::kPrm:
      return "PRM";
    case SnapshotFamily::kSetRank:
      return "SetRank";
    case SnapshotFamily::kSrga:
      return "SRGA";
    case SnapshotFamily::kDesa:
      return "DESA";
  }
  return "unknown";
}

bool Snapshot::Save(const std::string& path, const core::RapidReranker& model,
                    const data::Dataset& data) {
  return WriteSnapshot(path, SnapshotFamily::kRapid,
                       MakeHeader(model.config(), data), model, data);
}

bool Snapshot::Save(const std::string& path,
                    const rerank::NeuralReranker& model, SnapshotFamily family,
                    const data::Dataset& data) {
  // A RapidReranker shipped through the generic path keeps its full
  // architecture header, not just the shared training config.
  if (family == SnapshotFamily::kRapid) {
    const auto* rapid = dynamic_cast<const core::RapidReranker*>(&model);
    if (rapid == nullptr) return false;
    return Save(path, *rapid, data);
  }
  return WriteSnapshot(path, family, MakeHeader(model.train_config(), data),
                       model, data);
}

std::unique_ptr<core::RapidReranker> Snapshot::Load(const std::string& path,
                                                    const data::Dataset& data) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return nullptr;
  Header h;
  SnapshotFamily family;
  if (!ReadHeader(in, &h, &family)) return nullptr;
  if (family != SnapshotFamily::kRapid || !FingerprintMatches(h, data)) {
    return nullptr;
  }
  auto model = std::make_unique<core::RapidReranker>(ConfigFromHeader(h));
  if (!model->LoadModel(data, in)) return nullptr;
  return model;
}

std::unique_ptr<rerank::NeuralReranker> Snapshot::LoadAny(
    const std::string& path, const data::Dataset& data) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return nullptr;
  Header h;
  SnapshotFamily family;
  if (!ReadHeader(in, &h, &family)) return nullptr;
  if (!FingerprintMatches(h, data)) return nullptr;
  std::unique_ptr<rerank::NeuralReranker> model = MakeModel(family, h);
  if (model == nullptr || !model->LoadModel(data, in)) return nullptr;
  return model;
}

bool Snapshot::ReadConfig(const std::string& path, core::RapidConfig* config) {
  SnapshotInfo info;
  if (!ReadInfo(path, &info)) return false;
  *config = info.config;
  return true;
}

bool Snapshot::ReadInfo(const std::string& path, SnapshotInfo* info) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  Header h;
  if (!ReadHeader(in, &h, &info->family)) return false;
  info->config = ConfigFromHeader(h);
  return true;
}

namespace {

// Bounds-checked reader over the trailer payload.
class TrailerReader {
 public:
  TrailerReader(const char* data, size_t size) : data_(data), size_(size) {}

  template <typename T>
  bool Read(T* out) {
    if (size_ - pos_ < sizeof(T)) return false;
    std::memcpy(out, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  bool AtEnd() const { return pos_ == size_; }

 private:
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace

bool Snapshot::ReadCanary(const std::string& path, CanaryProbe* probe) {
  // Gate on the header first: the trailer is located from the file end, so
  // without this check the tail of an arbitrary file could masquerade as a
  // trailer.
  SnapshotInfo info;
  if (!ReadInfo(path, &info)) return false;

  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return false;
  const std::streamoff file_size = in.tellg();
  constexpr std::streamoff kFooterBytes = 8;  // payload_len + magic.
  if (file_size < kFooterBytes) return false;
  uint32_t payload_len = 0, magic = 0;
  in.seekg(file_size - kFooterBytes);
  in.read(reinterpret_cast<char*>(&payload_len), sizeof(payload_len));
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  if (!in || magic != kCanaryMagic || payload_len > kMaxCanaryPayload ||
      static_cast<std::streamoff>(payload_len) > file_size - kFooterBytes) {
    return false;
  }
  std::string payload(payload_len, '\0');
  in.seekg(file_size - kFooterBytes - static_cast<std::streamoff>(payload_len));
  in.read(payload.data(), static_cast<std::streamsize>(payload_len));
  if (!in) return false;

  TrailerReader reader(payload.data(), payload.size());
  CanaryProbe out;
  int32_t user_id = 0;
  uint32_t n = 0, m = 0;
  if (!reader.Read(&user_id) || !reader.Read(&n)) return false;
  if (n == 0 || n > static_cast<uint32_t>(kCanaryProbeItems)) return false;
  out.list.user_id = user_id;
  out.list.items.resize(n);
  out.list.scores.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    int32_t id = 0;
    if (!reader.Read(&id)) return false;
    out.list.items[i] = id;
  }
  for (uint32_t i = 0; i < n; ++i) {
    if (!reader.Read(&out.list.scores[i])) return false;
  }
  if (!reader.Read(&m) || m != n) return false;
  out.expected_scores.resize(m);
  for (uint32_t i = 0; i < m; ++i) {
    if (!reader.Read(&out.expected_scores[i])) return false;
  }
  if (!reader.Read(&out.tolerance) || !reader.AtEnd()) return false;
  if (!(out.tolerance >= 0.0f)) return false;  // Rejects NaN tolerance.
  *probe = std::move(out);
  return true;
}

}  // namespace rapid::serve
