#ifndef RAPID_SERVE_SNAPSHOT_H_
#define RAPID_SERVE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/rapid.h"
#include "datagen/types.h"

namespace rapid::serve {

/// A recorded probe for validating snapshots before they are published
/// (`ServingRouter::LoadSlot`): `expected_scores` is the fitted model's
/// `ScoreList` output on `list`, captured at save time. A snapshot whose
/// scores drift past `tolerance` on any item — including NaN — is
/// corrupt-but-parseable and is rejected before the swap.
///
/// `Snapshot::Save` auto-records a probe into the `.rsnp` trailer, so
/// every `LoadSlot` validates every snapshot without the caller wiring
/// `ServingRouter::SetCanary` by hand; `SetCanary` remains as an override
/// for custom probe lists.
struct CanaryProbe {
  data::ImpressionList list;
  std::vector<float> expected_scores;
  /// Max absolute per-score drift. Snapshot round trips are bit-exact, so
  /// any honest load reproduces the scores exactly; the tolerance only
  /// absorbs future quantized/compressed formats.
  float tolerance = 1e-4f;
};

/// Which re-ranker family a snapshot rehydrates into. Stored as a tag in
/// the snapshot header so a serving process can reconstruct the right
/// class without being told.
enum class SnapshotFamily : int32_t {
  kRapid = 0,
  kDlcm = 1,
  kPrm = 2,
  kSetRank = 3,
  kSrga = 4,
  kDesa = 5,
};

/// Human-readable family name ("RAPID", "PRM", ...).
const char* SnapshotFamilyName(SnapshotFamily family);

/// Everything the header records about a snapshot, for inspection tooling
/// and the model registry.
struct SnapshotInfo {
  SnapshotFamily family = SnapshotFamily::kRapid;
  /// Full configuration. For `kRapid` every field is meaningful; for the
  /// baseline families only `train` (the shared `NeuralRerankConfig`)
  /// applies — the RAPID-specific architecture enums are left at defaults.
  core::RapidConfig config;
};

/// Self-describing on-disk format for a fitted neural re-ranker: a family
/// tag and configuration header plus a dataset fingerprint (topic count
/// and feature dims), followed by the weight blob of `nn::SaveParams`.
/// Unlike `NeuralReranker::SaveModel`, a snapshot can be rehydrated
/// without the loader knowing the training-time configuration — the header
/// carries it — which is what an online serving process needs: train
/// offline, ship one file, `Load` and serve.
///
/// The format is versioned and readers accept exactly the version `Save`
/// writes (v3): any other version, unknown family tags, mismatched
/// dataset dimensions, and truncated weight blobs are rejected by
/// returning null (or false).
///
/// A self-describing canary trailer follows the weight blob: a
/// deterministic probe list plus the model's scores on it at save time,
/// closed by a fixed footer (`payload length`, trailer magic) at EOF.
/// Readers locate it from the file end, so no weight-blob parsing is
/// needed to recover the probe, and model loads — which stop at the end
/// of the weight blob — are untouched by the extra bytes.
struct Snapshot {
  /// Writes `model`'s configuration and weights to `path`. `data` supplies
  /// the dimension fingerprint validated at load time. The model must have
  /// been fitted (or loaded). Returns false on I/O failure.
  static bool Save(const std::string& path, const core::RapidReranker& model,
                   const data::Dataset& data);

  /// Family-tagged save for any neural re-ranker, so baselines (PRM, DLCM,
  /// ...) ship through the same registry. `family` must name `model`'s
  /// actual class — `LoadAny` reconstructs from the tag, and a mismatched
  /// tag surfaces as a weight-shape failure at load. Passing a
  /// `RapidReranker` with `kRapid` is equivalent to the overload above
  /// (the full RAPID architecture header is written). Baseline families
  /// persist the shared `NeuralRerankConfig` only; constructor arguments
  /// outside it (e.g. SRGA's local window) reload at their defaults.
  static bool Save(const std::string& path,
                   const rerank::NeuralReranker& model, SnapshotFamily family,
                   const data::Dataset& data);

  /// Reads the header, reconstructs a `RapidReranker` with the saved
  /// configuration, and restores its weights. Returns null if the file is
  /// missing/corrupt, the version is unknown, the family is not `kRapid`,
  /// or `data`'s dimensions do not match the fingerprint recorded at save
  /// time.
  static std::unique_ptr<core::RapidReranker> Load(const std::string& path,
                                                   const data::Dataset& data);

  /// Like `Load`, but dispatches on the family tag and reconstructs the
  /// corresponding re-ranker class — the loader the multi-model registry
  /// uses. Returns null under the same conditions as `Load` (any known
  /// family is accepted).
  static std::unique_ptr<rerank::NeuralReranker> LoadAny(
      const std::string& path, const data::Dataset& data);

  /// Reads only the configuration header (inspection/tooling). Returns
  /// false if the file is not a valid snapshot.
  static bool ReadConfig(const std::string& path, core::RapidConfig* config);

  /// Reads the header including the family tag.
  static bool ReadInfo(const std::string& path, SnapshotInfo* info);

  /// Recovers the canary probe auto-recorded by `Save`. Returns false —
  /// without touching `probe` — for a file that is not a snapshot, a
  /// missing/corrupt trailer, or an internally inconsistent payload; a
  /// snapshot with a bad trailer stays loadable.
  static bool ReadCanary(const std::string& path, CanaryProbe* probe);
};

}  // namespace rapid::serve

#endif  // RAPID_SERVE_SNAPSHOT_H_
