#ifndef RAPID_SERVE_MODEL_REGISTRY_H_
#define RAPID_SERVE_MODEL_REGISTRY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "rerank/reranker.h"
#include "serve/metrics.h"

namespace rapid::serve {

/// One published model version of a slot: the immutable unit the registry
/// hands to workers. A worker resolves its request's slot to a
/// `ServedModel` exactly once and runs the whole re-rank against it, so
/// every response is attributable to one version — a concurrent republish
/// can never produce a torn read. The old version stays alive (shared_ptr)
/// until the last in-flight batch holding it finishes, then retires.
struct ServedModel {
  /// The slot's metrics, shared across versions of the slot.
  std::shared_ptr<ServingMetrics> metrics;
  /// The fitted model; workers call only its const inference surface.
  std::shared_ptr<const rerank::Reranker> model;
  /// `model->name()`, captured at publish (name() is virtual and cheap,
  /// but capturing it makes response attribution allocation-free).
  std::string model_name;
  /// Monotonically increasing per slot name, starting at 1, and never
  /// reused — not even after the slot is removed and published again.
  /// Monotonicity is load-bearing beyond attribution: `serve::ResultCache`
  /// keys entries on this version, so "versions are never reused" is
  /// exactly what makes every stale cache entry unreachable the instant a
  /// publish lands — a recycled version number would resurrect old cached
  /// responses.
  uint64_t version = 0;
};

/// A named slot table mapping routing keys ("taobao-main", "ab-arm-b",
/// ...) to the currently published model version, with RCU-style hot
/// swap: `Publish` atomically replaces the slot's `ServedModel` under a
/// short critical section; readers that already acquired the old version
/// keep serving with it until they drop their reference. No reader ever
/// blocks on a publish, and no publish waits for readers.
///
/// All methods are thread-safe. The registry never touches worker threads
/// itself — building the model (the expensive part of a swap) happens on
/// the publisher's thread before `Publish` is called.
class ModelRegistry {
 public:
  /// Publishes `model` as the new current version of `slot`, creating the
  /// slot on first use. Returns the new version number: 1 for a name never
  /// published before, otherwise one past the highest version the name
  /// ever had (a removed slot published again continues its count). The
  /// slot's metrics survive the swap, but not a `Remove`.
  uint64_t Publish(const std::string& slot,
                   std::shared_ptr<const rerank::Reranker> model);

  /// The current version of `slot`, or null if the slot does not exist.
  /// The returned pointer stays valid (and the model alive) for as long as
  /// the caller holds it, regardless of concurrent publishes or removes.
  std::shared_ptr<const ServedModel> Acquire(const std::string& slot) const;

  /// Drops `slot` from the table. In-flight requests holding the model
  /// finish normally; new lookups fail. Returns false if absent.
  bool Remove(const std::string& slot);

  /// Registered slot names, sorted.
  std::vector<std::string> Names() const;

  /// Current version of `slot`, 0 if absent.
  uint64_t VersionOf(const std::string& slot) const;

  size_t size() const;

 private:
  mutable std::mutex mu_;
  /// Slot -> current version. The metrics object and version counter live
  /// inside the published `ServedModel`s; on republish the new version
  /// inherits the old one's metrics and increments its version.
  std::map<std::string, std::shared_ptr<const ServedModel>> slots_;
  /// Slot name -> highest version ever published under it. Kept across
  /// `Remove`, so a re-created slot never reuses a version.
  std::map<std::string, uint64_t> last_version_;
};

}  // namespace rapid::serve

#endif  // RAPID_SERVE_MODEL_REGISTRY_H_
