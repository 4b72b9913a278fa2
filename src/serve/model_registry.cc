#include "serve/model_registry.h"

#include <utility>

namespace rapid::serve {

uint64_t ModelRegistry::Publish(const std::string& slot,
                                std::shared_ptr<const rerank::Reranker> model) {
  auto entry = std::make_shared<ServedModel>();
  entry->model_name = model->name();
  entry->model = std::move(model);
  std::lock_guard<std::mutex> lock(mu_);
  entry->version = ++last_version_[slot];
  auto it = slots_.find(slot);
  if (it == slots_.end()) {
    entry->metrics = std::make_shared<ServingMetrics>();
    slots_.emplace(slot, entry);
  } else {
    entry->metrics = it->second->metrics;
    it->second = entry;  // The swap: new dequeues see the new model.
  }
  return entry->version;
}

std::shared_ptr<const ServedModel> ModelRegistry::Acquire(
    const std::string& slot) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = slots_.find(slot);
  return it == slots_.end() ? nullptr : it->second;
}

bool ModelRegistry::Remove(const std::string& slot) {
  std::lock_guard<std::mutex> lock(mu_);
  return slots_.erase(slot) > 0;
}

std::vector<std::string> ModelRegistry::Names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(slots_.size());
  for (const auto& [name, entry] : slots_) names.push_back(name);
  return names;
}

uint64_t ModelRegistry::VersionOf(const std::string& slot) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = slots_.find(slot);
  return it == slots_.end() ? 0 : it->second->version;
}

size_t ModelRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slots_.size();
}

}  // namespace rapid::serve
