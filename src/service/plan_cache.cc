#include "service/plan_cache.h"

#include <utility>

namespace incdb {

bool PlanCacheEntry::ValidFor(const DatabaseSnapshot& snap) const {
  if (depends_on_all) return snapshot_version >= snap.any_changed();
  for (const std::string& name : scans) {
    if (snapshot_version < snap.LastChanged(name)) return false;
  }
  return true;
}

std::shared_ptr<const PlanCacheEntry> PlanCache::Lookup(
    uint64_t key, const std::string& identity, const DatabaseSnapshot& snap) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = slots_.find(key);
  if (it == slots_.end() || it->second.entry->identity != identity) {
    ++misses_;
    return nullptr;
  }
  // An entry computed at a newer version than the reader's snapshot may
  // reflect publishes the reader must not see. It misses for this reader
  // and stays for newer ones.
  if (it->second.entry->snapshot_version > snap.version()) {
    ++misses_;
    return nullptr;
  }
  if (!it->second.entry->ValidFor(snap)) {
    lru_.erase(it->second.lru_it);
    slots_.erase(it);
    ++invalidated_;
    ++misses_;
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  ++hits_;
  return it->second.entry;
}

void PlanCache::Insert(uint64_t key,
                       std::shared_ptr<const PlanCacheEntry> entry) {
  if (capacity_ == 0 || entry == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = slots_.find(key);
  if (it != slots_.end()) {
    it->second.entry = std::move(entry);
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return;
  }
  lru_.push_front(key);
  slots_.emplace(key, Slot{std::move(entry), lru_.begin()});
  while (slots_.size() > capacity_) {
    slots_.erase(lru_.back());
    lru_.pop_back();
  }
}

size_t PlanCache::Sweep(const DatabaseSnapshot& snap) {
  std::lock_guard<std::mutex> lock(mu_);
  size_t dropped = 0;
  for (auto it = slots_.begin(); it != slots_.end();) {
    if (it->second.entry->ValidFor(snap)) {
      ++it;
      continue;
    }
    lru_.erase(it->second.lru_it);
    it = slots_.erase(it);
    ++dropped;
  }
  invalidated_ += dropped;
  return dropped;
}

void PlanCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  slots_.clear();
  lru_.clear();
}

size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slots_.size();
}

uint64_t PlanCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

uint64_t PlanCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

uint64_t PlanCache::invalidated() const {
  std::lock_guard<std::mutex> lock(mu_);
  return invalidated_;
}

}  // namespace incdb
