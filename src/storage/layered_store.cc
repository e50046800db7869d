// LruCacheStore and FaultInjectionStore: providers that wrap other providers
// (paper §3.6 "constructs memory caching by chaining various storage
// providers together").

#include "storage/storage.h"
#include "util/envelope.h"
#include "util/macros.h"

namespace dl::storage {

// ---------------------------------------------------------------------------
// LruCacheStore
// ---------------------------------------------------------------------------

LruCacheStore::LruCacheStore(StoragePtr base, uint64_t capacity_bytes)
    : base_(std::move(base)), capacity_bytes_(capacity_bytes) {
  // Labeled by layer, as InstrumentedStore is: caches over the same base
  // share one set of series, so short-lived caches never grow the registry.
  obs::Labels labels = {{"cache", name()}};
  auto& registry = obs::MetricsRegistry::Global();
  hits_ = registry.GetCounter("storage.lru.hits", labels);
  misses_ = registry.GetCounter("storage.lru.misses", labels);
  range_bypasses_ = registry.GetCounter("storage.lru.range_bypasses", labels);
  bytes_gauge_ = registry.GetGauge("storage.lru.cached_bytes", labels);
}

LruCacheStore::~LruCacheStore() {
  // The gauge sums every cache under this label: take back what this one
  // still holds.
  MutexLock lock(mu_);
  bytes_gauge_->Sub(static_cast<double>(current_bytes_));
}

void LruCacheStore::Touch(const std::string& key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return;
  lru_.erase(it->second.lru_it);
  lru_.push_front(key);
  it->second.lru_it = lru_.begin();
}

void LruCacheStore::Insert(const std::string& key, SharedBuffer value) {
  if (value == nullptr || value->size() > capacity_bytes_) {
    return;  // never cache oversize blobs
  }
  Erase(key);
  lru_.push_front(key);
  current_bytes_ += value->size();
  bytes_gauge_->Add(static_cast<double>(value->size()));
  entries_[key] = Entry{std::move(value), lru_.begin()};
  EvictIfNeeded();
}

void LruCacheStore::Erase(std::string_view key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return;
  uint64_t size = it->second.value->size();
  current_bytes_ -= size;
  bytes_gauge_->Sub(static_cast<double>(size));
  lru_.erase(it->second.lru_it);  // may free `key`'s bytes; `it` stays valid
  entries_.erase(it);
}

void LruCacheStore::EvictIfNeeded() {
  while (current_bytes_ > capacity_bytes_ && !lru_.empty()) {
    Erase(lru_.back());
  }
}

Result<Slice> LruCacheStore::Get(std::string_view key) {
  {
    MutexLock lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      hits_->Increment();
      Touch(it->first);
      // Zero-copy hit: the slice shares the entry's buffer, so eviction
      // while the caller still holds it only drops the cache's reference.
      return Slice(it->second.value);
    }
  }
  misses_->Increment();
  DL_ASSIGN_OR_RETURN(Slice got, base_->Get(key));
  // dllint-ok(hot-path-copy): only whole-buffer reads are safe to pin —
  // a window of a larger buffer (or a borrowed view) must be copied before
  // caching, else the cache pins the whole backing object, or dangles.
  // Whole-buffer reads (the common case) take the zero-copy arm.
  SharedBuffer to_cache =
      (got.owner() != nullptr && got.size() == got.owner()->size())
          ? got.owner()
          : Buffer::CopyOf(got);
  {
    MutexLock lock(mu_);
    Insert(std::string(key), std::move(to_cache));
  }
  return got;
}

Result<Slice> LruCacheStore::GetRange(std::string_view key, uint64_t offset,
                                      uint64_t length) {
  {
    MutexLock lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      hits_->Increment();
      Touch(it->first);
      if (offset > it->second.value->size()) {
        return Status::OutOfRange("lru: range start past object end");
      }
      // Resident object: serve the range as a subslice of the cached
      // buffer — zero copies, zero backend I/O (the cached-range regression
      // test in tests/storage_test.cc pins this down).
      return Slice(it->second.value).subslice(offset, length);
    }
  }
  // Range requests bypass cache fill: caching partial objects under the full
  // key would corrupt later full reads. Not a miss — the cache never
  // intended to serve this; tracked separately so bench miss rates stay
  // honest.
  range_bypasses_->Increment();
  return base_->GetRange(key, offset, length);
}

Status LruCacheStore::Put(std::string_view key, ByteView value) {
  DL_RETURN_IF_ERROR(base_->Put(key, value));
  // dllint-ok(hot-path-copy): write path — the caller's ByteView is not
  // ours to keep, and
  // the cache entry must own its bytes to hand out slices later.
  SharedBuffer copy = Buffer::CopyOf(value);
  MutexLock lock(mu_);
  Insert(std::string(key), std::move(copy));
  return Status::OK();
}

Status LruCacheStore::PutDurable(std::string_view key, ByteView value) {
  DL_RETURN_IF_ERROR(base_->PutDurable(key, value));
  // dllint-ok(hot-path-copy): write path, same ownership argument as Put
  // above.
  SharedBuffer copy = Buffer::CopyOf(value);
  MutexLock lock(mu_);
  Insert(std::string(key), std::move(copy));
  return Status::OK();
}

void LruCacheStore::Invalidate(std::string_view key) {
  {
    MutexLock lock(mu_);
    Erase(key);
  }
  base_->Invalidate(key);
}

Status LruCacheStore::Delete(std::string_view key) {
  {
    MutexLock lock(mu_);
    Erase(key);
  }
  return base_->Delete(key);
}

Result<bool> LruCacheStore::Exists(std::string_view key) {
  {
    MutexLock lock(mu_);
    if (entries_.find(key) != entries_.end()) return true;
  }
  return base_->Exists(key);
}

Result<uint64_t> LruCacheStore::SizeOf(std::string_view key) {
  {
    MutexLock lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      return static_cast<uint64_t>(it->second.value->size());
    }
  }
  return base_->SizeOf(key);
}

Result<std::vector<std::string>> LruCacheStore::ListPrefix(
    std::string_view prefix) {
  return base_->ListPrefix(prefix);
}

uint64_t LruCacheStore::cached_bytes() const {
  MutexLock lock(mu_);
  return current_bytes_;
}

// ---------------------------------------------------------------------------
// FaultInjectionStore
// ---------------------------------------------------------------------------

FaultInjectionStore::FaultInjectionStore(StoragePtr base, uint64_t fail_every,
                                         uint32_t op_mask)
    : base_(std::move(base)),
      fail_every_(fail_every == 0 ? 1 : fail_every),
      op_mask_(op_mask) {}

Status FaultInjectionStore::MaybeFail(FaultOp op) {
  if ((op_mask_ & op) == 0) return Status::OK();
  uint64_t n = ++op_count_;
  if (n % fail_every_ == 0) {
    return Status::IOError("injected fault on operation " +
                           std::to_string(n));
  }
  return Status::OK();
}

Result<Slice> FaultInjectionStore::Get(std::string_view key) {
  DL_RETURN_IF_ERROR(MaybeFail(kFaultGet));
  return base_->Get(key);
}

Result<Slice> FaultInjectionStore::GetRange(std::string_view key,
                                            uint64_t offset,
                                            uint64_t length) {
  DL_RETURN_IF_ERROR(MaybeFail(kFaultGetRange));
  return base_->GetRange(key, offset, length);
}

Status FaultInjectionStore::Put(std::string_view key, ByteView value) {
  DL_RETURN_IF_ERROR(MaybeFail(kFaultPut));
  return base_->Put(key, value);
}

Status FaultInjectionStore::PutDurable(std::string_view key, ByteView value) {
  DL_RETURN_IF_ERROR(MaybeFail(kFaultPut));
  return base_->PutDurable(key, value);
}

Status FaultInjectionStore::Delete(std::string_view key) {
  DL_RETURN_IF_ERROR(MaybeFail(kFaultDelete));
  return base_->Delete(key);
}

Result<bool> FaultInjectionStore::Exists(std::string_view key) {
  DL_RETURN_IF_ERROR(MaybeFail(kFaultExists));
  return base_->Exists(key);
}

Result<uint64_t> FaultInjectionStore::SizeOf(std::string_view key) {
  DL_RETURN_IF_ERROR(MaybeFail(kFaultSizeOf));
  return base_->SizeOf(key);
}

Result<std::vector<std::string>> FaultInjectionStore::ListPrefix(
    std::string_view prefix) {
  DL_RETURN_IF_ERROR(MaybeFail(kFaultList));
  return base_->ListPrefix(prefix);
}

// ---------------------------------------------------------------------------
// GetVerified
// ---------------------------------------------------------------------------

Result<Slice> GetVerified(StorageProvider& store, std::string_view key) {
  DL_ASSIGN_OR_RETURN(Slice framed, store.Get(key));
  auto payload = EnvelopeUnwrapOrRaw(framed);
  if (payload.ok() || !payload.status().IsCorruption()) return payload;
  // The corrupt bytes may live only in a cache layer (e.g. a bit flip in
  // the LRU's copy): drop every cached copy and try the backing store once.
  // If the second read still fails verification, the object itself is bad.
  store.Invalidate(key);
  DL_ASSIGN_OR_RETURN(framed, store.Get(key));
  return EnvelopeUnwrapOrRaw(framed);
}

}  // namespace dl::storage
