#include "version/version_control.h"

#include <algorithm>

#include "util/clock.h"
#include "util/envelope.h"
#include "util/macros.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "version/layout.h"

namespace dl::version {

// ---------------------------------------------------------------------------
// VersionedStore
// ---------------------------------------------------------------------------

VersionedStore::VersionedStore(std::shared_ptr<VersionControl> vc,
                               std::string commit_id, bool writable)
    : vc_(std::move(vc)), commit_id_(std::move(commit_id)),
      writable_(writable) {}

std::string VersionedStore::PhysicalKey(const std::string& commit,
                                        std::string_view key) const {
  return PathJoin(VersionDir(commit), key);
}

std::string VersionedStore::Resolve(std::string_view key) const {
  MutexLock lock(vc_->mu_);
  std::string k(key);
  // Walk the commit chain from this view toward the root; the first commit
  // whose key set contains the key wins (paper §4.2 traversal).
  std::string cur = commit_id_;
  while (!cur.empty()) {
    auto ks = vc_->key_sets_.find(cur);
    if (ks != vc_->key_sets_.end() && ks->second.count(k) > 0) return cur;
    auto ci = vc_->commits_.find(cur);
    if (ci == vc_->commits_.end()) break;
    cur = ci->second.parent;
  }
  return "";
}

Result<Slice> VersionedStore::Get(std::string_view key) {
  std::string commit = Resolve(key);
  if (commit.empty()) {
    return Status::NotFound("versioned: no object '" + std::string(key) +
                            "' in chain of " + commit_id_);
  }
  return vc_->base_->Get(PhysicalKey(commit, key));
}

Result<Slice> VersionedStore::GetRange(std::string_view key,
                                            uint64_t offset,
                                            uint64_t length) {
  std::string commit = Resolve(key);
  if (commit.empty()) {
    return Status::NotFound("versioned: no object '" + std::string(key) +
                            "'");
  }
  return vc_->base_->GetRange(PhysicalKey(commit, key), offset, length);
}

Status VersionedStore::Put(std::string_view key, ByteView value) {
  return Write(key, value, /*durable=*/false);
}

Status VersionedStore::PutDurable(std::string_view key, ByteView value) {
  return Write(key, value, /*durable=*/true);
}

Status VersionedStore::Write(std::string_view key, ByteView value,
                             bool durable) {
  if (!writable_) {
    return Status::FailedPrecondition(
        "versioned store at sealed commit is read-only");
  }
  std::string physical = PhysicalKey(commit_id_, key);
  // dllint-ok(unjournaled-manifest-write): data-path write into the
  // working commit's own directory; the journaled protocol applies to
  // manifests, not data objects (which stay invisible until the commit
  // record lands).
  DL_RETURN_IF_ERROR(durable ? vc_->base_->PutDurable(physical, value)
                             : vc_->base_->Put(physical, value));
  MutexLock lock(vc_->mu_);
  vc_->key_sets_[commit_id_].insert(std::string(key));
  return Status::OK();
}

bool VersionedStore::atomic_durable_puts() const {
  return vc_->base_->atomic_durable_puts();
}

void VersionedStore::Invalidate(std::string_view key) {
  std::string commit = Resolve(key);
  if (commit.empty()) return;
  vc_->base_->Invalidate(PhysicalKey(commit, key));
}

Status VersionedStore::Delete(std::string_view key) {
  if (!writable_) {
    return Status::FailedPrecondition(
        "versioned store at sealed commit is read-only");
  }
  // Only keys written in the working commit can be deleted; history is
  // immutable by design.
  {
    MutexLock lock(vc_->mu_);
    auto& ks = vc_->key_sets_[commit_id_];
    auto it = ks.find(std::string(key));
    if (it == ks.end()) return Status::OK();
    ks.erase(it);
  }
  // Storage I/O happens outside vc_->mu_: the key is already unlinked from
  // the commit's key set, so concurrent readers miss it regardless of when
  // the backend delete lands.
  return vc_->base_->Delete(PhysicalKey(commit_id_, key));
}

Result<bool> VersionedStore::Exists(std::string_view key) {
  return !Resolve(key).empty();
}

Result<uint64_t> VersionedStore::SizeOf(std::string_view key) {
  std::string commit = Resolve(key);
  if (commit.empty()) {
    return Status::NotFound("versioned: no object '" + std::string(key) +
                            "'");
  }
  return vc_->base_->SizeOf(PhysicalKey(commit, key));
}

Result<std::vector<std::string>> VersionedStore::ListPrefix(
    std::string_view prefix) {
  std::set<std::string> keys;
  MutexLock lock(vc_->mu_);
  for (const std::string& id : vc_->Chain(commit_id_)) {
    auto ks = vc_->key_sets_.find(id);
    if (ks == vc_->key_sets_.end()) continue;
    for (const auto& k : ks->second) {
      if (StartsWith(k, prefix)) keys.insert(k);
    }
  }
  return std::vector<std::string>(keys.begin(), keys.end());
}

// ---------------------------------------------------------------------------
// VersionControl
// ---------------------------------------------------------------------------

Result<std::shared_ptr<VersionControl>> VersionControl::OpenOrInit(
    storage::StoragePtr base) {
  auto vc = std::shared_ptr<VersionControl>(new VersionControl(base));
  DL_ASSIGN_OR_RETURN(bool exists, base->Exists(kInfoKey));
  if (!exists) {
    // The info snapshot may have been lost while commit records survive
    // (e.g. a crash plus manual cleanup): any version directory means this
    // is an existing tree that must go through recovery, not a fresh init
    // that would shadow the old data.
    DL_ASSIGN_OR_RETURN(auto version_keys,
                        base->ListPrefix(kVersionsPrefix));
    exists = !version_keys.empty();
  }
  if (exists) {
    DL_RETURN_IF_ERROR(vc->Open());
    return vc;
  }
  // Fresh tree: main branch with an empty working commit.
  {
    MutexLock lock(vc->mu_);
    vc->OpenWorkingHeadLocked("", kDefaultBranch);
  }
  DL_RETURN_IF_ERROR(vc->Flush());
  return vc;
}

void VersionControl::OpenWorkingHeadLocked(const std::string& parent,
                                           const std::string& branch) {
  CommitInfo head;
  head.id = NewCommitId();
  head.parent = parent;
  head.branch = branch;
  head.timestamp_us = NowMicros();
  commits_[head.id] = head;
  branches_[branch] = head.id;
  key_sets_[head.id] = {};
  current_branch_ = branch;
  current_commit_ = head.id;
}

std::string VersionControl::NewCommitId() {
  uint64_t entropy =
      Mix64(static_cast<uint64_t>(NowMicros()) ^ (++id_counter_ << 40));
  return Hex64(entropy);
}

storage::StoragePtr VersionControl::working_store() {
  std::string commit;
  bool writable;
  {
    MutexLock lock(mu_);
    commit = current_commit_;
    writable = !current_branch_.empty();
  }
  return std::make_shared<VersionedStore>(shared_from_this(),
                                          std::move(commit), writable);
}

Result<storage::StoragePtr> VersionControl::StoreAt(
    const std::string& commit_id) {
  {
    MutexLock lock(mu_);
    if (commits_.count(commit_id) == 0) {
      return Status::NotFound("no commit '" + commit_id + "'");
    }
  }
  return std::static_pointer_cast<storage::StorageProvider>(
      std::make_shared<VersionedStore>(shared_from_this(), commit_id,
                                       /*writable=*/false));
}

Result<std::string> VersionControl::Commit(const std::string& message) {
  // Sealing the working head and publishing a staged transaction both
  // advance the branch head; publish_mu_ serializes them so a concurrent
  // WriteTxn::Publish cannot reparent the head mid-seal (DESIGN.md §12).
  MutexLock publish_lock(publish_mu_);
  std::string sealed_id;
  std::string branch;
  {
    MutexLock lock(mu_);
    if (current_branch_.empty()) {
      return Status::FailedPrecondition(
          "cannot commit in detached state; checkout a branch first");
    }
    sealed_id = current_commit_;
    branch = current_branch_;
  }
  DL_RETURN_IF_ERROR(SealLocked(sealed_id, branch, message));
  {
    MutexLock lock(mu_);
    OpenWorkingHeadLocked(sealed_id, branch);
  }
  DL_RETURN_IF_ERROR(Flush());
  return sealed_id;
}

Status VersionControl::SealLocked(const std::string& id,
                                  const std::string& branch,
                                  const std::string& message) {
  CommitInfo before;
  {
    MutexLock lock(mu_);
    CommitInfo& info = commits_[id];
    before = info;
    info.committed = true;
    info.staged = false;
    info.message = message;
    info.branch = branch;
    info.timestamp_us = NowMicros();
  }
  // Journaled seal (DESIGN.md §9.3/§12.2): manifests first, then the
  // commit record — its presence is the single commit point. A staged
  // commit's txn marker goes right before the record, so up to the last
  // write its directory is GC-able debris. A crash before the record
  // leaves the old state; a crash after it is rolled forward by recovery.
  Status s = [&]() -> Status {
    DL_RETURN_IF_ERROR(PersistKeySet(id));
    DL_RETURN_IF_ERROR(WriteDiffFile(id));
    if (before.staged) DL_RETURN_IF_ERROR(RemoveTxnMarker(id));
    return WriteCommitRecord(id);
  }();
  if (!s.ok()) {
    // The record may or may not have landed; put the in-memory state back
    // and let recovery arbitrate on the next open.
    MutexLock lock(mu_);
    commits_[id] = before;
  }
  return s;
}

Status VersionControl::CheckoutBranch(const std::string& branch,
                                      bool create) {
  {
    MutexLock lock(mu_);
    auto it = branches_.find(branch);
    if (it != branches_.end() && create) {
      return Status::AlreadyExists("branch '" + branch + "' exists");
    }
    if (it == branches_.end() && !create) {
      return Status::NotFound("no branch '" + branch + "'");
    }
    if (!create) {
      current_branch_ = branch;
      current_commit_ = it->second;
    }
  }
  if (!create) {
    return Flush();
  }
  // Creating a branch from a working commit with writes would let two
  // branches share a mutable directory; seal it first (auto-commit, the
  // behaviour of checkout -b on a dirty working set).
  bool dirty;
  {
    MutexLock lock(mu_);
    dirty = !current_branch_.empty() && !key_sets_[current_commit_].empty() &&
            !commits_[current_commit_].committed;
  }
  if (dirty) {
    DL_ASSIGN_OR_RETURN(std::string sealed,
                        Commit("auto commit before branching"));
    (void)sealed;
  }
  {
    MutexLock lock(mu_);
    std::string fork_point = current_commit_;
    // If the working head is empty and uncommitted, fork from its parent so
    // the two branches do not share the mutable directory.
    if (!commits_[fork_point].committed) {
      std::string parent = commits_[fork_point].parent;
      if (!parent.empty()) fork_point = parent;
    }
    OpenWorkingHeadLocked(fork_point, branch);
  }
  return PersistInfo();
}

Status VersionControl::CheckoutCommit(const std::string& commit_id) {
  MutexLock lock(mu_);
  auto it = commits_.find(commit_id);
  if (it == commits_.end()) {
    return Status::NotFound("no commit '" + commit_id + "'");
  }
  if (!it->second.committed) {
    return Status::FailedPrecondition(
        "cannot detach onto an unsealed working commit; use its branch");
  }
  current_branch_.clear();
  current_commit_ = commit_id;
  return Status::OK();
}

std::vector<std::string> VersionControl::Branches() const {
  MutexLock lock(mu_);
  std::vector<std::string> names;
  for (const auto& [b, head] : branches_) names.push_back(b);
  return names;
}

Result<CommitInfo> VersionControl::GetCommit(const std::string& id) const {
  MutexLock lock(mu_);
  auto it = commits_.find(id);
  if (it == commits_.end()) {
    return Status::NotFound("no commit '" + id + "'");
  }
  return it->second;
}

std::vector<std::string> VersionControl::Chain(
    const std::string& commit_id) const {
  std::vector<std::string> chain;
  std::string cur = commit_id;
  while (!cur.empty()) {
    chain.push_back(cur);
    auto it = commits_.find(cur);
    if (it == commits_.end()) break;
    cur = it->second.parent;
  }
  return chain;
}

std::vector<CommitInfo> VersionControl::Log() const {
  MutexLock lock(mu_);
  std::vector<CommitInfo> log;
  for (const std::string& id : Chain(current_commit_)) {
    auto it = commits_.find(id);
    if (it != commits_.end()) log.push_back(it->second);
  }
  return log;
}

Result<std::vector<std::string>> VersionControl::ChunkSetOf(
    const std::string& commit_id, const std::string& tensor) {
  MutexLock lock(mu_);
  auto it = key_sets_.find(commit_id);
  if (it == key_sets_.end()) {
    return Status::NotFound("no key set for commit '" + commit_id + "'");
  }
  std::string prefix = PathJoin("tensors", tensor, "chunks") + "/";
  std::vector<std::string> chunks;
  for (const auto& k : it->second) {
    if (StartsWith(k, prefix)) chunks.push_back(k.substr(prefix.size()));
  }
  return chunks;
}

Status VersionControl::Flush() {
  DL_RETURN_IF_ERROR(PersistKeySet(current_commit_));
  return PersistInfo();
}

Result<std::string> VersionControl::SealedHead(const std::string& branch) {
  MutexLock lock(mu_);
  std::string b = branch.empty() ? current_branch_ : branch;
  if (b.empty()) {
    // Detached: the pinned commit itself is the sealed snapshot.
    return current_commit_;
  }
  auto it = branches_.find(b);
  if (it == branches_.end()) {
    return Status::NotFound("no branch '" + b + "'");
  }
  auto head = commits_.find(it->second);
  if (head == commits_.end() || head->second.parent.empty()) {
    return Status::NotFound("branch '" + b + "' has no sealed commit yet");
  }
  return head->second.parent;
}

// ---------------------------------------------------------------------------
// Manifest I/O — every bookkeeping JSON goes through the checksummed,
// durable envelope path (DESIGN.md §9).
// ---------------------------------------------------------------------------

Status VersionControl::PutManifest(const std::string& key, const Json& j) {
  std::string text = j.Dump(2);
  ByteBuffer framed = EnvelopeWrap(ByteView(text));
  // dllint-ok(unjournaled-manifest-write): the one sanctioned direct
  // manifest write — durable and atomic, so a crash can never expose a
  // torn manifest under this key.
  return base_->PutDurable(key, ByteView(framed));
}

Result<Json> VersionControl::ReadManifest(const std::string& key) {
  DL_ASSIGN_OR_RETURN(Slice payload, storage::GetVerified(*base_, key));
  return Json::Parse(payload.ToStringView());
}

Status VersionControl::PersistInfo() {
  Json j = Json::MakeObject();
  Json branches = Json::MakeObject();
  Json commits = Json::MakeObject();
  {
    MutexLock lock(mu_);
    for (const auto& [b, head] : branches_) branches.Set(b, head);
    for (const auto& [id, info] : commits_) {
      // Staged transaction commits are private to their writer until they
      // publish; the snapshot never references them, so a crashed writer's
      // staging directory is provably debris (GC'd via its txn marker).
      if (info.staged) continue;
      Json c = Json::MakeObject();
      c.Set("parent", info.parent);
      c.Set("branch", info.branch);
      c.Set("message", info.message);
      c.Set("committed", info.committed);
      c.Set("timestamp_us", info.timestamp_us);
      commits.Set(id, std::move(c));
    }
    j.Set("current_branch", current_branch_);
    j.Set("current_commit", current_commit_);
  }
  j.Set("branches", std::move(branches));
  j.Set("commits", std::move(commits));
  return PutManifest(kInfoKey, j);
}

Status VersionControl::LoadInfo() {
  DL_ASSIGN_OR_RETURN(Json j, ReadManifest(kInfoKey));
  MutexLock lock(mu_);
  branches_.clear();
  commits_.clear();
  for (const auto& [b, head] : j.Get("branches").object()) {
    branches_[b] = head.as_string();
  }
  for (const auto& [id, c] : j.Get("commits").object()) {
    CommitInfo info;
    info.id = id;
    info.parent = c.Get("parent").as_string();
    info.branch = c.Get("branch").as_string();
    info.message = c.Get("message").as_string();
    info.committed = c.Get("committed").as_bool(false);
    info.timestamp_us = c.Get("timestamp_us").as_int(0);
    commits_[id] = info;
  }
  current_branch_ = j.Get("current_branch").as_string();
  current_commit_ = j.Get("current_commit").as_string();
  return Status::OK();
}

Status VersionControl::PersistKeySet(const std::string& commit_id) {
  Json j = Json::MakeObject();
  Json arr = Json::MakeArray();
  {
    MutexLock lock(mu_);
    for (const auto& k : key_sets_[commit_id]) arr.Append(k);
  }
  j.Set("keys", std::move(arr));
  return PutManifest(KeySetKey(commit_id), j);
}

Status VersionControl::LoadKeySet(const std::string& commit_id) {
  DL_ASSIGN_OR_RETURN(Json j, ReadManifest(KeySetKey(commit_id)));
  std::set<std::string> keys;
  const Json& arr = j.Get("keys");
  for (size_t i = 0; i < arr.size(); ++i) keys.insert(arr[i].as_string());
  MutexLock lock(mu_);
  key_sets_[commit_id] = std::move(keys);
  return Status::OK();
}

Status VersionControl::RebuildKeySet(const std::string& commit_id) {
  // The key set is derivable state: every key a commit owns lives under
  // its directory, so a missing or torn keyset.json never loses data.
  std::string dir = VersionDir(commit_id) + "/";
  DL_ASSIGN_OR_RETURN(auto keys, base_->ListPrefix(dir));
  std::set<std::string> rebuilt;
  for (const auto& k : keys) {
    std::string rel = k.substr(dir.size());
    if (IsVersionManifestName(rel) || IsTempDebris(rel)) continue;
    rebuilt.insert(std::move(rel));
  }
  {
    MutexLock lock(mu_);
    key_sets_[commit_id] = std::move(rebuilt);
  }
  return PersistKeySet(commit_id);
}

Status VersionControl::LoadAllKeySets() {
  std::vector<std::string> ids;
  {
    MutexLock lock(mu_);
    for (const auto& [id, info] : commits_) ids.push_back(id);
  }
  for (const auto& id : ids) DL_RETURN_IF_ERROR(LoadOrRebuildKeySet(id));
  return Status::OK();
}

Status VersionControl::LoadOrRebuildKeySet(const std::string& commit_id) {
  Status s = LoadKeySet(commit_id);
  if (s.ok()) return s;
  if (!s.IsNotFound() && !s.IsCorruption() && !s.IsInvalidArgument()) {
    return s;
  }
  if (!s.IsNotFound()) recovery_.corrupt_manifests++;
  DL_RETURN_IF_ERROR(RebuildKeySet(commit_id));
  bool non_empty;
  {
    MutexLock lock(mu_);
    non_empty = !key_sets_[commit_id].empty();
  }
  if (!s.IsNotFound() || non_empty) recovery_.keysets_rebuilt++;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Commit records & crash recovery (DESIGN.md §9)
// ---------------------------------------------------------------------------

Status VersionControl::WriteCommitRecord(const std::string& commit_id) {
  Json j = Json::MakeObject();
  {
    MutexLock lock(mu_);
    const CommitInfo& info = commits_[commit_id];
    j.Set("id", info.id);
    j.Set("parent", info.parent);
    j.Set("branch", info.branch);
    j.Set("message", info.message);
    j.Set("timestamp_us", info.timestamp_us);
  }
  return PutManifest(CommitRecordKey(commit_id), j);
}

bool VersionControl::HasTxnMarker(const std::string& commit_id) {
  auto exists = base_->Exists(TxnMarkerKey(commit_id));
  return exists.ok() && *exists;
}

Result<CommitInfo> VersionControl::ReadCommitRecord(
    const std::string& commit_id) {
  DL_ASSIGN_OR_RETURN(Json j, ReadManifest(CommitRecordKey(commit_id)));
  CommitInfo info;
  info.id = commit_id;
  info.parent = j.Get("parent").as_string();
  info.branch = j.Get("branch").as_string();
  info.message = j.Get("message").as_string();
  info.committed = true;
  info.timestamp_us = j.Get("timestamp_us").as_int(0);
  return info;
}

Status VersionControl::Open() {
  Status s = LoadInfo();
  if (!s.ok()) {
    // A readable-but-wrong info file is unrecoverable garbage we refuse to
    // guess about; a torn/missing/unparsable one is rebuilt from the
    // per-commit records, which carry everything the snapshot holds.
    if (!s.IsCorruption() && !s.IsNotFound() && !s.IsInvalidArgument()) {
      return s;
    }
    if (s.IsCorruption()) recovery_.corrupt_manifests++;
    DL_RETURN_IF_ERROR(RebuildInfoFromRecords());
  }
  DL_RETURN_IF_ERROR(LoadAllKeySets());
  DL_RETURN_IF_ERROR(Recover());
  if (recovery_.any()) DL_RETURN_IF_ERROR(Flush());
  return Status::OK();
}

Status VersionControl::RebuildInfoFromRecords() {
  recovery_.info_rebuilt = true;
  DL_ASSIGN_OR_RETURN(auto all_keys, base_->ListPrefix(kVersionsPrefix));
  std::set<std::string> dir_ids;
  for (const auto& k : all_keys) {
    std::string id = VersionDirIdOf(k);
    if (!id.empty() && !IsTempDebris(k)) dir_ids.insert(std::move(id));
  }

  std::map<std::string, CommitInfo> commits;
  std::vector<std::string> recordless;
  for (const auto& id : dir_ids) {
    auto rec = ReadCommitRecord(id);
    if (rec.ok()) {
      commits[id] = *rec;
      continue;
    }
    if (rec.status().IsCorruption()) {
      // Torn record: the commit point never durably landed — roll back.
      recovery_.corrupt_manifests++;
      recovery_.commits_rolled_back++;
      DL_RETURN_IF_ERROR(base_->Delete(CommitRecordKey(id)));
    }
    // A txn.json marker proves the directory is MVCC staging debris, never
    // a legacy working head: leave it out of the adoption candidates so
    // Recover()'s stale-transaction pass garbage-collects it.
    if (HasTxnMarker(id)) continue;
    recordless.push_back(id);
  }

  // Branch heads: per branch, the committed record no other record on the
  // same branch names as parent (ties broken by timestamp).
  std::map<std::string, std::string> branches;
  for (const auto& [id, info] : commits) {
    std::string branch =
        info.branch.empty() ? std::string(kDefaultBranch) : info.branch;
    bool has_child = false;
    for (const auto& [id2, info2] : commits) {
      if (info2.parent == id && info2.branch == info.branch) {
        has_child = true;
        break;
      }
    }
    if (!has_child) {
      auto it = branches.find(branch);
      if (it == branches.end() ||
          commits[it->second].timestamp_us < info.timestamp_us) {
        branches[branch] = id;
      }
    }
  }

  MutexLock lock(mu_);
  commits_.clear();
  branches_ = std::move(branches);
  for (const auto& [id, info] : commits) commits_[id] = info;
  current_branch_ = branches_.count(kDefaultBranch) > 0
                        ? std::string(kDefaultBranch)
                        : (branches_.empty() ? std::string(kDefaultBranch)
                                             : branches_.begin()->first);
  if (recordless.size() == 1) {
    // Exactly one recordless directory: the crashed tree's working head.
    // Adopt it onto the current branch so its staged writes stay reachable.
    const std::string& id = recordless.front();
    CommitInfo info;
    info.id = id;
    auto hit = branches_.find(current_branch_);
    info.parent = hit == branches_.end() ? "" : hit->second;
    info.branch = current_branch_;
    info.timestamp_us = NowMicros();
    commits_[id] = info;
    branches_[current_branch_] = id;
    current_commit_ = id;
  } else {
    // Zero or ambiguous: point at the branch head; Recover() opens a fresh
    // working child and quarantines the unplaceable directories.
    auto hit = branches_.find(current_branch_);
    current_commit_ = hit == branches_.end() ? "" : hit->second;
  }
  return Status::OK();
}

Status VersionControl::Recover() {
  DL_ASSIGN_OR_RETURN(auto all_keys, base_->ListPrefix(kVersionsPrefix));
  std::set<std::string> dir_ids;
  for (const auto& k : all_keys) {
    std::string id = VersionDirIdOf(k);
    if (!id.empty()) dir_ids.insert(std::move(id));
  }

  std::map<std::string, bool> known;  // id -> committed, per the snapshot
  {
    MutexLock lock(mu_);
    for (const auto& [id, info] : commits_) known[id] = info.committed;
  }

  // Reconcile every known commit with its on-store record. The record is
  // the commit point: valid record wins over a stale snapshot (roll
  // forward); torn record means the point was never reached (roll back).
  for (const auto& [id, committed] : known) {
    auto rec = ReadCommitRecord(id);
    if (rec.ok()) {
      if (!committed) {
        MutexLock lock(mu_);
        CommitInfo& info = commits_[id];
        info.committed = true;
        info.message = rec->message;
        info.timestamp_us = rec->timestamp_us;
        if (info.branch.empty()) info.branch = rec->branch;
        recovery_.commits_rolled_forward++;
      }
      continue;
    }
    if (rec.status().IsCorruption() || rec.status().IsInvalidArgument()) {
      recovery_.corrupt_manifests++;
      DL_RETURN_IF_ERROR(base_->Delete(CommitRecordKey(id)));
      if (committed) {
        // The snapshot had already absorbed this commit, so it IS
        // committed; the record is the damaged copy — rewrite it.
        DL_RETURN_IF_ERROR(WriteCommitRecord(id));
      } else {
        recovery_.commits_rolled_back++;
      }
      continue;
    }
    if (!rec.status().IsNotFound()) return rec.status();
    if (committed) {
      // Legacy tree predating commit records (or a lost record): restore
      // the durable commit point from the snapshot.
      DL_RETURN_IF_ERROR(WriteCommitRecord(id));
    }
    // Uncommitted with no record: a normal working head.
  }

  // Commits whose record landed but whose id the info snapshot has never
  // seen: a published transaction that crashed after its commit point and
  // before the info flush (DESIGN.md §12). The record is the commit point,
  // so adopt the commit and splice the branch's unsealed working head onto
  // it — exactly what the publish would have done.
  for (const auto& id : dir_ids) {
    {
      MutexLock lock(mu_);
      if (commits_.count(id) > 0) continue;
    }
    auto rec = ReadCommitRecord(id);
    if (!rec.ok()) {
      if (rec.status().IsCorruption() || rec.status().IsInvalidArgument()) {
        // Torn record on an unknown directory: the commit point never
        // landed. Drop the record; the directory is classified below
        // (staged-txn debris or orphan).
        recovery_.corrupt_manifests++;
        recovery_.commits_rolled_back++;
        DL_RETURN_IF_ERROR(base_->Delete(CommitRecordKey(id)));
      } else if (!rec.status().IsNotFound()) {
        return rec.status();
      }
      continue;
    }
    {
      MutexLock lock(mu_);
      CommitInfo info = *rec;
      std::string branch =
          info.branch.empty() ? std::string(kDefaultBranch) : info.branch;
      commits_[id] = info;
      auto bit = branches_.find(branch);
      if (bit != branches_.end()) {
        auto wit = commits_.find(bit->second);
        if (wit != commits_.end() && !wit->second.committed &&
            wit->second.parent == info.parent) {
          wit->second.parent = id;
        }
      } else {
        branches_[branch] = id;
      }
    }
    recovery_.commits_rolled_forward++;
    // The keyset lands before the record in the journal order; load it so
    // the adopted commit's objects resolve through the chain.
    DL_RETURN_IF_ERROR(LoadOrRebuildKeySet(id));
  }

  // Version directories no commit references: the half-created next head
  // of a crashed Commit, or the staging directory of a crashed / losing
  // writer. A txn.json marker proves the latter — safe to GC even after an
  // info rebuild, since a marked directory was never a working head.
  // Unmarked dirs are provably unreachable only when the snapshot loaded
  // cleanly — delete; after an info rebuild quarantine (dlfsck reports
  // them) instead.
  for (const auto& id : dir_ids) {
    bool referenced;
    {
      MutexLock lock(mu_);
      referenced = commits_.count(id) > 0;
    }
    if (referenced) continue;
    bool stale_txn = HasTxnMarker(id);
    if (!stale_txn && recovery_.info_rebuilt) {
      recovery_.dirs_quarantined++;
      continue;
    }
    DL_ASSIGN_OR_RETURN(auto keys, base_->ListPrefix(VersionDir(id) + "/"));
    for (const auto& k : keys) DL_RETURN_IF_ERROR(base_->Delete(k));
    ++(stale_txn ? recovery_.stale_txns_removed
                 : recovery_.orphan_dirs_removed);
  }

  // The tree must end on an uncommitted working head. After a roll-forward
  // the old head is sealed; open a fresh child exactly as Commit() would
  // have.
  bool need_new_head = false;
  {
    MutexLock lock(mu_);
    if (current_commit_.empty() || commits_.count(current_commit_) == 0) {
      if (current_branch_.empty()) current_branch_ = kDefaultBranch;
      auto it = branches_.find(current_branch_);
      if (it != branches_.end() && commits_.count(it->second) > 0) {
        current_commit_ = it->second;
      } else {
        current_commit_.clear();
      }
    }
    need_new_head =
        current_commit_.empty() ||
        (!current_branch_.empty() && commits_[current_commit_].committed);
  }
  if (need_new_head) {
    MutexLock lock(mu_);
    // current_commit_ may be empty: a fresh root.
    OpenWorkingHeadLocked(current_commit_, current_branch_);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Diff
// ---------------------------------------------------------------------------

namespace {

/// Tensor names listed in dataset_meta.json at a given versioned view.
Result<std::vector<std::string>> TensorNamesAt(storage::StoragePtr store) {
  auto bytes = storage::GetVerified(*store, tsf::Dataset::kMetaKey);
  if (bytes.status().IsNotFound()) {
    return std::vector<std::string>{};  // no dataset yet
  }
  if (!bytes.ok()) return bytes.status();
  DL_ASSIGN_OR_RETURN(Json j, Json::Parse(bytes->ToStringView()));
  std::vector<std::string> names;
  const Json& arr = j.Get("tensors");
  for (size_t i = 0; i < arr.size(); ++i) names.push_back(arr[i].as_string());
  return names;
}

/// Chunk id of the chunk holding `index`, by walking encoder entries.
void ModifiedRangesBetween(const tsf::ChunkEncoder& a,
                           const tsf::ChunkEncoder& b,
                           std::vector<std::pair<uint64_t, uint64_t>>* out) {
  uint64_t overlap = std::min(a.num_samples(), b.num_samples());
  if (overlap == 0) return;
  const auto& ea = a.entries();
  const auto& eb = b.entries();
  size_t ia = 0, ib = 0;
  uint64_t pos = 0;
  while (pos < overlap) {
    while (ea[ia].last_index < pos) ++ia;
    while (eb[ib].last_index < pos) ++ib;
    uint64_t end = std::min({ea[ia].last_index, eb[ib].last_index,
                             overlap - 1});
    if (ea[ia].chunk_id != eb[ib].chunk_id) {
      if (!out->empty() && out->back().second + 1 == pos) {
        out->back().second = end;
      } else {
        out->push_back({pos, end});
      }
    }
    pos = end + 1;
  }
}

}  // namespace

Result<std::map<std::string, TensorDiff>> VersionControl::Diff(
    const std::string& commit_a, const std::string& commit_b) {
  DL_ASSIGN_OR_RETURN(storage::StoragePtr store_a, StoreAt(commit_a));
  DL_ASSIGN_OR_RETURN(storage::StoragePtr store_b, StoreAt(commit_b));
  DL_ASSIGN_OR_RETURN(auto names_a, TensorNamesAt(store_a));
  DL_ASSIGN_OR_RETURN(auto names_b, TensorNamesAt(store_b));
  std::set<std::string> all(names_a.begin(), names_a.end());
  all.insert(names_b.begin(), names_b.end());

  std::map<std::string, TensorDiff> diffs;
  for (const auto& name : all) {
    TensorDiff d;
    std::unique_ptr<tsf::Tensor> ta, tb;
    auto ra = tsf::Tensor::Open(store_a, name);
    if (ra.ok()) {
      ta = std::move(ra).value();
      d.length_a = ta->NumSamples();
    }
    auto rb = tsf::Tensor::Open(store_b, name);
    if (rb.ok()) {
      tb = std::move(rb).value();
      d.length_b = tb->NumSamples();
    }
    if (ta && tb) {
      ModifiedRangesBetween(ta->chunk_encoder(), tb->chunk_encoder(),
                            &d.modified_ranges);
    }
    if (d.length_a != d.length_b || !d.modified_ranges.empty() ||
        (ta == nullptr) != (tb == nullptr)) {
      diffs[name] = std::move(d);
    }
  }
  return diffs;
}

Status VersionControl::WriteDiffFile(const std::string& commit_id) {
  std::string parent;
  {
    MutexLock lock(mu_);
    parent = commits_[commit_id].parent;
  }
  Json j = Json::MakeObject();
  j.Set("commit", commit_id);
  j.Set("parent", parent);
  Json tensors = Json::MakeObject();
  if (!parent.empty()) {
    DL_ASSIGN_OR_RETURN(auto diffs, Diff(parent, commit_id));
    for (const auto& [name, d] : diffs) {
      Json t = Json::MakeObject();
      t.Set("length_before", d.length_a);
      t.Set("length_after", d.length_b);
      Json ranges = Json::MakeArray();
      for (const auto& [lo, hi] : d.modified_ranges) {
        Json r = Json::MakeArray();
        r.Append(lo);
        r.Append(hi);
        ranges.Append(std::move(r));
      }
      t.Set("modified_ranges", std::move(ranges));
      tensors.Set(name, std::move(t));
    }
  }
  j.Set("tensors", std::move(tensors));
  return PutManifest(DiffKey(commit_id), j);
}

// ---------------------------------------------------------------------------
// Merge
// ---------------------------------------------------------------------------

Result<MergeStats> VersionControl::Merge(const std::string& source_branch,
                                         MergePolicy policy) {
  std::string source_head;
  std::string merge_base;
  {
    MutexLock lock(mu_);
    if (current_branch_.empty()) {
      return Status::FailedPrecondition("cannot merge in detached state");
    }
    if (source_branch == current_branch_) {
      return Status::InvalidArgument("cannot merge a branch into itself");
    }
    auto it = branches_.find(source_branch);
    if (it == branches_.end()) {
      return Status::NotFound("no branch '" + source_branch + "'");
    }
    source_head = it->second;
    // The merge base: the nearest commit on the working head's chain that
    // the source head's chain also contains.
    std::vector<std::string> src_chain = Chain(source_head);
    std::set<std::string> src_ancestors(src_chain.begin(), src_chain.end());
    for (const std::string& id : Chain(current_commit_)) {
      if (src_ancestors.count(id) > 0) {
        merge_base = id;
        break;
      }
    }
  }
  DL_ASSIGN_OR_RETURN(storage::StoragePtr src_store, StoreAt(source_head));
  DL_ASSIGN_OR_RETURN(auto src, tsf::Dataset::Open(src_store));
  DL_ASSIGN_OR_RETURN(auto tgt, tsf::Dataset::Open(working_store()));
  std::shared_ptr<tsf::Dataset> base;  // null: no dataset at the base
  if (!merge_base.empty()) {
    DL_ASSIGN_OR_RETURN(storage::StoragePtr base_store, StoreAt(merge_base));
    auto opened = tsf::Dataset::Open(base_store);
    if (!opened.ok() && !opened.status().IsNotFound()) return opened.status();
    if (opened.ok()) base = std::move(opened).value();
  }

  // Create tensors that only exist on the source branch.
  for (const auto& name : src->TensorNames()) {
    if (tgt->HasTensor(name)) continue;
    DL_ASSIGN_OR_RETURN(tsf::Tensor * st, src->GetTensor(name));
    DL_RETURN_IF_ERROR(
        tgt->CreateTensor(name, st->meta().ToOptions()).status());
  }

  // Index target and base rows by sample id.
  std::map<uint64_t, uint64_t> tgt_ids, base_ids;
  for (auto [ds, ids] : {std::pair(tgt.get(), &tgt_ids),
                         std::pair(base.get(), &base_ids)}) {
    for (uint64_t i = 0; ds != nullptr && i < ds->NumRows(); ++i) {
      DL_ASSIGN_OR_RETURN(uint64_t id, ds->SampleIdAt(i));
      if (id != 0) (*ids)[id] = i;
    }
  }
  // A cell of `ds`; an empty `dtype` sample where the dataset, tensor or
  // row is absent, so absence compares equal to sparse padding.
  auto cell = [](tsf::Dataset* ds, const std::string& name, uint64_t row,
                 tsf::DType dtype) -> Result<tsf::Sample> {
    if (ds == nullptr || !ds->HasTensor(name)) {
      return tsf::Sample::EmptyOf(dtype);
    }
    DL_ASSIGN_OR_RETURN(tsf::Tensor * t, ds->GetTensor(name));
    if (row >= t->NumSamples()) return tsf::Sample::EmptyOf(dtype);
    return t->Read(row);
  };

  MergeStats stats;
  for (uint64_t i = 0; i < src->NumRows(); ++i) {
    DL_ASSIGN_OR_RETURN(uint64_t id, src->SampleIdAt(i));
    auto it = tgt_ids.find(id);
    if (id == 0 || it == tgt_ids.end()) {
      // New row on the source branch: append, preserving the sample id.
      DL_ASSIGN_OR_RETURN(auto row, src->ReadRow(i));
      DL_RETURN_IF_ERROR(tgt->AppendWithId(row, id));
      stats.rows_appended++;
      continue;
    }
    // Row exists on both sides: three-way, cell by cell, against the base.
    uint64_t ti = it->second;
    auto bit = base_ids.find(id);
    uint64_t bi = bit == base_ids.end() ? UINT64_MAX : bit->second;
    for (const auto& name : src->TensorNames()) {
      DL_ASSIGN_OR_RETURN(tsf::Tensor * st, src->GetTensor(name));
      tsf::DType dtype = st->meta().dtype;
      DL_ASSIGN_OR_RETURN(tsf::Sample sv, cell(src.get(), name, i, dtype));
      DL_ASSIGN_OR_RETURN(tsf::Sample tv, cell(tgt.get(), name, ti, dtype));
      if (sv == tv) continue;
      DL_ASSIGN_OR_RETURN(tsf::Sample bv, cell(base.get(), name, bi, dtype));
      if (sv == bv) continue;  // only the target changed it: keep
      if (tv != bv) {
        // Both sides changed the cell: the policy decides.
        stats.conflicts++;
        if (policy == MergePolicy::kError) {
          return Status::Aborted("merge conflict in tensor '" + name +
                                 "' row " + std::to_string(ti));
        }
        if (policy == MergePolicy::kOurs) continue;
      }
      DL_ASSIGN_OR_RETURN(tsf::Tensor * tt, tgt->GetTensor(name));
      DL_RETURN_IF_ERROR(tt->Update(ti, sv));
      stats.cells_overwritten++;
    }
  }
  DL_RETURN_IF_ERROR(tgt->Flush());
  DL_RETURN_IF_ERROR(Flush());
  return stats;
}

}  // namespace dl::version
