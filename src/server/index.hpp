// The server's file and source indexes.
//
// An eDonkey directory server "indexes files and users, and their main role
// is to answer to searches for files (based on metadata like filename, size
// or filetype), and searches for providers (called sources) of given files"
// (paper §2.1).  The paper's server did this for ~90 M distinct clients; a
// single-map index behind one logical owner cannot scale with that
// population, so FileIndex is *sharded*: files are partitioned into N
// power-of-two shards by a hash of their fileID, and each shard is a
// complete mini-index of its own files — record map, inverted keyword
// postings, per-client provider lists — behind its own reader/writer lock.
// Publishes to different shards proceed in parallel; searches take shared
// locks and fan out across shards, merging per-shard results under the
// protocol caps.
//
// Keywords are interned: every lowercase keyword of a published name becomes
// a u32 id once, in one dictionary shared by all shards, and each record
// keeps its name's ids.  search() compiles its expression against the
// dictionary once, so testing a candidate compares integers.  Ids are
// derived, never saved, and never reused within a run: a search may still
// hold the id of a word that a retract just freed, and must not see it
// name another word.
//
// Determinism contract: answers are *independent of the shard count*.
// Every file carries the global sequence number of its first publish, the
// canonical answer order; per-shard partial results come back
// seq-ordered and the merge re-establishes the exact order the old
// single-map index produced (posting lists were publication-ordered).
// tests/index_differential_test replays identical workloads against a
// reference single-map oracle and shard counts {1,2,4,8} and asserts
// byte-identical answers.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "hash/digest.hpp"
#include "obs/metrics.hpp"
#include "proto/messages.hpp"
#include "proto/search_expr.hpp"

namespace dtr::server {

/// One provider of a file, as stored by the server.
struct Source {
  proto::ClientId client = 0;
  std::uint16_t port = 0;
  bool operator==(const Source&) const = default;
};

/// Per-file record: canonical metadata plus the provider list.
struct FileRecord {
  std::string name;        // first-published filename wins (canonical)
  std::uint32_t size = 0;  // bytes
  std::string type;        // "audio", "video", ...
  std::vector<Source> sources;
  /// Global first-publish sequence number: the canonical search-answer
  /// order, identical for every shard count.
  std::uint64_t seq = 0;
  /// Interned ids of the name's distinct keywords, ascending; derived from
  /// `name` at publish and restore, never saved.
  std::vector<std::uint32_t> keywords;

  [[nodiscard]] std::uint32_t availability() const {
    return static_cast<std::uint32_t>(sources.size());
  }
};

struct FileIndexConfig {
  /// Number of shards; rounded up to a power of two, clamped to [1, 64].
  std::size_t shards = 4;
};

class FileIndex {
 public:
  explicit FileIndex(FileIndexConfig config = {});

  /// Add (or refresh) `entry.client_id` as a provider of the file described
  /// by `entry`.  Returns true if this was a new (file, provider) pair.
  /// Thread-safe; locks exactly one shard.
  bool publish(const proto::FileEntry& entry);

  /// Publish a whole announce batch, locking each shard at most once
  /// (entries are grouped by shard; within a shard they apply in input
  /// order, and first-publish ordering across the batch matches the
  /// per-entry path).  Returns the number of new (file, provider) pairs;
  /// `new_pair`, when given, receives the per-entry publish() results.
  std::size_t publish_batch(const std::vector<proto::FileEntry>& entries,
                            std::vector<bool>* new_pair = nullptr);

  /// Remove a provider from all its files (client went offline).  Visits
  /// every shard once; cost within a shard is proportional to the number
  /// of files the client provides there.
  void retract_client(proto::ClientId client);

  /// Borrowed pointer into the owning shard — valid only while no other
  /// thread mutates the index (tests, serial drivers).  Concurrent readers
  /// must use visit().
  [[nodiscard]] const FileRecord* find(const FileId& id) const;

  /// Run `fn(const FileRecord&)` under the owning shard's shared lock;
  /// returns false (fn not called) when the file is unknown.  This is the
  /// concurrency-safe read path: copy what you need inside `fn`.
  template <typename F>
  bool visit(const FileId& id, F&& fn) const {
    const Shard& shard = shard_for(id);
    std::shared_lock lock(shard.mutex);
    auto it = shard.files.find(id);
    if (it == shard.files.end()) return false;
    fn(it->second);
    return true;
  }

  [[nodiscard]] std::size_t file_count() const;
  [[nodiscard]] std::uint64_t source_count() const;
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }

  /// All fileIDs matching a search expression, capped at `limit`, in
  /// first-publish order (independent of the shard count).  Thread-safe;
  /// takes shared locks shard by shard.
  [[nodiscard]] std::vector<FileId> search(const proto::SearchExpr& expr,
                                           std::size_t limit) const;

  /// Number of distinct keywords carried by live files (the dictionary's
  /// size).  Thread-safe.
  [[nodiscard]] std::size_t keyword_count() const;

  /// Register `server.index.*` instruments in `registry` and record into
  /// them from now on: publish/search/retract counters, size gauges,
  /// per-shard occupancy gauges, a candidates-evaluated histogram and a
  /// shard-lock-wait histogram.
  void bind_metrics(obs::Registry& registry);

  /// Checkpoint codec.  Records are written in global first-publish order
  /// and restore re-derives every per-shard structure (postings, by_seq,
  /// by_client) from them, so the restored index answers identically for
  /// the same shard count.  Not thread-safe: quiesce before calling.
  void save_state(ByteWriter& out) const;
  bool restore_state(ByteReader& in);

 private:
  /// Id of no keyword: a query term absent from the dictionary, or "no
  /// keyword to scan" (full metadata scan).  Never handed out.
  static constexpr std::uint32_t kNoKeyword = 0xFFFFFFFFu;

  /// Lowercase keyword <-> u32 id, reference-counted by the live files
  /// carrying the keyword.  Its own lock; taken after a shard lock, never
  /// before one.
  class Dictionary {
   public:
    /// The distinct ids of `words`, ascending, interning new words; each
    /// gains one file reference.  Throws std::length_error, changing
    /// nothing, once the run's ids would run out.
    std::vector<std::uint32_t> acquire(const std::vector<std::string>& words);
    /// Drop one file reference from each (distinct) id; an id nobody
    /// carries any more is freed, and its number never comes back.
    void release(const std::vector<std::uint32_t>& ids);
    [[nodiscard]] std::size_t size() const;
    void clear();

    /// Shared lock for a batch of find_locked() calls.
    std::shared_lock<std::shared_mutex> lock_shared() const {
      return std::shared_lock(mutex_);
    }
    /// The word's id, or kNoKeyword; the caller holds lock_shared().
    [[nodiscard]] std::uint32_t find_locked(const std::string& word) const;

   private:
    struct Word {
      const std::string* text = nullptr;  // key in ids_
      std::uint64_t files = 0;            // live files carrying it
    };
    mutable std::shared_mutex mutex_;
    std::unordered_map<std::string, std::uint32_t> ids_;
    std::unordered_map<std::uint32_t, Word> words_;
    std::uint32_t next_id_ = 0;
  };

  /// A search expression compiled against the dictionary (index.cpp).
  struct Query;

  /// One posting-list element: the file plus its canonical order key.
  struct Posting {
    std::uint64_t seq = 0;
    FileId id;
  };

  struct Shard {
    mutable std::shared_mutex mutex;
    std::unordered_map<FileId, FileRecord, DigestHasher> files;
    // keyword id -> postings, seq-ascending for any serial publish history.
    std::unordered_map<std::uint32_t, std::vector<Posting>> keywords;
    // client -> files it provides *in this shard* (for retract_client).
    std::unordered_map<proto::ClientId, std::vector<FileId>> by_client;
    // Canonical full-scan order for keyword-less metadata queries.
    std::map<std::uint64_t, FileId> by_seq;
    // Lock-free size counters so file_count()/source_count() never block.
    std::atomic<std::uint64_t> file_count{0};
    std::atomic<std::uint64_t> source_count{0};
  };

  struct Metrics {
    obs::Counter* publishes = nullptr;
    obs::Counter* searches = nullptr;
    obs::Counter* retracts = nullptr;
    obs::Gauge* files = nullptr;
    obs::Gauge* sources = nullptr;
    obs::Histogram* candidates = nullptr;   // evaluated per search
    obs::Histogram* lock_wait = nullptr;    // contended shard acquisitions
    std::vector<obs::Gauge*> shard_files;   // occupancy per shard
  };

  Shard& shard_for(const FileId& id) { return *shards_[shard_index(id)]; }
  const Shard& shard_for(const FileId& id) const {
    return *shards_[shard_index(id)];
  }
  std::size_t shard_index(const FileId& id) const {
    return DigestHasher{}(id) & shard_mask_;
  }

  /// Acquire `shard.mutex` (unique), timing contended waits into the
  /// lock-wait histogram.
  std::unique_lock<std::shared_mutex> lock_unique(const Shard& shard) const;
  std::shared_lock<std::shared_mutex> lock_shared(const Shard& shard) const;

  /// The publish core, under the shard lock.  `seq` is consumed only when
  /// the file is new.  Returns true for a new (file, provider) pair.
  bool publish_locked(Shard& shard, const proto::FileEntry& entry,
                      std::uint64_t seq);
  void unindex_file_locked(Shard& shard, const FileId& id,
                           const FileRecord& record);

  /// First `limit` matches of one shard in canonical (seq) order; the
  /// caller holds the shard's lock.  `chosen` is the keyword whose posting
  /// list to scan (kNoKeyword = full by_seq scan).  `evaluated` accumulates
  /// the number of candidate records tested.
  std::vector<Posting> shard_partial_locked(const Shard& shard,
                                            const Query& query,
                                            std::uint32_t chosen,
                                            std::size_t limit,
                                            std::uint64_t* evaluated) const;

  void update_size_gauges(std::size_t shard) const;
  void update_all_gauges() const;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t shard_mask_ = 0;
  std::atomic<std::uint64_t> next_seq_{1};
  Dictionary dictionary_;

  Metrics metrics_;
};

}  // namespace dtr::server
