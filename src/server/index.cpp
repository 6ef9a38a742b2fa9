#include "server/index.hpp"

#include <algorithm>
#include <chrono>
#include <cctype>
#include <cstring>
#include <stdexcept>

#include "common/strings.hpp"
#include "obs/profiler.hpp"

namespace dtr::server {

namespace {

std::size_t round_to_pow2_clamped(std::size_t n) {
  if (n < 1) n = 1;
  if (n > 64) n = 64;
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// `text` == `lowered` after ASCII lowercasing `text`, without a copy.
bool equals_lowered(const std::string& text, const std::string& lowered) {
  if (text.size() != lowered.size()) return false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const auto c = static_cast<unsigned char>(text[i]);
    if (static_cast<char>(std::tolower(c)) != lowered[i]) return false;
  }
  return true;
}

bool is_tag(const std::string& tag_name, proto::TagName tag) {
  return tag_name.size() == 1 && static_cast<std::uint8_t>(tag_name[0]) ==
                                     static_cast<std::uint8_t>(tag);
}

}  // namespace

// ---------------------------------------------------------------------------
// Dictionary
// ---------------------------------------------------------------------------

std::vector<std::uint32_t> FileIndex::Dictionary::acquire(
    const std::vector<std::string>& words) {
  std::unique_lock lock(mutex_);
  if (words.size() > kNoKeyword - next_id_) {
    throw std::length_error("keyword dictionary: ids exhausted");
  }
  std::vector<std::uint32_t> ids;
  ids.reserve(words.size());
  for (const std::string& word : words) {
    auto [it, is_new] = ids_.try_emplace(word, next_id_);
    if (is_new) words_.emplace(next_id_++, Word{&it->first, 0});
    ids.push_back(it->second);
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  for (std::uint32_t id : ids) ++words_.at(id).files;
  return ids;
}

void FileIndex::Dictionary::release(const std::vector<std::uint32_t>& ids) {
  std::unique_lock lock(mutex_);
  for (std::uint32_t id : ids) {
    auto it = words_.find(id);
    if (it == words_.end() || --it->second.files != 0) continue;
    ids_.erase(ids_.find(*it->second.text));
    words_.erase(it);
  }
}

std::uint32_t FileIndex::Dictionary::find_locked(
    const std::string& word) const {
  auto it = ids_.find(word);
  return it == ids_.end() ? kNoKeyword : it->second;
}

std::size_t FileIndex::Dictionary::size() const {
  std::shared_lock lock(mutex_);
  return ids_.size();
}

void FileIndex::Dictionary::clear() {
  std::unique_lock lock(mutex_);
  ids_.clear();
  words_.clear();
}

// ---------------------------------------------------------------------------
// Query: a SearchExpr compiled once per search
// ---------------------------------------------------------------------------

struct FileIndex::Query {
  struct Node {
    enum class Op : std::uint8_t {
      kFalse,
      kAnd,
      kOr,
      kAndNot,
      kKeyword,    // value = keyword id
      kType,       // value = index into `types`
      kSizeMin,    // value = bound
      kSizeMax,
      kAvailMin,
      kAvailMax,
    };
    Op op = Op::kFalse;
    std::uint32_t value = 0;
    std::uint32_t left = 0;  // child node indices (boolean ops)
    std::uint32_t right = 0;
  };

  std::vector<Node> nodes;          // nodes[0] is the root
  std::vector<std::string> types;   // pre-lowered file-type values
  /// Keyword terms left to right (SearchExpr::collect_keywords order);
  /// kNoKeyword for a term the dictionary does not hold.
  std::vector<std::uint32_t> terms;

  /// Compiles `expr`; the caller holds `dict.lock_shared()`.  A keyword
  /// the dictionary does not hold, and metadata the index does not keep,
  /// compile to kFalse, exactly as the string matcher never matched them.
  Query(const proto::SearchExpr& expr, const Dictionary& dict) {
    compile(expr, dict);
  }

  [[nodiscard]] bool matches(const FileRecord& record) const {
    return eval(0, record);
  }

 private:
  using Op = Node::Op;

  std::uint32_t compile(const proto::SearchExpr& expr,
                        const Dictionary& dict) {
    using Kind = proto::SearchExpr::Kind;
    const auto at = static_cast<std::uint32_t>(nodes.size());
    nodes.emplace_back();
    Node node;
    switch (expr.kind) {
      case Kind::kBool: {
        // A missing child is false, as in the string matcher.
        node.left = expr.left != nullptr ? compile(*expr.left, dict)
                                         : add_false();
        node.right = expr.right != nullptr ? compile(*expr.right, dict)
                                           : add_false();
        switch (expr.op) {
          case proto::BoolOp::kAnd:
            node.op = Op::kAnd;
            break;
          case proto::BoolOp::kOr:
            node.op = Op::kOr;
            break;
          case proto::BoolOp::kAndNot:
            node.op = Op::kAndNot;
            break;
        }
        break;
      }
      case Kind::kKeyword: {
        const std::uint32_t id = dict.find_locked(to_lower(expr.text));
        terms.push_back(id);
        if (id != kNoKeyword) {
          node.op = Op::kKeyword;
          node.value = id;
        }
        break;
      }
      case Kind::kMetaString:
        // Only the file type is indexed among string metadata.
        if (is_tag(expr.tag_name, proto::TagName::kFileType)) {
          node.op = Op::kType;
          node.value = static_cast<std::uint32_t>(types.size());
          types.push_back(to_lower(expr.text));
        }
        break;
      case Kind::kMetaNumeric: {
        const bool min = expr.cmp == proto::NumCmp::kMin;
        if (is_tag(expr.tag_name, proto::TagName::kFileSize)) {
          node.op = min ? Op::kSizeMin : Op::kSizeMax;
        } else if (is_tag(expr.tag_name, proto::TagName::kAvailability)) {
          node.op = min ? Op::kAvailMin : Op::kAvailMax;
        }
        node.value = expr.number;
        break;
      }
    }
    nodes[at] = node;
    return at;
  }

  std::uint32_t add_false() {
    nodes.emplace_back();
    return static_cast<std::uint32_t>(nodes.size() - 1);
  }

  [[nodiscard]] bool eval(std::uint32_t at, const FileRecord& record) const {
    const Node& node = nodes[at];
    switch (node.op) {
      case Op::kFalse:
        return false;
      case Op::kAnd:
        return eval(node.left, record) && eval(node.right, record);
      case Op::kOr:
        return eval(node.left, record) || eval(node.right, record);
      case Op::kAndNot:
        return eval(node.left, record) && !eval(node.right, record);
      case Op::kKeyword:
        return std::find(record.keywords.begin(), record.keywords.end(),
                         node.value) != record.keywords.end();
      case Op::kType:
        return equals_lowered(record.type, types[node.value]);
      case Op::kSizeMin:
        return record.size >= node.value;
      case Op::kSizeMax:
        return record.size <= node.value;
      case Op::kAvailMin:
        return record.availability() >= node.value;
      case Op::kAvailMax:
        return record.availability() <= node.value;
    }
    return false;
  }
};

// ---------------------------------------------------------------------------
// FileIndex
// ---------------------------------------------------------------------------

FileIndex::FileIndex(FileIndexConfig config) {
  const std::size_t n = round_to_pow2_clamped(config.shards);
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  shard_mask_ = n - 1;
}

std::unique_lock<std::shared_mutex> FileIndex::lock_unique(
    const Shard& shard) const {
  std::unique_lock lock(shard.mutex, std::try_to_lock);
  if (lock.owns_lock()) return lock;
  // Contended: time only the blocking path, so a serial run observes
  // nothing (keeping serial metric output reproducible) and a concurrent
  // run measures exactly the waits that cost it throughput.
  const auto t0 = std::chrono::steady_clock::now();
  {
    obs::ProfScope prof(obs::ThreadState::kLockWait);
    lock.lock();
  }
  obs::observe(metrics_.lock_wait, seconds_since(t0));
  return lock;
}

std::shared_lock<std::shared_mutex> FileIndex::lock_shared(
    const Shard& shard) const {
  std::shared_lock lock(shard.mutex, std::try_to_lock);
  if (lock.owns_lock()) return lock;
  const auto t0 = std::chrono::steady_clock::now();
  {
    obs::ProfScope prof(obs::ThreadState::kLockWait);
    lock.lock();
  }
  obs::observe(metrics_.lock_wait, seconds_since(t0));
  return lock;
}

bool FileIndex::publish_locked(Shard& shard, const proto::FileEntry& entry,
                               std::uint64_t seq) {
  auto it = shard.files.find(entry.file_id);
  if (it == shard.files.end()) {
    FileRecord record;
    record.seq = seq;
    if (auto name = proto::tag_string(entry.tags, proto::TagName::kFileName))
      record.name = *name;
    if (auto size = proto::tag_u32(entry.tags, proto::TagName::kFileSize))
      record.size = *size;
    if (auto type = proto::tag_string(entry.tags, proto::TagName::kFileType))
      record.type = *type;
    // Intern first: it is the one step that can throw, and nothing has
    // changed yet.  One posting per distinct keyword: a name that repeats
    // the searched word is still one candidate and one answer.
    record.keywords = dictionary_.acquire(tokenize_keywords(record.name));
    for (std::uint32_t kw : record.keywords) {
      auto& postings = shard.keywords[kw];
      // Keep posting lists seq-ascending even when concurrent publishers
      // interleave; serial histories append at the end.
      auto pos = std::upper_bound(
          postings.begin(), postings.end(), seq,
          [](std::uint64_t s, const Posting& p) { return s < p.seq; });
      postings.insert(pos, Posting{seq, entry.file_id});
    }
    shard.by_seq.emplace(seq, entry.file_id);
    shard.file_count.fetch_add(1, std::memory_order_relaxed);
    it = shard.files.emplace(entry.file_id, std::move(record)).first;
  }
  FileRecord& record = it->second;

  Source src{entry.client_id, entry.port};
  auto found = std::find_if(
      record.sources.begin(), record.sources.end(),
      [&](const Source& s) { return s.client == src.client; });
  if (found != record.sources.end()) {
    found->port = src.port;  // refresh
    return false;
  }
  record.sources.push_back(src);
  shard.by_client[entry.client_id].push_back(entry.file_id);
  shard.source_count.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool FileIndex::publish(const proto::FileEntry& entry) {
  obs::inc(metrics_.publishes);
  const std::uint64_t seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  const std::size_t si = shard_index(entry.file_id);
  Shard& shard = *shards_[si];
  bool is_new = false;
  {
    auto lock = lock_unique(shard);
    is_new = publish_locked(shard, entry, seq);
  }
  update_size_gauges(si);
  return is_new;
}

std::size_t FileIndex::publish_batch(
    const std::vector<proto::FileEntry>& entries,
    std::vector<bool>* new_pair) {
  if (new_pair != nullptr) new_pair->assign(entries.size(), false);
  if (entries.empty()) return 0;
  obs::inc(metrics_.publishes, entries.size());

  // Reserve a contiguous seq block up front: entry i gets base + i, so the
  // canonical order matches the per-entry publish() path even though the
  // shard-grouped application below visits shards out of input order.
  const std::uint64_t base =
      next_seq_.fetch_add(entries.size(), std::memory_order_relaxed);

  std::vector<std::vector<std::size_t>> by_shard(shards_.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    by_shard[shard_index(entries[i].file_id)].push_back(i);
  }

  std::size_t new_pairs = 0;
  for (std::size_t si = 0; si < shards_.size(); ++si) {
    if (by_shard[si].empty()) continue;
    Shard& shard = *shards_[si];
    {
      auto lock = lock_unique(shard);
      for (std::size_t idx : by_shard[si]) {
        if (publish_locked(shard, entries[idx], base + idx)) {
          ++new_pairs;
          if (new_pair != nullptr) (*new_pair)[idx] = true;
        }
      }
    }
    update_size_gauges(si);
  }
  return new_pairs;
}

void FileIndex::unindex_file_locked(Shard& shard, const FileId& id,
                                    const FileRecord& record) {
  for (std::uint32_t kw : record.keywords) {
    auto it = shard.keywords.find(kw);
    if (it == shard.keywords.end()) continue;
    auto& postings = it->second;
    postings.erase(
        std::remove_if(postings.begin(), postings.end(),
                       [&](const Posting& p) { return p.id == id; }),
        postings.end());
    if (postings.empty()) shard.keywords.erase(it);
  }
  dictionary_.release(record.keywords);
  shard.by_seq.erase(record.seq);
}

void FileIndex::retract_client(proto::ClientId client) {
  obs::inc(metrics_.retracts);
  for (std::size_t si = 0; si < shards_.size(); ++si) {
    Shard& shard = *shards_[si];
    {
      auto lock = lock_unique(shard);
      auto it = shard.by_client.find(client);
      if (it == shard.by_client.end()) continue;
      for (const FileId& id : it->second) {
        auto fit = shard.files.find(id);
        if (fit == shard.files.end()) continue;
        auto& sources = fit->second.sources;
        auto src = std::find_if(
            sources.begin(), sources.end(),
            [&](const Source& s) { return s.client == client; });
        if (src != sources.end()) {
          sources.erase(src);
          shard.source_count.fetch_sub(1, std::memory_order_relaxed);
        }
        if (sources.empty()) {
          unindex_file_locked(shard, id, fit->second);
          shard.files.erase(fit);
          shard.file_count.fetch_sub(1, std::memory_order_relaxed);
        }
      }
      shard.by_client.erase(it);
    }
    update_size_gauges(si);
  }
}

const FileRecord* FileIndex::find(const FileId& id) const {
  const Shard& shard = shard_for(id);
  auto it = shard.files.find(id);
  return it == shard.files.end() ? nullptr : &it->second;
}

std::size_t FileIndex::file_count() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->file_count.load(std::memory_order_relaxed);
  }
  return static_cast<std::size_t>(total);
}

std::uint64_t FileIndex::source_count() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->source_count.load(std::memory_order_relaxed);
  }
  return total;
}

std::size_t FileIndex::keyword_count() const { return dictionary_.size(); }

std::vector<FileIndex::Posting> FileIndex::shard_partial_locked(
    const Shard& shard, const Query& query, std::uint32_t chosen,
    std::size_t limit, std::uint64_t* evaluated) const {
  std::vector<Posting> out;
  if (limit == 0) return out;
  if (chosen == kNoKeyword) {
    // Pure metadata query: scan this shard's files in canonical order.
    for (const auto& [seq, id] : shard.by_seq) {
      auto fit = shard.files.find(id);
      if (fit == shard.files.end()) continue;
      ++*evaluated;
      if (query.matches(fit->second)) {
        out.push_back(Posting{seq, id});
        if (out.size() >= limit) break;
      }
    }
    return out;
  }
  auto it = shard.keywords.find(chosen);
  if (it == shard.keywords.end()) return out;
  for (const Posting& p : it->second) {
    auto fit = shard.files.find(p.id);
    if (fit == shard.files.end()) continue;
    ++*evaluated;
    if (query.matches(fit->second)) {
      out.push_back(p);
      if (out.size() >= limit) break;
    }
  }
  return out;
}

std::vector<FileId> FileIndex::search(const proto::SearchExpr& expr,
                                      std::size_t limit) const {
  obs::inc(metrics_.searches);

  // Like the old single-map index (and real servers), use the posting list
  // of the *rarest* keyword as the candidate list and filter candidates by
  // full expression evaluation; rarity is judged on the summed posting
  // length across shards, which equals the old global posting length.
  const Query query = [&] {
    auto lock = dictionary_.lock_shared();
    return Query(expr, dictionary_);
  }();

  std::uint32_t chosen = kNoKeyword;  // full metadata scan
  if (!query.terms.empty()) {
    const std::vector<std::uint32_t>& terms = query.terms;
    std::vector<std::uint64_t> totals(terms.size(), 0);
    for (const auto& shard : shards_) {
      auto lock = lock_shared(*shard);
      for (std::size_t ti = 0; ti < terms.size(); ++ti) {
        if (terms[ti] == kNoKeyword) continue;
        auto it = shard->keywords.find(terms[ti]);
        if (it != shard->keywords.end()) totals[ti] += it->second.size();
      }
    }
    std::uint64_t best_total = 0;
    for (std::size_t ti = 0; ti < terms.size(); ++ti) {
      // Skip keywords indexed nowhere; the first strict minimum wins.
      if (totals[ti] == 0) continue;
      if (chosen == kNoKeyword || totals[ti] < best_total) {
        best_total = totals[ti];
        chosen = terms[ti];
      }
    }
    if (chosen == kNoKeyword) {
      // No query keyword is indexed at all: the answer is empty without
      // scanning anything.
      obs::observe(metrics_.candidates, 0.0);
      return {};
    }
  }

  // Each shard's partial holds its first `limit` matches seq-ascending, so
  // the first `limit` of the merged stream are exactly the old single-map
  // answer.
  std::uint64_t evaluated = 0;
  std::vector<Posting> merged;
  for (const auto& shard : shards_) {
    auto lock = lock_shared(*shard);
    const std::vector<Posting> partial =
        shard_partial_locked(*shard, query, chosen, limit, &evaluated);
    merged.insert(merged.end(), partial.begin(), partial.end());
  }
  obs::observe(metrics_.candidates, static_cast<double>(evaluated));
  std::sort(merged.begin(), merged.end(),
            [](const Posting& a, const Posting& b) { return a.seq < b.seq; });
  if (merged.size() > limit) merged.resize(limit);

  std::vector<FileId> out;
  out.reserve(merged.size());
  for (const Posting& p : merged) out.push_back(p.id);
  return out;
}

void FileIndex::save_state(ByteWriter& out) const {
  out.u64le(shards_.size());
  out.u64le(next_seq_.load(std::memory_order_relaxed));

  // Records in global first-publish order: the canonical answer order, and
  // the order restore_state replays so per-shard posting lists come back
  // seq-ascending without re-sorting.
  struct Item {
    std::uint64_t seq = 0;
    const FileId* id = nullptr;
    const FileRecord* rec = nullptr;
  };
  std::vector<Item> items;
  for (const auto& shard : shards_) {
    for (const auto& [seq, id] : shard->by_seq) {
      auto it = shard->files.find(id);
      if (it == shard->files.end()) continue;
      items.push_back(Item{seq, &it->first, &it->second});
    }
  }
  std::sort(items.begin(), items.end(),
            [](const Item& a, const Item& b) { return a.seq < b.seq; });

  out.u64le(items.size());
  for (const Item& item : items) {
    out.u64le(item.seq);
    out.raw(BytesView(item.id->bytes.data(), item.id->bytes.size()));
    out.u32le(static_cast<std::uint32_t>(item.rec->name.size()));
    out.raw(BytesView(
        reinterpret_cast<const std::uint8_t*>(item.rec->name.data()),
        item.rec->name.size()));
    out.u32le(item.rec->size);
    out.u32le(static_cast<std::uint32_t>(item.rec->type.size()));
    out.raw(BytesView(
        reinterpret_cast<const std::uint8_t*>(item.rec->type.data()),
        item.rec->type.size()));
    out.u32le(static_cast<std::uint32_t>(item.rec->sources.size()));
    for (const Source& src : item.rec->sources) {
      out.u32le(src.client);
      out.u16le(src.port);
    }
  }
}

bool FileIndex::restore_state(ByteReader& in) {
  if (in.u64le() != shards_.size()) return false;
  const std::uint64_t next_seq = in.u64le();
  const std::uint64_t count = in.u64le();
  if (count > in.remaining() / 40) return false;

  dictionary_.clear();
  for (auto& shard : shards_) {
    shard->files.clear();
    shard->keywords.clear();
    shard->by_client.clear();
    shard->by_seq.clear();
    shard->file_count.store(0, std::memory_order_relaxed);
    shard->source_count.store(0, std::memory_order_relaxed);
  }

  std::uint64_t prev_seq = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t seq = in.u64le();
    if (seq <= prev_seq || seq >= next_seq) return false;
    prev_seq = seq;
    FileId id;
    BytesView id_bytes = in.raw(id.bytes.size());
    if (!in.ok()) return false;
    std::memcpy(id.bytes.data(), id_bytes.data(), id.bytes.size());

    FileRecord rec;
    rec.seq = seq;
    const std::uint32_t name_len = in.u32le();
    if (name_len > in.remaining()) return false;
    BytesView name = in.raw(name_len);
    rec.name.assign(reinterpret_cast<const char*>(name.data()), name.size());
    rec.size = in.u32le();
    const std::uint32_t type_len = in.u32le();
    if (type_len > in.remaining()) return false;
    BytesView type = in.raw(type_len);
    rec.type.assign(reinterpret_cast<const char*>(type.data()), type.size());
    const std::uint32_t n_sources = in.u32le();
    if (n_sources > in.remaining() / 6) return false;
    rec.sources.reserve(n_sources);
    for (std::uint32_t s = 0; s < n_sources; ++s) {
      Source src{in.u32le(), in.u16le()};
      auto dup = std::find_if(
          rec.sources.begin(), rec.sources.end(),
          [&](const Source& o) { return o.client == src.client; });
      if (dup != rec.sources.end()) return false;
      rec.sources.push_back(src);
    }
    if (!in.ok()) return false;

    Shard& shard = shard_for(id);
    if (shard.files.contains(id)) return false;
    rec.keywords = dictionary_.acquire(tokenize_keywords(rec.name));
    for (std::uint32_t kw : rec.keywords) {
      shard.keywords[kw].push_back(Posting{seq, id});
    }
    shard.by_seq.emplace(seq, id);
    shard.file_count.fetch_add(1, std::memory_order_relaxed);
    for (const Source& src : rec.sources) {
      shard.by_client[src.client].push_back(id);
      shard.source_count.fetch_add(1, std::memory_order_relaxed);
    }
    shard.files.emplace(id, std::move(rec));
  }
  next_seq_.store(next_seq, std::memory_order_relaxed);
  update_all_gauges();
  return in.ok();
}

void FileIndex::update_size_gauges(std::size_t shard) const {
  if (shard < metrics_.shard_files.size()) {
    obs::set(metrics_.shard_files[shard],
             static_cast<std::int64_t>(
                 shards_[shard]->file_count.load(std::memory_order_relaxed)));
  }
  obs::set(metrics_.files, static_cast<std::int64_t>(file_count()));
  obs::set(metrics_.sources, static_cast<std::int64_t>(source_count()));
}

void FileIndex::update_all_gauges() const {
  for (std::size_t i = 0; i < shards_.size(); ++i) update_size_gauges(i);
}

void FileIndex::bind_metrics(obs::Registry& registry) {
  metrics_.publishes = &registry.counter("server.index.publishes");
  metrics_.searches = &registry.counter("server.index.searches");
  metrics_.retracts = &registry.counter("server.index.retracts");
  metrics_.files = &registry.gauge("server.index.files");
  metrics_.sources = &registry.gauge("server.index.sources");
  metrics_.candidates = &registry.histogram("server.index.search.candidates",
                                            obs::size_buckets());
  // span.-prefixed so the wall-clock-dependent waits stay out of the
  // deterministic time series (TimeSeriesOptions excludes span.*).
  metrics_.lock_wait = &registry.histogram(
      "span.server.index.lock_wait.seconds", obs::lock_wait_buckets_s());
  registry.gauge("server.index.shards")
      .set(static_cast<std::int64_t>(shards_.size()));
  metrics_.shard_files.clear();
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    metrics_.shard_files.push_back(&registry.gauge(
        "server.index.shard." + std::to_string(i) + ".files"));
  }
  update_all_gauges();
}

}  // namespace dtr::server
