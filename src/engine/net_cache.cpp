#include "engine/net_cache.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <utility>

#include "obs/encode.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"

namespace rct::engine {
namespace {

// Registry mirrors of the per-instance counters below: one source of truth
// for EngineStats, `--metrics-out` snapshots and the `--progress` meter.
// Function-local statics so each hot path pays one relaxed atomic add, not
// a name lookup.
obs::Counter& cache_hit_counter() {
  static obs::Counter& c = obs::registry().counter("engine.cache.hits");
  return c;
}
obs::Counter& cache_miss_counter() {
  static obs::Counter& c = obs::registry().counter("engine.cache.misses");
  return c;
}
obs::Counter& cache_insert_counter() {
  static obs::Counter& c = obs::registry().counter("engine.cache.inserts");
  return c;
}
obs::Counter& cache_eviction_counter() {
  static obs::Counter& c = obs::registry().counter("engine.cache.evictions");
  return c;
}
obs::Counter& cache_store_hit_counter() {
  static obs::Counter& c = obs::registry().counter("engine.cache.store_hits");
  return c;
}
obs::Counter& context_hit_counter() {
  static obs::Counter& c = obs::registry().counter("engine.cache.context_hits");
  return c;
}

void append_content_words(NetKey& key, const RCTree& tree) {
  for (NodeId i = 0; i < tree.size(); ++i) {
    key.words.push_back(tree.parent(i));  // kSource is its own sentinel value
    key.words.push_back(std::bit_cast<std::uint64_t>(tree.resistance(i)));
    key.words.push_back(std::bit_cast<std::uint64_t>(tree.capacitance(i)));
  }
}

/// Drops `it` from its hash chain in `index`, erasing the chain when it
/// empties.  Shared by both LRU eviction paths.
template <typename Index, typename Iter>
void unindex(Index& index, std::uint64_t hash, Iter it) {
  auto chain = index.find(hash);
  if (chain == index.end()) return;
  auto& vec = chain->second;
  vec.erase(std::remove(vec.begin(), vec.end(), it), vec.end());
  if (vec.empty()) index.erase(chain);
}

}  // namespace

void rebind_report_names(std::vector<core::NodeReport>& rows, const RCTree& tree) {
  if (rows.size() == tree.size()) {
    for (NodeId i = 0; i < tree.size(); ++i) rows[i].name = tree.name(i);
    return;
  }
  const std::vector<NodeId> leaves = tree.leaves();
  if (rows.size() != leaves.size()) return;  // defensive: unexpected shape, keep stored names
  for (std::size_t i = 0; i < leaves.size(); ++i) rows[i].name = tree.name(leaves[i]);
}

NetKey NetKey::of(const RCTree& tree, const core::ReportOptions& options) {
  NetKey key;
  key.words.reserve(3 + 3 * tree.size());
  key.words.push_back(tree.size());
  // Options enter as their *effective* values: with_exact only matters as
  // applied after the node-count cutoff.
  const bool exact = options.with_exact && tree.size() <= options.exact_node_limit;
  key.words.push_back((exact ? 1ULL : 0ULL) | (options.leaves_only ? 2ULL : 0ULL));
  key.words.push_back(std::bit_cast<std::uint64_t>(options.fraction));
  append_content_words(key, tree);
  key.hash = obs::fnv1a_words(key.words);
  return key;
}

NetKey NetKey::content_of(const RCTree& tree) {
  NetKey key;
  key.words.reserve(1 + 3 * tree.size());
  key.words.push_back(tree.size());
  append_content_words(key, tree);
  key.hash = obs::fnv1a_words(key.words);
  return key;
}

NetCache::NetCache(std::size_t shards, std::size_t max_entries) {
  if (shards == 0) shards = 1;
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) shards_.push_back(std::make_unique<Shard>());
  if (max_entries > 0) cap_per_shard_ = (max_entries + shards - 1) / shards;
}

std::optional<std::vector<core::NodeReport>> NetCache::lookup(const NetKey& key,
                                                              const RCTree& tree,
                                                              CacheSource* source) {
  Shard& shard = shard_for(key.hash);
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto chain = shard.index.find(key.hash);
    if (chain != shard.index.end()) {
      for (const auto it : chain->second) {
        if (it->key == key) {
          hits_.fetch_add(1);
          cache_hit_counter().add();
          shard.entries.splice(shard.entries.begin(), shard.entries, it);  // refresh LRU
          std::vector<core::NodeReport> rows = it->rows;  // copy under the shard lock
          rebind_report_names(rows, tree);
          if (source != nullptr) *source = CacheSource::kMemory;
          return rows;
        }
      }
    }
  }
  // Memory miss: consult the second-level store outside the shard lock and
  // promote a hit into memory so repeats stay lock-cheap.
  if (backend_ != nullptr) {
    if (auto loaded = backend_->load(key)) {
      backend_hits_.fetch_add(1);
      cache_store_hit_counter().add();
      std::vector<core::NodeReport> rows = *loaded;
      insert_memory(key, std::move(*loaded));
      rebind_report_names(rows, tree);
      if (source != nullptr) *source = CacheSource::kBackend;
      return rows;
    }
  }
  misses_.fetch_add(1);
  cache_miss_counter().add();
  if (source != nullptr) *source = CacheSource::kMiss;
  return std::nullopt;
}

bool NetCache::insert_memory(const NetKey& key, std::vector<core::NodeReport> rows) {
  Shard& shard = shard_for(key.hash);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto& chain = shard.index[key.hash];
  for (const auto it : chain)
    if (it->key == key) return false;  // first writer wins
  shard.entries.push_front(Entry{key, std::move(rows)});
  chain.push_back(shard.entries.begin());
  cache_insert_counter().add();
  if (cap_per_shard_ > 0 && shard.entries.size() > cap_per_shard_) {
    const auto victim = std::prev(shard.entries.end());
    unindex(shard.index, victim->key.hash, victim);
    shard.entries.pop_back();
    evictions_.fetch_add(1);
    cache_eviction_counter().add();
  }
  return true;
}

void NetCache::insert(const NetKey& key, std::vector<core::NodeReport> rows) {
  // Write-through before the memory insert: the rows are still at hand and
  // no shard lock is held across the (possibly real) I/O.  A duplicate
  // insert re-saves; backends treat an existing entry as a cheap no-op.
  if (backend_ != nullptr) backend_->save(key, rows);
  insert_memory(key, std::move(rows));
}

std::shared_ptr<const analysis::TreeContext> NetCache::lookup_context(const NetKey& key) {
  Shard& shard = shard_for(key.hash);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto chain = shard.ctx_index.find(key.hash);
  if (chain != shard.ctx_index.end()) {
    for (const auto it : chain->second) {
      if (it->key == key) {
        ctx_hits_.fetch_add(1);
        context_hit_counter().add();
        shard.contexts.splice(shard.contexts.begin(), shard.contexts, it);  // refresh LRU
        return it->context;
      }
    }
  }
  return nullptr;
}

std::shared_ptr<const analysis::TreeContext> NetCache::insert_context(
    const NetKey& key, std::shared_ptr<const analysis::TreeContext> context) {
  Shard& shard = shard_for(key.hash);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto& chain = shard.ctx_index[key.hash];
  for (const auto it : chain) {
    if (it->key == key) {
      ctx_hits_.fetch_add(1);  // lost the race; caller adopts the winner
      context_hit_counter().add();
      obs::log::debug("engine.cache.context_race",
                      {{"hash", static_cast<std::uint64_t>(key.hash)}});
      return it->context;
    }
  }
  shard.contexts.push_front(CtxEntry{key, context});
  chain.push_back(shard.contexts.begin());
  if (cap_per_shard_ > 0 && shard.contexts.size() > cap_per_shard_) {
    const auto victim = std::prev(shard.contexts.end());
    // Dropping a context is safe even while in use: consumers hold their
    // own shared_ptr; only the cache's reference goes away.
    unindex(shard.ctx_index, victim->key.hash, victim);
    shard.contexts.pop_back();
    evictions_.fetch_add(1);
    cache_eviction_counter().add();
  }
  return context;
}

std::pair<std::size_t, std::size_t> NetCache::clear() {
  std::size_t entries = 0;
  std::size_t contexts = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    entries += shard->entries.size();
    contexts += shard->contexts.size();
    shard->entries.clear();
    shard->index.clear();
    shard->contexts.clear();
    shard->ctx_index.clear();
  }
  return {entries, contexts};
}

std::size_t NetCache::size() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    n += shard->entries.size();
  }
  return n;
}

std::size_t NetCache::context_count() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    n += shard->contexts.size();
  }
  return n;
}

}  // namespace rct::engine
