// The factor cache of the solver service (DESIGN.md §11): an LRU map
// from (matrix fingerprint, limb count) to DEVICE-RESIDENT factor
// objects — StagedQr factors of the least-squares pipeline, or a
// BlockToeplitzSolver with its staged mirrors — so repeat requests
// against the same operator skip both the factorization launches and the
// input staging transfer.  Staged residency (PR 5 / DESIGN.md §8) is what
// makes the hit nearly free: a cached factor is already in limb-planar
// device storage, and the warm path (core::staged_lsq_finish_exec)
// replays the identical post-factorization launches against it, so
// cache-hit results are limb-identical to cold results by construction.
//
// Keying.  The fingerprint hashes the matrix SHAPE plus every limb of
// every element bitwise (FNV-1a over the raw double bit patterns), so a
// perturbation of any entry in any limb changes the key.  The limb count
// is part of the key — and also folded into the fingerprint itself — so
// the same values narrowed to a different precision never alias a cached
// factor of the wrong rung.  Entry kind (QR vs Toeplitz) is a third key
// component: both factor families of one operator may be cached side by
// side.
//
// Eviction.  Entries are charged their resident bytes
// (device::Staged2D::bytes() sums, supplied by the inserter); when the
// running total exceeds the byte budget the least-recently-used entries
// are dropped.  An entry larger than the whole budget is not retained.
// Hit / miss / eviction / insertion counters feed the service stats and
// the bench_serve cache-hit-rate column.
//
// Concurrency.  All operations take one mutex; find() hands back a
// shared_ptr<const E>, so workers use a hit outside the lock while
// eviction can drop the map's reference safely (the factor dies with the
// last reader).  Entries are immutable once inserted — the warm solve
// copies R's triangle before inverting tiles, never mutating the cached
// planes.
#pragma once

#include <bit>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "blas/matrix.hpp"
#include "blas/scalar.hpp"

namespace mdlsq::serve {

// FNV-1a over 64-bit words; the seed folds in a domain tag so an empty
// matrix does not hash to the bare offset basis.
inline std::uint64_t fnv1a_mix(std::uint64_t h, std::uint64_t v) noexcept {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (v >> (8 * byte)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

// Fingerprint of a host matrix: shape, limb count, and every limb of
// every element bitwise.  Two matrices with equal values at DIFFERENT
// limb counts hash differently (the limb count is mixed in first), and
// any single-limb perturbation of any entry changes the result.
template <class T>
std::uint64_t fingerprint(const blas::Matrix<T>& a) {
  using traits = blas::scalar_traits<T>;
  std::uint64_t h = 0xcbf29ce484222325ull;
  h = fnv1a_mix(h, 0x6d646c73712d6670ull);  // domain tag
  h = fnv1a_mix(h, static_cast<std::uint64_t>(traits::limbs));
  h = fnv1a_mix(h, static_cast<std::uint64_t>(a.rows()));
  h = fnv1a_mix(h, static_cast<std::uint64_t>(a.cols()));
  auto mix_real = [&h](const auto& x) {
    for (int s = 0; s < traits::limbs; ++s)
      h = fnv1a_mix(h, std::bit_cast<std::uint64_t>(x.limb(s)));
  };
  for (int i = 0; i < a.rows(); ++i)
    for (int j = 0; j < a.cols(); ++j) {
      if constexpr (traits::is_complex) {
        mix_real(a(i, j).re);
        mix_real(a(i, j).im);
      } else {
        mix_real(a(i, j));
      }
    }
  return h;
}

// What family of factor an entry holds.  Part of the key, so the QR
// factors and the Toeplitz solver of the same operator coexist.
enum class FactorKind { qr, toeplitz };

struct FactorKey {
  std::uint64_t fingerprint = 0;
  int limbs = 0;
  FactorKind kind = FactorKind::qr;

  bool operator==(const FactorKey&) const = default;
};

struct FactorKeyHash {
  std::size_t operator()(const FactorKey& k) const noexcept {
    std::uint64_t h = k.fingerprint;
    h = fnv1a_mix(h, static_cast<std::uint64_t>(k.limbs));
    h = fnv1a_mix(h, static_cast<std::uint64_t>(k.kind));
    return static_cast<std::size_t>(h);
  }
};

struct FactorCacheStats {
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::int64_t insertions = 0;
  std::int64_t evictions = 0;
  std::int64_t bytes = 0;     // currently resident
  std::int64_t entries = 0;   // currently resident

  double hit_rate() const noexcept {
    const std::int64_t n = hits + misses;
    return n > 0 ? static_cast<double>(hits) / static_cast<double>(n) : 0.0;
  }
};

// The LRU itself.  Entries are type-erased (one cache serves every limb
// instantiation); find() checks the stored type before handing the entry
// back and treats a kind/type mismatch as a miss rather than a cast.
class FactorCache {
  struct Slot {
    FactorKey key;
    std::shared_ptr<const void> entry;
    const void* type = nullptr;  // type tag (detail::type_tag<E>())
    std::int64_t bytes = 0;
  };
  using Lru = std::list<Slot>;

  template <class E>
  static const void* type_tag() noexcept {
    static const char tag = 0;
    return &tag;
  }

 public:
  explicit FactorCache(std::int64_t byte_budget = std::int64_t(64) << 20)
      : budget_(byte_budget) {
    if (byte_budget < 0)
      throw std::invalid_argument(
          "mdlsq: FactorCache byte budget must be >= 0");
  }

  std::int64_t byte_budget() const noexcept { return budget_; }

  // Looks a key up and promotes it to most-recently-used.  Returns null
  // (and counts a miss) when absent or when the entry under the key is
  // not an E.
  template <class E>
  std::shared_ptr<const E> find(const FactorKey& key) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it == map_.end() || it->second->type != type_tag<E>()) {
      ++stats_.misses;
      return nullptr;
    }
    lru_.splice(lru_.begin(), lru_, it->second);
    ++stats_.hits;
    return std::static_pointer_cast<const E>(it->second->entry);
  }

  // Inserts (or replaces) an entry charged `bytes` resident bytes, then
  // evicts least-recently-used entries until the budget holds again.  An
  // entry that alone exceeds the budget is dropped immediately (counted
  // as an insertion and an eviction), so the cache never pins more than
  // the budget.
  template <class E>
  void insert(const FactorKey& key, std::shared_ptr<const E> entry,
              std::int64_t bytes) {
    if (entry == nullptr)
      throw std::invalid_argument("mdlsq: FactorCache cannot cache null");
    if (bytes < 0)
      throw std::invalid_argument(
          "mdlsq: FactorCache entry bytes must be >= 0");
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it != map_.end()) drop(it->second);
    lru_.push_front(Slot{key, std::shared_ptr<const void>(std::move(entry)),
                         type_tag<E>(), bytes});
    map_[key] = lru_.begin();
    stats_.bytes += bytes;
    ++stats_.entries;
    ++stats_.insertions;
    while (stats_.bytes > budget_ && !lru_.empty())
      drop(std::prev(lru_.end()));
  }

  FactorCacheStats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

  void clear() {
    std::lock_guard<std::mutex> lock(mu_);
    while (!lru_.empty()) drop(std::prev(lru_.end()));
  }

 private:
  void drop(Lru::iterator it) {
    stats_.bytes -= it->bytes;
    --stats_.entries;
    ++stats_.evictions;
    map_.erase(it->key);
    lru_.erase(it);
  }

  mutable std::mutex mu_;
  std::int64_t budget_;
  Lru lru_;
  std::unordered_map<FactorKey, Lru::iterator, FactorKeyHash> map_;
  FactorCacheStats stats_;
};

}  // namespace mdlsq::serve
