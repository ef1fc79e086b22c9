// Sorted-vector associative containers for the RIB hot paths.
//
// std::map spends one heap node (~48 bytes + allocator slack) and a pointer
// chase per entry; at 100k-AS x multi-prefix scale the node overhead dwarfs
// the routes themselves. FlatMap/FlatSet store entries in one contiguous
// sorted vector: O(log n) lookup with perfect locality, O(n) insert/erase
// (fine for RIB rows, which are written far less often than they are read),
// and iteration order identical to std::map/std::set — which is what keeps
// every "walk the table in key order" output byte-identical after the swap.
//
// Deliberate std::map differences:
//   - insert/erase invalidate iterators AND references (vector semantics).
//     Assigning through insert_or_assign to an EXISTING key is in-place and
//     invalidates nothing — LocRib::set relies on that.
//   - value_type is pair<Key, Value> (not pair<const Key, Value>); mutating
//     a key through an iterator would break the invariant, so don't.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <initializer_list>
#include <iterator>
#include <utility>
#include <vector>

namespace moas::util {

template <typename Key, typename Value, typename Compare = std::less<Key>>
class FlatMap {
 public:
  using key_type = Key;
  using mapped_type = Value;
  using value_type = std::pair<Key, Value>;
  using iterator = typename std::vector<value_type>::iterator;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  iterator begin() { return data_.begin(); }
  iterator end() { return data_.end(); }
  const_iterator begin() const { return data_.begin(); }
  const_iterator end() const { return data_.end(); }

  bool empty() const { return data_.empty(); }
  std::size_t size() const { return data_.size(); }
  void clear() { data_.clear(); }
  void reserve(std::size_t n) { data_.reserve(n); }

  iterator lower_bound(const Key& key) {
    return std::lower_bound(data_.begin(), data_.end(), key, KeyLess{});
  }
  const_iterator lower_bound(const Key& key) const {
    return std::lower_bound(data_.begin(), data_.end(), key, KeyLess{});
  }

  iterator find(const Key& key) {
    auto it = lower_bound(key);
    return (it != data_.end() && equals(it->first, key)) ? it : data_.end();
  }
  const_iterator find(const Key& key) const {
    auto it = lower_bound(key);
    return (it != data_.end() && equals(it->first, key)) ? it : data_.end();
  }

  bool contains(const Key& key) const { return find(key) != data_.end(); }

  /// Default-constructs the value on first access, like std::map.
  Value& operator[](const Key& key) {
    auto it = lower_bound(key);
    if (it != data_.end() && equals(it->first, key)) return it->second;
    return data_.emplace(it, key, Value{})->second;
  }

  template <typename... Args>
  std::pair<iterator, bool> try_emplace(const Key& key, Args&&... args) {
    auto it = lower_bound(key);
    if (it != data_.end() && equals(it->first, key)) return {it, false};
    it = data_.emplace(it, key, Value(std::forward<Args>(args)...));
    return {it, true};
  }

  /// Assigning to an existing key is in-place: no reallocation, references
  /// to OTHER entries (and to this one) stay valid.
  std::pair<iterator, bool> insert_or_assign(const Key& key, Value value) {
    auto it = lower_bound(key);
    if (it != data_.end() && equals(it->first, key)) {
      it->second = std::move(value);
      return {it, false};
    }
    it = data_.emplace(it, key, std::move(value));
    return {it, true};
  }

  std::size_t erase(const Key& key) {
    auto it = find(key);
    if (it == data_.end()) return 0;
    data_.erase(it);
    return 1;
  }

  iterator erase(iterator it) { return data_.erase(it); }
  iterator erase(const_iterator it) { return data_.erase(it); }

  /// Erases every entry `pred` holds for in one compaction pass, where n
  /// single erases would shift the tail n times. `pred` sees each entry
  /// once, in key order. Returns the number erased.
  template <typename Pred>
  std::size_t erase_if(Pred pred) {
    auto kept = data_.begin();
    for (auto it = data_.begin(); it != data_.end(); ++it) {
      if (pred(std::as_const(*it))) continue;
      if (kept != it) *kept = std::move(*it);
      ++kept;
    }
    const auto erased = static_cast<std::size_t>(data_.end() - kept);
    data_.erase(kept, data_.end());
    return erased;
  }

  /// Contiguous heap footprint of the container itself (capacity, not just
  /// size — slack is real memory). Excludes whatever the values own.
  std::size_t container_bytes() const { return data_.capacity() * sizeof(value_type); }

  friend bool operator==(const FlatMap&, const FlatMap&) = default;

 private:
  struct KeyLess {
    bool operator()(const value_type& entry, const Key& key) const {
      return Compare{}(entry.first, key);
    }
  };
  static bool equals(const Key& a, const Key& b) {
    return !Compare{}(a, b) && !Compare{}(b, a);
  }

  std::vector<value_type> data_;
};

template <typename Key, typename Compare = std::less<Key>>
class FlatSet {
 public:
  using iterator = typename std::vector<Key>::const_iterator;
  using const_iterator = iterator;

  FlatSet() = default;
  FlatSet(std::initializer_list<Key> keys) : FlatSet(keys.begin(), keys.end()) {}
  /// Builds from any range in one sort: O(n log n), never n inserts.
  template <std::input_iterator InputIt>
  FlatSet(InputIt first, InputIt last) : data_(first, last) {
    std::sort(data_.begin(), data_.end(), Compare{});
    dedupe();
  }

  const_iterator begin() const { return data_.begin(); }
  const_iterator end() const { return data_.end(); }

  bool empty() const { return data_.empty(); }
  std::size_t size() const { return data_.size(); }
  void clear() { data_.clear(); }

  bool contains(const Key& key) const {
    auto it = std::lower_bound(data_.begin(), data_.end(), key, Compare{});
    return it != data_.end() && equals(*it, key);
  }

  bool insert(const Key& key) {
    auto it = std::lower_bound(data_.begin(), data_.end(), key, Compare{});
    if (it != data_.end() && equals(*it, key)) return false;
    data_.insert(it, key);
    return true;
  }

  /// Merges a range in: append, sort the tail, merge in place, dedupe.
  template <std::input_iterator InputIt>
  void insert(InputIt first, InputIt last) {
    const std::ptrdiff_t old_size = static_cast<std::ptrdiff_t>(data_.size());
    data_.insert(data_.end(), first, last);
    const auto mid = data_.begin() + old_size;
    std::sort(mid, data_.end(), Compare{});
    std::inplace_merge(data_.begin(), mid, data_.end(), Compare{});
    dedupe();
  }

  std::size_t erase(const Key& key) {
    auto it = std::lower_bound(data_.begin(), data_.end(), key, Compare{});
    if (it == data_.end() || !equals(*it, key)) return 0;
    data_.erase(it);
    return 1;
  }

  std::size_t container_bytes() const { return data_.capacity() * sizeof(Key); }
  void shrink_to_fit() { data_.shrink_to_fit(); }

  friend bool operator==(const FlatSet&, const FlatSet&) = default;

 private:
  static bool equals(const Key& a, const Key& b) {
    return !Compare{}(a, b) && !Compare{}(b, a);
  }
  void dedupe() { data_.erase(std::unique(data_.begin(), data_.end(), equals), data_.end()); }

  std::vector<Key> data_;
};

}  // namespace moas::util
