#ifndef COURSENAV_UTIL_BITSET_H_
#define COURSENAV_UTIL_BITSET_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "util/simd/simd.h"

namespace coursenav {

namespace internal {

/// Storage for a bitset's 64-bit words with a small-buffer optimization:
/// up to `kInlineWords` words (128 bits) live inline, larger universes
/// spill to the heap. Course catalogs are small (the evaluation's has 38
/// courses = 1 word), and course sets are copied on every node expansion,
/// so keeping them allocation-free dominates generator throughput (see
/// bench/micro_benchmarks).
class WordStorage {
 public:
  using Word = uint64_t;
  static constexpr size_t kInlineWords = 2;

  WordStorage() : size_(0) { inline_[0] = inline_[1] = 0; }

  explicit WordStorage(size_t size) : size_(size) {
    if (is_inline()) {
      inline_[0] = inline_[1] = 0;
    } else {
      heap_.assign(size, 0);
    }
  }

  WordStorage(const WordStorage& other) : size_(other.size_) {
    if (is_inline()) {
      inline_[0] = other.inline_[0];
      inline_[1] = other.inline_[1];
    } else {
      heap_ = other.heap_;
    }
  }

  WordStorage& operator=(const WordStorage& other) {
    if (this == &other) return *this;
    if (size_ == other.size_) {
      // Same shape: copy words in place. For heap storage this reuses the
      // existing allocation instead of the resize + element-copy dance a
      // vector assignment performs; equal-universe assignment is the common
      // case on the expansion hot path (scratch sets, cache lookups).
      std::memcpy(data(), other.data(), size_ * sizeof(Word));
      return *this;
    }
    size_ = other.size_;
    if (is_inline()) {
      inline_[0] = other.inline_[0];
      inline_[1] = other.inline_[1];
      heap_.clear();
    } else {
      heap_ = other.heap_;
    }
    return *this;
  }

  WordStorage(WordStorage&& other) noexcept
      : size_(other.size_), heap_(std::move(other.heap_)) {
    inline_[0] = other.inline_[0];
    inline_[1] = other.inline_[1];
  }

  WordStorage& operator=(WordStorage&& other) noexcept {
    size_ = other.size_;
    inline_[0] = other.inline_[0];
    inline_[1] = other.inline_[1];
    heap_ = std::move(other.heap_);
    return *this;
  }

  size_t size() const { return size_; }

  Word* data() { return is_inline() ? inline_ : heap_.data(); }
  const Word* data() const { return is_inline() ? inline_ : heap_.data(); }

  Word& operator[](size_t i) { return data()[i]; }
  const Word& operator[](size_t i) const { return data()[i]; }

  size_t heap_bytes() const { return heap_.capacity() * sizeof(Word); }

 private:
  bool is_inline() const { return size_ <= kInlineWords; }

  size_t size_;
  Word inline_[kInlineWords];
  std::vector<Word> heap_;
};

}  // namespace internal

/// A dynamically sized bitset tuned for small dense id universes.
///
/// `DynamicBitset` backs `CourseSet`: the hot data structure of every
/// generator. A catalog interns courses into dense ids `[0, n)`, so a
/// student's completed set `X_i`, option set `Y_i` and per-edge selection
/// `W` are all bitsets of `n` bits. All set algebra used on the exploration
/// hot path (union, subset test, difference, popcount) is O(n/64), and
/// universes up to 128 elements are stored inline (no allocation).
///
/// The capacity (`universe_size`) is fixed at construction; all binary
/// operations require operands of equal universe size.
class DynamicBitset {
 public:
  /// An empty set over an empty universe.
  DynamicBitset() : num_bits_(0) {}

  /// An empty set over a universe of `universe_size` elements.
  explicit DynamicBitset(int universe_size);

  DynamicBitset(const DynamicBitset&) = default;
  DynamicBitset& operator=(const DynamicBitset&) = default;
  DynamicBitset(DynamicBitset&&) noexcept = default;
  DynamicBitset& operator=(DynamicBitset&&) noexcept = default;

  /// Builds a set from explicit member ids.
  static DynamicBitset FromIndices(int universe_size,
                                   const std::vector<int>& indices);

  /// Number of representable elements.
  int universe_size() const { return num_bits_; }

  /// Number of elements currently in the set.
  int count() const;

  bool empty() const;

  /// Membership test; `pos` must be in `[0, universe_size())`.
  bool test(int pos) const {
    return (words_[WordIndex(pos)] >> BitIndex(pos)) & 1u;
  }

  void set(int pos) { words_[WordIndex(pos)] |= Word(1) << BitIndex(pos); }
  void reset(int pos) { words_[WordIndex(pos)] &= ~(Word(1) << BitIndex(pos)); }
  void clear();

  /// In-place set algebra. Operands must share a universe size.
  DynamicBitset& operator|=(const DynamicBitset& other);
  DynamicBitset& operator&=(const DynamicBitset& other);
  /// Set difference: removes every element of `other` from this set.
  DynamicBitset& Subtract(const DynamicBitset& other);

  friend DynamicBitset operator|(DynamicBitset a, const DynamicBitset& b) {
    a |= b;
    return a;
  }
  friend DynamicBitset operator&(DynamicBitset a, const DynamicBitset& b) {
    a &= b;
    return a;
  }

  /// True if every element of this set is also in `other`.
  bool IsSubsetOf(const DynamicBitset& other) const;

  /// True if the two sets share at least one element.
  bool Intersects(const DynamicBitset& other) const;

  friend bool operator==(const DynamicBitset& a, const DynamicBitset& b) {
    if (a.num_bits_ != b.num_bits_) return false;
    return simd::Equal(a.words_.data(), b.words_.data(), a.words_.size());
  }

  /// Ids of all members, ascending.
  std::vector<int> ToIndices() const;

  /// Calls `fn(int)` for each member id, ascending.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t w = 0; w < words_.size(); ++w) {
      Word word = words_[w];
      while (word != 0) {
        int bit = simd::CountTrailingZeros(word);
        fn(static_cast<int>(w * kBitsPerWord) + bit);
        word &= word - 1;
      }
    }
  }

  /// Raw word access for batch kernels (src/util/simd). The universe's bits
  /// are packed little-endian into `word_count()` 64-bit words; bits at or
  /// above `universe_size()` are always zero.
  size_t word_count() const { return words_.size(); }
  const uint64_t* word_data() const { return words_.data(); }
  uint64_t* mutable_word_data() { return words_.data(); }

  /// Overwrites this set's words from a packed row of `word_count()` words.
  /// The caller guarantees bits at or above `universe_size()` are zero.
  void AssignWords(const uint64_t* src) {
    std::memcpy(words_.data(), src, words_.size() * sizeof(Word));
  }

  /// Builds a set over `universe_size` elements from a packed word row.
  static DynamicBitset FromWords(int universe_size, const uint64_t* src) {
    DynamicBitset out(universe_size);
    out.AssignWords(src);
    return out;
  }

  /// 64-bit mixing hash, suitable for unordered containers.
  uint64_t Hash() const;

  /// "{0, 3, 17}" style debug rendering.
  std::string ToString() const;

  /// Approximate heap footprint in bytes (for memory budgeting). Inline
  /// universes (<= 128 elements) report 0.
  size_t MemoryUsage() const { return words_.heap_bytes(); }

 private:
  using Word = internal::WordStorage::Word;
  static constexpr int kBitsPerWord = 64;

  static size_t WordIndex(int pos) {
    return static_cast<size_t>(pos) / kBitsPerWord;
  }
  static int BitIndex(int pos) { return pos % kBitsPerWord; }

  int num_bits_;
  internal::WordStorage words_;
};

/// 64-bit mixing hash of `count` packed words: an FNV-style fold with a
/// splitmix64 avalanche finisher. `DynamicBitset::Hash` is this over the
/// set's words, so a packed row and the bitset holding it hash alike.
inline uint64_t HashWords(const uint64_t* words, size_t count) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < count; ++i) {
    h ^= words[i];
    h *= 0x100000001b3ULL;
  }
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

/// std::hash adapter for DynamicBitset-keyed maps.
struct DynamicBitsetHash {
  size_t operator()(const DynamicBitset& b) const {
    return static_cast<size_t>(b.Hash());
  }
};

}  // namespace coursenav

#endif  // COURSENAV_UTIL_BITSET_H_
