#ifndef COURSENAV_UTIL_BITSET_H_
#define COURSENAV_UTIL_BITSET_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "util/simd/simd.h"

namespace coursenav {

/// A dynamically sized bitset tuned for small dense id universes.
///
/// `DynamicBitset` backs `CourseSet`: the hot data structure of every
/// generator. A catalog interns courses into dense ids `[0, n)`, so a
/// student's completed set `X_i`, option set `Y_i` and per-edge selection
/// `W` are all bitsets of `n` bits. All set algebra used on the exploration
/// hot path (union, subset test, difference, popcount) is O(n/64).
///
/// A set is 24 bytes: an 8-byte header (universe size, word count), then
/// either the words themselves, inline, for universes up to 128 elements,
/// or one owned pointer to them on the heap. Course catalogs are small (the
/// evaluation's has 38 courses = 1 word) and every learning-graph node holds
/// three sets, so keeping them small and allocation-free dominates both the
/// graph's bytes per node and generator throughput (see
/// bench/micro_benchmarks).
///
/// The capacity (`universe_size`) is fixed at construction; all binary
/// operations require operands of equal universe size. A moved-from set is
/// empty over an empty universe, like a default-constructed one.
class DynamicBitset {
 public:
  /// An empty set over an empty universe.
  DynamicBitset() { ResetToEmpty(); }

  /// An empty set over a universe of `universe_size` elements.
  explicit DynamicBitset(int universe_size);

  // Copies live in the header so that copying inline storage costs no
  // call: nodes, scratch sets and cache keys are copied on every
  // expansion. Heap words are allocated out of line.
  DynamicBitset(const DynamicBitset& other)
      : num_bits_(other.num_bits_), num_words_(other.num_words_) {
    if (is_inline()) {
      inline_[0] = other.inline_[0];
      inline_[1] = other.inline_[1];
    } else {
      heap_ = NewWords(num_words_);
      std::memcpy(heap_, other.heap_, num_words_ * sizeof(Word));
    }
  }
  DynamicBitset& operator=(const DynamicBitset& other) {
    if (this == &other) return *this;
    if (num_words_ != other.num_words_) return Reshape(other);
    // Same shape: copy the words in place, reusing any heap buffer.
    num_bits_ = other.num_bits_;
    if (is_inline()) {
      inline_[0] = other.inline_[0];
      inline_[1] = other.inline_[1];
    } else {
      std::memcpy(heap_, other.heap_, num_words_ * sizeof(Word));
    }
    return *this;
  }
  DynamicBitset(DynamicBitset&& other) noexcept
      : num_bits_(other.num_bits_), num_words_(other.num_words_) {
    StealStorage(other);
  }
  DynamicBitset& operator=(DynamicBitset&& other) noexcept {
    if (this == &other) return *this;
    FreeHeap();
    num_bits_ = other.num_bits_;
    num_words_ = other.num_words_;
    StealStorage(other);
    return *this;
  }
  ~DynamicBitset() { FreeHeap(); }

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
    return (data()[WordIndex(pos)] >> BitIndex(pos)) & 1u;
  }

  void set(int pos) { data()[WordIndex(pos)] |= Word(1) << BitIndex(pos); }
  void reset(int pos) { data()[WordIndex(pos)] &= ~(Word(1) << BitIndex(pos)); }
  /// Empties the set. Inline sets clear without a call: selection
  /// enumeration clears its scratch set once per selection.
  void clear() {
    if (is_inline()) {
      inline_[0] = inline_[1] = 0;
    } else {
      std::memset(heap_, 0, num_words_ * sizeof(Word));
    }
  }

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
    return simd::Equal(a.data(), b.data(), a.num_words_);
  }

  /// Ids of all members, ascending.
  std::vector<int> ToIndices() const;

  /// Calls `fn(int)` for each member id, ascending.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    const Word* words = data();
    for (size_t w = 0; w < num_words_; ++w) {
      Word word = words[w];
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
  size_t word_count() const { return num_words_; }
  const uint64_t* word_data() const { return data(); }
  uint64_t* mutable_word_data() { return data(); }

  /// Overwrites this set's words from a packed row of `word_count()` words.
  /// The caller guarantees bits at or above `universe_size()` are zero.
  void AssignWords(const uint64_t* src) {
    std::memcpy(data(), src, num_words_ * sizeof(Word));
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
  size_t MemoryUsage() const {
    return is_inline() ? 0 : num_words_ * sizeof(Word);
  }

 private:
  using Word = uint64_t;
  static constexpr int kBitsPerWord = 64;
  static constexpr uint32_t kInlineWords = 2;

  static size_t WordIndex(int pos) {
    return static_cast<size_t>(pos) / kBitsPerWord;
  }
  static int BitIndex(int pos) { return pos % kBitsPerWord; }

  bool is_inline() const { return num_words_ <= kInlineWords; }
  Word* data() { return is_inline() ? inline_ : heap_; }
  const Word* data() const { return is_inline() ? inline_ : heap_; }

  // Heap words are owned by hand: a union member cannot be a unique_ptr,
  // and the union is what keeps a set at 24 bytes. NewWords and FreeHeap
  // are the only allocation and release sites.
  static Word* NewWords(size_t count);
  /// Copy-assignment from a set of another word count.
  DynamicBitset& Reshape(const DynamicBitset& other);
  void FreeHeap() {
    if (!is_inline()) delete[] heap_;  // NOLINT(coursenav-raw-new)
  }
  /// Makes this an empty set over an empty universe, without freeing.
  void ResetToEmpty() {
    num_bits_ = 0;
    num_words_ = 0;
    inline_[0] = inline_[1] = 0;
  }
  /// Takes `other`'s words (inline copy or heap pointer, whichever is live)
  /// and leaves it an empty set over an empty universe.
  void StealStorage(DynamicBitset& other) {
    std::memcpy(static_cast<void*>(inline_), other.inline_, sizeof(inline_));
    other.ResetToEmpty();
  }

  int32_t num_bits_;
  uint32_t num_words_;
  union {
    Word inline_[kInlineWords];  // num_words_ <= kInlineWords
    Word* heap_;                 // otherwise: owned, num_words_ long
  };
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
