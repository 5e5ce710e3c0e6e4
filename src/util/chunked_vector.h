#ifndef COURSENAV_UTIL_CHUNKED_VECTOR_H_
#define COURSENAV_UTIL_CHUNKED_VECTOR_H_

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

namespace coursenav {

/// A growable sequence stored in fixed-size chunks.
///
/// Unlike `std::vector`, growth never relocates elements: a reference or
/// pointer obtained from `operator[]` / `emplace_back` stays valid for the
/// container's lifetime. The learning-graph arenas rely on this so the
/// generators can hold references to a node across child insertions
/// (previously every expansion snapshot-copied the node's bitsets to
/// survive vector reallocation), and so a parallel worker can read a stolen
/// node while the owning worker keeps appending to the same shard.
///
/// The chunk table itself (a vector of chunk pointers) may still relocate
/// on growth, so `operator[]` is only safe on the thread that appends —
/// cross-thread readers must use stable element pointers, not indices.
/// Chunks of `kChunkSize` elements are value-initialized on allocation;
/// `push_back` move-assigns into the next slot.
///
/// Chunk storage can also change hands: `ReleaseChunk` takes a chunk out of
/// a vector whose elements in it are spent, and `AdoptChunk` appends such
/// storage to another vector as room for its next `kChunkSize` elements.
/// The learning graph's merge moves nodes between arenas this way without
/// holding both at once.
template <typename T, size_t ChunkBits = 10>
class ChunkedVector {
 public:
  static constexpr size_t kChunkBits = ChunkBits;
  static constexpr size_t kChunkSize = size_t{1} << kChunkBits;
  static constexpr size_t kChunkMask = kChunkSize - 1;

  ChunkedVector() = default;
  ChunkedVector(ChunkedVector&&) noexcept = default;
  ChunkedVector& operator=(ChunkedVector&&) noexcept = default;
  ChunkedVector(const ChunkedVector&) = delete;
  ChunkedVector& operator=(const ChunkedVector&) = delete;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  T& operator[](size_t i) { return chunks_[i >> kChunkBits][i & kChunkMask]; }
  const T& operator[](size_t i) const {
    return chunks_[i >> kChunkBits][i & kChunkMask];
  }

  T& back() { return (*this)[size_ - 1]; }
  const T& back() const { return (*this)[size_ - 1]; }

  /// Appends `value` and returns a stable reference to the stored element.
  T& push_back(T value) {
    if ((size_ & kChunkMask) == 0 &&
        (size_ >> kChunkBits) == chunks_.size()) {
      chunks_.push_back(std::make_unique<T[]>(kChunkSize));
    }
    T& slot = (*this)[size_];
    slot = std::move(value);
    ++size_;
    return slot;
  }

  /// Takes chunk `chunk`'s storage out of this vector, leaving the chunk
  /// empty: its elements must never be read again. The slots keep whatever
  /// the elements were left holding (typically moved-from values).
  std::unique_ptr<T[]> ReleaseChunk(size_t chunk) {
    return std::move(chunks_[chunk]);
  }

  /// Appends `chunk` (storage of `kChunkSize` elements) as room for
  /// elements not yet pushed: `push_back` fills adopted chunks, in adoption
  /// order, before it allocates. Its slots are move-assigned over.
  void AdoptChunk(std::unique_ptr<T[]> chunk) {
    chunks_.push_back(std::move(chunk));
  }

  /// Frees the adopted or allocated chunks no element has reached yet.
  void FreeUnusedChunks() {
    chunks_.resize((size_ + kChunkMask) >> kChunkBits);
  }

  /// Heap bytes held by the chunk storage itself (not by the elements'
  /// own allocations).
  size_t AllocatedBytes() const {
    return chunks_.size() * kChunkSize * sizeof(T) +
           chunks_.capacity() * sizeof(chunks_[0]);
  }

 private:
  size_t size_ = 0;
  std::vector<std::unique_ptr<T[]>> chunks_;
};

}  // namespace coursenav

#endif  // COURSENAV_UTIL_CHUNKED_VECTOR_H_
