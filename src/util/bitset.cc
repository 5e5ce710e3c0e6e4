#include "util/bitset.h"

#include <cassert>
#include <cstring>

#include "util/simd/simd.h"

namespace coursenav {

DynamicBitset::Word* DynamicBitset::NewWords(size_t count) {
  return new Word[count];  // NOLINT(coursenav-raw-new): see FreeHeap
}

DynamicBitset::DynamicBitset(int universe_size)
    : num_bits_(universe_size),
      num_words_(static_cast<uint32_t>(
          (static_cast<size_t>(universe_size) + kBitsPerWord - 1) /
          kBitsPerWord)) {
  assert(universe_size >= 0);
  if (is_inline()) {
    inline_[0] = inline_[1] = 0;
  } else {
    heap_ = NewWords(num_words_);
    std::memset(heap_, 0, num_words_ * sizeof(Word));
  }
}

DynamicBitset& DynamicBitset::Reshape(const DynamicBitset& other) {
  // Drop our words, then take a buffer of other's shape (empty meanwhile,
  // so a throwing allocation leaves a valid set).
  FreeHeap();
  ResetToEmpty();
  if (!other.is_inline()) heap_ = NewWords(other.num_words_);
  num_words_ = other.num_words_;
  num_bits_ = other.num_bits_;
  std::memcpy(data(), other.data(), num_words_ * sizeof(Word));
  return *this;
}

DynamicBitset DynamicBitset::FromIndices(int universe_size,
                                         const std::vector<int>& indices) {
  DynamicBitset out(universe_size);
  for (int idx : indices) {
    assert(idx >= 0 && idx < universe_size);
    out.set(idx);
  }
  return out;
}

int DynamicBitset::count() const {
  return simd::Popcount(data(), num_words_);
}

bool DynamicBitset::empty() const {
  const Word* words = data();
  for (size_t i = 0; i < num_words_; ++i) {
    if (words[i] != 0) return false;
  }
  return true;
}

DynamicBitset& DynamicBitset::operator|=(const DynamicBitset& other) {
  assert(num_bits_ == other.num_bits_);
  simd::UnionInplace(data(), other.data(), num_words_);
  return *this;
}

DynamicBitset& DynamicBitset::operator&=(const DynamicBitset& other) {
  assert(num_bits_ == other.num_bits_);
  simd::IntersectInplace(data(), other.data(), num_words_);
  return *this;
}

DynamicBitset& DynamicBitset::Subtract(const DynamicBitset& other) {
  assert(num_bits_ == other.num_bits_);
  simd::SubtractInplace(data(), other.data(), num_words_);
  return *this;
}

bool DynamicBitset::IsSubsetOf(const DynamicBitset& other) const {
  assert(num_bits_ == other.num_bits_);
  return simd::SubsetOf(data(), other.data(), num_words_);
}

bool DynamicBitset::Intersects(const DynamicBitset& other) const {
  assert(num_bits_ == other.num_bits_);
  return simd::Intersects(data(), other.data(), num_words_);
}

std::vector<int> DynamicBitset::ToIndices() const {
  std::vector<int> out;
  out.reserve(static_cast<size_t>(count()));
  ForEach([&out](int idx) { out.push_back(idx); });
  return out;
}

uint64_t DynamicBitset::Hash() const {
  return HashWords(data(), num_words_);
}

std::string DynamicBitset::ToString() const {
  std::string out = "{";
  bool first = true;
  ForEach([&](int idx) {
    if (!first) out += ", ";
    out += std::to_string(idx);
    first = false;
  });
  out += "}";
  return out;
}

}  // namespace coursenav
