#include "util/bitset.h"

#include <cassert>

#include "util/simd/simd.h"

namespace coursenav {

DynamicBitset::DynamicBitset(int universe_size)
    : num_bits_(universe_size),
      words_((static_cast<size_t>(universe_size) + kBitsPerWord - 1) /
             kBitsPerWord) {
  assert(universe_size >= 0);
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
  return simd::Popcount(words_.data(), words_.size());
}

bool DynamicBitset::empty() const {
  for (size_t i = 0; i < words_.size(); ++i) {
    if (words_[i] != 0) return false;
  }
  return true;
}

void DynamicBitset::clear() {
  for (size_t i = 0; i < words_.size(); ++i) words_[i] = 0;
}

DynamicBitset& DynamicBitset::operator|=(const DynamicBitset& other) {
  assert(num_bits_ == other.num_bits_);
  simd::UnionInplace(words_.data(), other.words_.data(), words_.size());
  return *this;
}

DynamicBitset& DynamicBitset::operator&=(const DynamicBitset& other) {
  assert(num_bits_ == other.num_bits_);
  simd::IntersectInplace(words_.data(), other.words_.data(), words_.size());
  return *this;
}

DynamicBitset& DynamicBitset::Subtract(const DynamicBitset& other) {
  assert(num_bits_ == other.num_bits_);
  simd::SubtractInplace(words_.data(), other.words_.data(), words_.size());
  return *this;
}

bool DynamicBitset::IsSubsetOf(const DynamicBitset& other) const {
  assert(num_bits_ == other.num_bits_);
  return simd::SubsetOf(words_.data(), other.words_.data(), words_.size());
}

bool DynamicBitset::Intersects(const DynamicBitset& other) const {
  assert(num_bits_ == other.num_bits_);
  return simd::Intersects(words_.data(), other.words_.data(), words_.size());
}

std::vector<int> DynamicBitset::ToIndices() const {
  std::vector<int> out;
  out.reserve(static_cast<size_t>(count()));
  ForEach([&out](int idx) { out.push_back(idx); });
  return out;
}

uint64_t DynamicBitset::Hash() const {
  return HashWords(words_.data(), words_.size());
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
