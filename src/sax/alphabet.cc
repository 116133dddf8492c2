#include "sax/alphabet.h"

#include "util/check.h"
#include "util/math_utils.h"

namespace gva {

NormalAlphabet::NormalAlphabet(size_t size) : size_(size) {
  GVA_CHECK(size >= kMinAlphabetSize && size <= kMaxAlphabetSize)
      << "alphabet size " << size << " outside ["
      << kMinAlphabetSize << ", " << kMaxAlphabetSize << "]";
  breakpoints_.reserve(size - 1);
  for (size_t i = 1; i < size; ++i) {
    breakpoints_.push_back(
        InverseNormalCdf(static_cast<double>(i) / static_cast<double>(size)));
  }
  distance_table_.assign(size * size, 0.0);
  for (size_t r = 0; r < size; ++r) {
    for (size_t c = 0; c < size; ++c) {
      if (r > c + 1) {
        distance_table_[r * size + c] = breakpoints_[r - 1] - breakpoints_[c];
      } else if (c > r + 1) {
        distance_table_[r * size + c] = breakpoints_[c - 1] - breakpoints_[r];
      }
    }
  }
}

double NormalAlphabet::CellDistance(size_t r, size_t c) const {
  GVA_DCHECK(r < size_ && c < size_);
  return distance_table_[r * size_ + c];
}

}  // namespace gva
