#ifndef GVA_SAX_ALPHABET_H_
#define GVA_SAX_ALPHABET_H_

#include <cstddef>
#include <vector>

namespace gva {

/// Smallest and largest supported SAX alphabet sizes. Letters are the
/// lowercase ASCII characters 'a', 'b', ...; 26 is the natural ceiling.
inline constexpr size_t kMinAlphabetSize = 2;
inline constexpr size_t kMaxAlphabetSize = 26;

/// Equiprobable discretization alphabet under the standard normal
/// distribution (paper Section 3.1). For an alphabet of size `a` the real
/// line is cut at a-1 breakpoints chosen so each of the `a` regions has
/// probability 1/a under N(0,1); a PAA mean is mapped to the letter of the
/// region it falls into.
class NormalAlphabet {
 public:
  /// Builds the breakpoint and MINDIST tables for the given size.
  /// `size` must lie in [kMinAlphabetSize, kMaxAlphabetSize].
  explicit NormalAlphabet(size_t size);

  size_t size() const { return size_; }

  /// The a-1 interior breakpoints, ascending.
  const std::vector<double>& breakpoints() const { return breakpoints_; }

  /// Maps a z-normalized value to its letter index in [0, size): the index
  /// std::upper_bound returns over breakpoints(), so a value on a
  /// breakpoint goes to the upper region (as in the SAX reference
  /// implementation) and NaN to the last. Counting the breakpoints that
  /// `value` is not below gives that index without branches; `NaN < cut` is
  /// false, so NaN counts them all. The SAX block kernel's letter stage
  /// counts the same way over a block of values.
  size_t IndexOf(double value) const {
    size_t index = 0;
    for (const double cut : breakpoints_) {
      index += static_cast<size_t>(!(value < cut));
    }
    return index;
  }

  /// Maps a z-normalized value to its letter ('a' + index).
  char LetterOf(double value) const { return IndexFor('a', IndexOf(value)); }

  /// Letter for a given index.
  static char IndexFor(char base, size_t index) {
    return static_cast<char>(static_cast<size_t>(base) + index);
  }

  /// Index of a letter produced by this alphabet.
  static size_t IndexOfLetter(char letter) {
    return static_cast<size_t>(letter - 'a');
  }

  /// The MINDIST cell distance between letter indices r and c: 0 when
  /// |r - c| <= 1, otherwise breakpoint[max(r,c)-1] - breakpoint[min(r,c)]
  /// (Lin et al. 2002). Symmetric.
  double CellDistance(size_t r, size_t c) const;

 private:
  size_t size_;
  std::vector<double> breakpoints_;
  std::vector<double> distance_table_;  // size_ x size_, row-major
};

}  // namespace gva

#endif  // GVA_SAX_ALPHABET_H_
