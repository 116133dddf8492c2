#ifndef GVA_UTIL_CSV_H_
#define GVA_UTIL_CSV_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"
#include "util/statusor.h"

namespace gva {

/// Reads one numeric column (0-based index `column`) from a delimited text
/// file. Blank lines and lines starting with '#' are skipped; the first line
/// is skipped too if its requested field does not parse as a number (header
/// detection). Fails with IoError if the file cannot be opened and with
/// InvalidArgument on malformed numeric fields.
StatusOr<std::vector<double>> ReadCsvColumn(const std::string& path,
                                            size_t column = 0,
                                            char delimiter = ',');

/// Writes `values` as a single-column CSV. An optional header line is
/// emitted when `header` is non-empty.
Status WriteCsvColumn(const std::string& path,
                      const std::vector<double>& values,
                      std::string_view header = "");

/// Writes several equally sized columns side by side with the given header
/// names. All columns must have the same length.
Status WriteCsvColumns(const std::string& path,
                       const std::vector<std::string>& names,
                       const std::vector<std::vector<double>>& columns);

/// Parses one numeric field; empty input, nan and +-inf are invalid.
StatusOr<double> ParseDouble(std::string_view field);

/// Parses `text` as a decimal integer in [0, max]: digits only. An empty
/// string, a sign, whitespace, trailing text, overflow and values above
/// `max` are InvalidArgument — the one parser for numeric command-line
/// flags, so "--threads abc" fails instead of meaning 0.
StatusOr<uint64_t> ParseUnsigned(std::string_view text, uint64_t max);

}  // namespace gva

#endif  // GVA_UTIL_CSV_H_
