#include "util/csv.h"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <system_error>
#include <utility>

#include "util/strings.h"

namespace gva {

StatusOr<double> ParseDouble(std::string_view field) {
  std::string_view stripped = StripWhitespace(field);
  if (stripped.empty()) {
    return Status::InvalidArgument("empty numeric field");
  }
  std::string buffer(stripped);
  char* end = nullptr;
  // strtod sets ERANGE on underflow too, so errno is not consulted: a
  // finite result (zero or a subnormal on underflow) is a valid field, and
  // overflow saturates to +-inf, which the finiteness check rejects.
  const double value = std::strtod(buffer.c_str(), &end);
  if (end != buffer.c_str() + buffer.size()) {
    return Status::InvalidArgument("malformed numeric field: '" + buffer +
                                   "'");
  }
  if (!std::isfinite(value)) {
    return Status::InvalidArgument("non-finite numeric field: '" + buffer +
                                   "'");
  }
  return value;
}

StatusOr<uint64_t> ParseUnsigned(std::string_view text, uint64_t max) {
  const auto invalid = [&](std::string_view why) {
    std::string message = "'";
    message.append(text).append("' ").append(why);
    return Status::InvalidArgument(std::move(message));
  };
  uint64_t value = 0;
  // from_chars takes no sign, whitespace or base prefix for an unsigned
  // type, and reports overflow instead of wrapping.
  const auto [end, error] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (error == std::errc::result_out_of_range) {
    return invalid("is out of range");
  }
  if (error != std::errc() || end != text.data() + text.size()) {
    return invalid("is not an unsigned integer");
  }
  if (value > max) {
    return invalid("is above " + std::to_string(max));
  }
  return value;
}

StatusOr<std::vector<double>> ReadCsvColumn(const std::string& path,
                                            size_t column, char delimiter) {
  std::ifstream in(path);
  if (!in) {
    return Status::IoError("cannot open '" + path + "' for reading");
  }
  std::vector<double> values;
  std::string line;
  size_t line_number = 0;
  bool first_data_line = true;
  while (std::getline(in, line)) {
    ++line_number;
    std::string_view stripped = StripWhitespace(line);
    if (stripped.empty() || stripped.front() == '#') {
      continue;
    }
    std::vector<std::string> fields = Split(stripped, delimiter);
    if (column >= fields.size()) {
      return Status::InvalidArgument(
          StrFormat("%s:%zu: requested column %zu but line has %zu fields",
                    path.c_str(), line_number, column, fields.size()));
    }
    StatusOr<double> parsed = ParseDouble(fields[column]);
    if (!parsed.ok()) {
      if (first_data_line) {
        // Tolerate one non-numeric first line as a header.
        first_data_line = false;
        continue;
      }
      return Status::InvalidArgument(
          StrFormat("%s:%zu: %s", path.c_str(), line_number,
                    parsed.status().message().c_str()));
    }
    first_data_line = false;
    values.push_back(*parsed);
  }
  return values;
}

Status WriteCsvColumn(const std::string& path,
                      const std::vector<double>& values,
                      std::string_view header) {
  std::ofstream out(path);
  if (!out) {
    return Status::IoError("cannot open '" + path + "' for writing");
  }
  if (!header.empty()) {
    out << header << '\n';
  }
  for (double v : values) {
    out << StrFormat("%.17g", v) << '\n';
  }
  if (!out) {
    return Status::IoError("write to '" + path + "' failed");
  }
  return Status::Ok();
}

Status WriteCsvColumns(const std::string& path,
                       const std::vector<std::string>& names,
                       const std::vector<std::vector<double>>& columns) {
  if (names.size() != columns.size()) {
    return Status::InvalidArgument("names/columns size mismatch");
  }
  for (size_t i = 1; i < columns.size(); ++i) {
    if (columns[i].size() != columns[0].size()) {
      return Status::InvalidArgument("columns have different lengths");
    }
  }
  std::ofstream out(path);
  if (!out) {
    return Status::IoError("cannot open '" + path + "' for writing");
  }
  out << Join(names, ",") << '\n';
  size_t rows = columns.empty() ? 0 : columns[0].size();
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < columns.size(); ++c) {
      if (c > 0) {
        out << ',';
      }
      out << StrFormat("%.17g", columns[c][r]);
    }
    out << '\n';
  }
  if (!out) {
    return Status::IoError("write to '" + path + "' failed");
  }
  return Status::Ok();
}

}  // namespace gva
